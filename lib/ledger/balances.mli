(** Account state derived from a chain prefix: balances (the sortition
    weights of section 5.1) and per-key nonces, hash-partitioned into
    shards so block validation can check one shard at a time. Purely
    functional - fork branches share prefixes; the shard count never
    changes observable state.

    Two layers: an immutable genesis table, built once by [of_genesis]
    and shared physically by every state derived from it, under the
    per-shard maps, which hold only the accounts written since and
    shadow the table. A state built by [of_genesis] is observably the
    fold of [credit] over the same pairs. [of_genesis] serves a genesis
    that later traffic mostly reads (a population's 80k-1M accounts: a
    few words an account against the maps' ~100); [credit_all] serves
    a state that traffic mostly writes (the ledger workload's Zipf
    accounts, which a table would hold twice once written: 226 MB of
    peak heap against 192 MB). *)

type t

val empty : t
(** The empty state with the default shard count. *)

val create : shards:int -> t
(** Empty state partitioned into [shards] sub-maps (rounded up to a
    power of two, clamped to [1, 256]). *)

val shard_count : t -> int
val shard_of_key : t -> string -> int

val balance : t -> string -> int
val nonce : t -> string -> int
val total : t -> int
val credit : t -> string -> int -> t

val of_genesis : ?shards:int -> (string * int) list -> t
(** The genesis layer: the accounts in one flat table (shard count as
    for [create], default 8), repeated accounts summed, no shard-map
    entry. Observably equal to the fold of [credit] over the pairs. *)

val credit_all : t -> (string * int) Seq.t -> t
(** [credit] of each (account, amount) in order, built in one pass on
    the shard maps: structurally equal to the fold of [credit],
    repeated accounts summed. *)

type tx_error = [ `Bad_nonce of int * int | `Insufficient_balance of int * int ]

val pp_tx_error : Format.formatter -> tx_error -> unit

val apply_tx : t -> Transaction.t -> (t, tx_error) result
(** Validate (nonce, balance) and apply one payment. The debit lands
    before the credit is read, so a self-payment nets to zero instead
    of minting money. *)

val apply_all : t -> Transaction.t list -> (t, tx_error) result

val apply_block : ?parallel:bool -> t -> Transaction.t list -> (t, tx_error) result
(** Exactly [apply_all], computed shard by shard: a conservative
    per-shard debit check, then the credits, with a fallback to
    [apply_all] for blocks that spend intra-block credits.
    Bit-identical results to [apply_all] in all cases.

    [parallel] is ignored. Validation runs on one domain: a domain pool
    measured slower than this sequential pass. The argument stays so
    existing callers that pass it, such as the benchmark harness, keep
    compiling. *)

val weights : t -> (string * int) list
(** All (account, balance) pairs of both layers, sorted by key
    regardless of shard count. Sorts the genesis table on every call;
    no hot path calls it. *)

val holders : t -> int
(** Accounts in either layer, zero balances included. *)

val invariant : t -> bool
(** Money conservation: [total] equals the sum over both layers and no
    balance is negative. *)

val chaos_selfpay_inflation : bool ref
(** Fault seeding for the simulation swarm: when set, [apply_tx]
    reintroduces the historical self-payment inflation bug (the credit
    reads the pre-debit balance, so paying yourself mints coins) that
    the conservation audit must then find, and [apply_block] validates
    every block through [apply_tx]. Test-only; defaults to
    [false]. *)
