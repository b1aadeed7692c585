(** The pending-transaction pool (Figure 1): deduplicated by id,
    drained FIFO. Ids of committed transactions are retained (and
    deduplicated against) only until [expire] passes the commit-round
    watermark, so the pool stays bounded under sustained traffic. *)

type t

val create : unit -> t

val add : t -> Transaction.t -> bool
(** [true] iff the transaction was new. *)

val mem : t -> Transaction.t -> bool

val select : t -> max_bytes:int -> Transaction.t list
(** Like [take] but non-destructive: what block proposers use, since a
    losing proposal must not cost the pool its transactions. *)

val take : t -> max_bytes:int -> Transaction.t list
(** Remove and return pending transactions up to [max_bytes] of
    serialized size, oldest first. Ids are released too: an
    uncommitted taken transaction can re-enter via gossip. *)

val remove_committed : t -> round:int -> Transaction.t list -> unit
(** Drop the transactions committed by [round]'s block; their ids stay
    deduplicated until [expire] passes [round]. *)

val expire : t -> before_round:int -> unit
(** Evict committed ids from rounds below [before_round]. *)

val prune : t -> stale:(string -> Transaction.t -> bool) -> int
(** Remove queued transactions for which [stale id tx] holds (e.g.
    nonce already consumed on-chain); [id] is the transaction's id,
    stored since [add]. Returns the number dropped. *)

val size : t -> int
val bytes : t -> int

val seen_ids : t -> int
(** Current size of the dedup table (pending + retained committed). *)
