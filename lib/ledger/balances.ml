(* The account state derived from a chain prefix: per-key balances (the
   sortition weights of section 5.1) and per-key nonces.

   Two layers. The genesis layer is a flat open-addressing table (a key
   array, a stake array and a slot index), built once by [of_genesis]
   and never written again, so every state derived from one genesis -
   fork branches, [Chain.clone] copies, each materialized node's chain -
   shares it physically. Above it sit the per-shard persistent maps,
   which hold only the accounts written since genesis; an entry there
   shadows the table. Every balance read goes through [read]: the shard
   map first, then the table, else 0. Genesis nonces are 0, so nonces
   live on the maps alone.

   Which constructor for which traffic: [Genesis.make] builds through
   [of_genesis], because a population round only reads its 80,000 to
   1,000,000 genesis accounts, and a table costs about 5 words an
   account where persistent-map inserts path-copy (86 words an account
   at 10k accounts, 106 at 100k). [credit_all] keeps building on the
   maps, and [Workload.initial_balances] uses it: the ledger benchmark
   keeps writing its 200k Zipf accounts, and a layered state holds
   every written account twice (built on the table, its peak heap read
   226 MB against 192 MB on the maps).

   Sharding: accounts are hash-partitioned across [2^shard_bits]
   sub-maps so that block validation can check one shard's senders at
   a time against a smaller map, and so a million-account state never
   funnels every update through one comparison path. Each shard is
   still a persistent map, so fork branches share prefixes cheaply:
   applying a transaction copies the (small) shard array and replaces
   one or two shard records, leaving every untouched shard physically
   shared.

   Observable state is independent of the shard count and of the layer
   an account lives in: [balance], [nonce], [total], [weights],
   [holders], [invariant] and the apply functions agree bit for bit
   between a 1-shard and a 256-shard ledger, and between a state built
   by [of_genesis] and one built by folding [credit] (the oracles in
   test_ledger check both). *)

module Smap = Map.Make (String)

type shard = { balances : int Smap.t; nonces : int Smap.t }

let empty_shard = { balances = Smap.empty; nonces = Smap.empty }

(* The genesis table. The first [count] cells of [keys] and [stakes]
   hold the distinct genesis accounts in order of first appearance;
   [slots] (a power of two, at least twice [count]) maps a hash slot to
   an index into them, -1 when empty, so no key - not even "" - can be
   taken for an empty slot. Nothing observable depends on the slot
   order. *)
type genesis = { keys : string array; stakes : int array; count : int; slots : int array }

let no_genesis = { keys = [||]; stakes = [||]; count = 0; slots = [||] }

type t = {
  shards : shard array;  (** length is a power of two; never mutated in place *)
  mask : int;  (** [Array.length shards - 1] *)
  total : int;
  genesis : genesis;  (** shared by every state derived from it *)
}

let default_shards = 8
let max_shards = 256

(* The least power of two >= [n] (1 for [n <= 1]). *)
let ceil_pow2 (n : int) : int =
  let rec up p = if p >= n then p else up (p * 2) in
  up 1

(* Round up to a power of two within [1, max_shards]. *)
let normalize_shards (n : int) : int = ceil_pow2 (max 1 (min n max_shards))

let create ~(shards : int) : t =
  let n = normalize_shards shards in
  { shards = Array.make n empty_shard; mask = n - 1; total = 0; genesis = no_genesis }

let empty = create ~shards:default_shards

let shard_count (t : t) : int = Array.length t.shards

(* A multiply-xor hash over the key's 8-byte words, then its tail
   bytes, finished by SplitMix64's mixer (on OCaml's 63-bit ints):
   deterministic across runs and OCaml versions (unlike
   [Hashtbl.hash]), defined on keys of any length (the length seeds it,
   so "" hashes too), and on 64-byte keys a fifth of the cost of the
   byte-wise FNV-1a it replaced, which matters because [of_genesis]
   hashes every account once. It routes keys to shards and to
   genesis-table slots; which shard or slot a key lands in is never
   observable. *)
let hash_key (pk : string) : int =
  let n = String.length pk in
  let h = ref n and i = ref 0 in
  while !i + 8 <= n do
    let w = String.get_int64_le pk !i in
    (* [Int64.to_int] drops the word's top bit; fold it in at bit 0. *)
    let w = Int64.to_int w lxor Int64.to_int (Int64.shift_right_logical w 63) in
    h := (!h lxor w) * 0x1e3779b97f4a7c15;
    i := !i + 8
  done;
  while !i < n do
    h := (!h lxor Char.code (String.unsafe_get pk !i)) * 0x1e3779b97f4a7c15;
    incr i
  done;
  let h = (!h lxor (!h lsr 31)) * 0x3f58476d1ce4e5b9 in
  h lxor (h lsr 29)

let shard_of_key (t : t) (pk : string) : int = hash_key pk land t.mask

let shard (t : t) (pk : string) : shard = t.shards.(shard_of_key t pk)

(* [pk]'s genesis stake, 0 if it has none. Linear probing ends at an
   empty slot, and the load is at most one half, so there is one. *)
let genesis_stake (g : genesis) (pk : string) : int =
  if g.count = 0 then 0
  else begin
    let mask = Array.length g.slots - 1 in
    let rec probe i =
      let k = g.slots.(i) in
      if k < 0 then 0
      else if String.equal g.keys.(k) pk then g.stakes.(k)
      else probe ((i + 1) land mask)
    in
    probe (hash_key pk land mask)
  end

(* The one balance read: [pk]'s shard map [s] first (every write since
   genesis lands there), then the genesis table, else 0. *)
let read (g : genesis) (s : shard) (pk : string) : int =
  match Smap.find_opt pk s.balances with Some b -> b | None -> genesis_stake g pk

let balance (t : t) (pk : string) : int = read t.genesis (shard t pk) pk

let nonce (t : t) (pk : string) : int =
  match Smap.find_opt pk (shard t pk).nonces with Some n -> n | None -> 0

let total (t : t) : int = t.total

(* Build the genesis table in one pass: three flat arrays, a few words
   an account, nothing allocated per account. Repeated keys are summed,
   as a fold of [credit] would. *)
let of_genesis ?(shards = default_shards) (allocations : (string * int) list) : t =
  let t = create ~shards in
  let n = List.length allocations in
  if n = 0 then t
  else begin
    let slots = Array.make (ceil_pow2 (2 * n)) (-1) in
    let mask = Array.length slots - 1 in
    let keys = Array.make n "" and stakes = Array.make n 0 in
    (* Insert [pk] at its probe slot, or add to its earlier entry;
       returns the new count of distinct keys. *)
    let rec insert pk amount count i =
      let k = slots.(i) in
      if k < 0 then begin
        slots.(i) <- count;
        keys.(count) <- pk;
        stakes.(count) <- amount;
        count + 1
      end
      else if String.equal keys.(k) pk then begin
        stakes.(k) <- stakes.(k) + amount;
        count
      end
      else insert pk amount count ((i + 1) land mask)
    in
    let rec go count total = function
      | [] -> { t with total; genesis = { keys; stakes; count; slots } }
      | (pk, amount) :: rest ->
        go (insert pk amount count (hash_key pk land mask)) (total + amount) rest
    in
    go 0 0 allocations
  end

(* Replace one shard; the array copy is a handful of words, the maps
   are shared. *)
let with_shard (t : t) (i : int) (s : shard) : t =
  let shards = Array.copy t.shards in
  shards.(i) <- s;
  { t with shards }

let credit (t : t) (pk : string) (amount : int) : t =
  let i = shard_of_key t pk in
  let s = t.shards.(i) in
  let prev = read t.genesis s pk in
  let t = with_shard t i { s with balances = Smap.add pk (prev + amount) s.balances } in
  { t with total = t.total + amount }

(* [credit] once per pair, in order, without its per-credit costs:
   the shard maps are updated in one local array (no shard-array copy
   per credit) and each account takes one [Smap.update] (not a
   [find_opt] then an [add]). [update] rebuilds the same path [add]
   does, so every tree, and the whole state, is structurally equal to
   the fold's. *)
let credit_all (t : t) (credits : (string * int) Seq.t) : t =
  let maps = Array.map (fun s -> s.balances) t.shards in
  let total =
    Seq.fold_left
      (fun total (pk, amount) ->
        let i = shard_of_key t pk in
        maps.(i) <-
          Smap.update pk
            (function
              | Some b -> Some (b + amount) | None -> Some (genesis_stake t.genesis pk + amount))
            maps.(i);
        total + amount)
      t.total credits
  in
  { t with shards = Array.mapi (fun i s -> { s with balances = maps.(i) }) t.shards; total }

type tx_error = [ `Bad_nonce of int * int | `Insufficient_balance of int * int ]

let pp_tx_error fmt = function
  | `Bad_nonce (expected, got) -> Format.fprintf fmt "bad nonce: expected %d, got %d" expected got
  | `Insufficient_balance (have, want) ->
    Format.fprintf fmt "insufficient balance: have %d, want %d" have want

(* Swarm fault seeding: when set, [apply_tx] reintroduces the PR 8
   self-payment inflation bug (credit read from the pre-debit map, so
   paying yourself mints coins), and [apply_block] validates through
   [apply_tx] so that blocks reach it. Exists solely so the simulation
   swarm and its tests can prove, end to end, that a real historical
   bug is found, shrunk and reported by the conservation audit. Never
   set outside tests. *)
let chaos_selfpay_inflation : bool ref = ref false

(* Validate and apply one transaction.

   The debit is written before the credit is read, so a self-payment
   (sender = recipient) reads the already-debited balance and nets to
   zero. (The original implementation read the recipient's balance
   from the pre-debit map, so a self-payment of X minted X coins -
   silent sortition-weight inflation.) *)
let apply_tx (t : t) (tx : Transaction.t) : (t, tx_error) result =
  let expected = nonce t tx.sender in
  if tx.nonce <> expected then Error (`Bad_nonce (expected, tx.nonce))
  else begin
    let si = shard_of_key t tx.sender in
    let s = t.shards.(si) in
    let have = read t.genesis s tx.sender in
    if have < tx.amount then Error (`Insufficient_balance (have, tx.amount))
    else begin
      let pre_debit_recipient =
        if !chaos_selfpay_inflation then Some (balance t tx.recipient) else None
      in
      let t =
        with_shard t si
          {
            balances = Smap.add tx.sender (have - tx.amount) s.balances;
            nonces = Smap.add tx.sender (expected + 1) s.nonces;
          }
      in
      (* Credit against the *updated* state: for sender = recipient this
         reads [have - amount], restoring exactly [have]. *)
      let ri = shard_of_key t tx.recipient in
      let r = t.shards.(ri) in
      let rprev =
        match pre_debit_recipient with
        | Some b -> b  (* chaos hook: the historical pre-debit read *)
        | None -> read t.genesis r tx.recipient
      in
      Ok
        (with_shard t ri
           { r with balances = Smap.add tx.recipient (rprev + tx.amount) r.balances })
    end
  end

let apply_all (t : t) (txs : Transaction.t list) : (t, tx_error) result =
  List.fold_left
    (fun acc tx -> Result.bind acc (fun st -> apply_tx st tx))
    (Ok t) txs

(* ------------------------------------------------------------------ *)
(* Grouped per-shard block validation.                                 *)
(* ------------------------------------------------------------------ *)

(* [apply_block] computes exactly [apply_all], but checks the block
   shard by shard: each shard's senders against that shard's map alone,
   then every shard's credits in one pass.

   Soundness: nonces are exact per shard (all of one sender's
   transactions live in its shard and are scanned in block order). The
   balance check is *conservative*: each sender's cumulative debits
   must be covered by its balance at the start of the block, ignoring
   credits received inside the block. If every shard passes, the
   sequential application also succeeds - at any prefix the sender's
   live balance is >= start - debits_so_far, and the conservative rule
   guarantees debits_so_far + amount <= start - and the final state is
   the same net sums, so we can build it by folding debits, nonces and
   credits per shard. If any shard fails conservatively, the block may
   still be valid by spending intra-block credits, so we fall back to
   the exact sequential path. Either way the result is bit-identical
   to [apply_all].

   The grouped pass is faster than [apply_all] at every block size
   measured (about 20 to 500 transactions, at 8 shards and at 1): it
   hashes each key to its shard once and copies no shard array.
   DESIGN.md section 13 has the numbers. *)

(* One shard's sequential pass: exact nonce check, conservative
   cumulative-debit check. Returns the updated shard (debits + nonces
   applied) or the first error. *)
let check_shard_debits (g : genesis) (s : shard) (txs : Transaction.t list) :
    (shard, tx_error) result =
  let rec go (s : shard) = function
    | [] -> Ok s
    | (tx : Transaction.t) :: rest ->
      let expected =
        match Smap.find_opt tx.sender s.nonces with Some n -> n | None -> 0
      in
      if tx.nonce <> expected then Error (`Bad_nonce (expected, tx.nonce))
      else begin
        (* The evolving balance here is start - debits_so_far (credits
           are deliberately absent), so requiring [amount <= have] is
           exactly the conservative cumulative-debit rule. *)
        let have = read g s tx.sender in
        if tx.amount > have then Error (`Insufficient_balance (have, tx.amount))
        else
          go
            {
              balances = Smap.add tx.sender (have - tx.amount) s.balances;
              nonces = Smap.add tx.sender (expected + 1) s.nonces;
            }
            rest
      end
  in
  go s txs

let apply_credits (g : genesis) (s : shard) (credits : (string * int) list) : shard =
  List.fold_left
    (fun (s : shard) (pk, amount) ->
      { s with balances = Smap.add pk (read g s pk + amount) s.balances })
    s credits

let apply_block ?parallel:_ (t : t) (txs : Transaction.t list) :
    (t, tx_error) result =
  let n_shards = Array.length t.shards in
  (* Group by sender shard (debit side) and recipient shard (credit
     side), preserving block order within each group. *)
  let by_sender = Array.make n_shards [] in
  let by_recipient = Array.make n_shards [] in
  List.iter
    (fun (tx : Transaction.t) ->
      let si = shard_of_key t tx.sender in
      by_sender.(si) <- tx :: by_sender.(si);
      let ri = shard_of_key t tx.recipient in
      by_recipient.(ri) <- (tx.recipient, tx.amount) :: by_recipient.(ri))
    txs;
  let shards = Array.copy t.shards in
  let rec check i =
    i >= n_shards
    ||
    match check_shard_debits t.genesis shards.(i) (List.rev by_sender.(i)) with
    | Ok s ->
      shards.(i) <- s;
      check (i + 1)
    | Error _ -> false
  in
  (* Any conservative failure: fall back to the exact sequential
     semantics (the block may spend credits received earlier in the
     same block). The seeded self-payment bug lives in [apply_tx], so
     with it set every block takes that path too. *)
  if !chaos_selfpay_inflation || not (check 0) then apply_all t txs
  else begin
    Array.iteri
      (fun i credits -> shards.(i) <- apply_credits t.genesis shards.(i) (List.rev credits))
      by_recipient;
    Ok { t with shards }
  end

(* ------------------------------------------------------------------ *)

(* [f pk stake] for each genesis account that no shard map shadows, in
   table order; callers must not depend on that order. *)
let iter_unshadowed (t : t) (f : string -> int -> unit) : unit =
  let g = t.genesis in
  for k = 0 to g.count - 1 do
    let pk = g.keys.(k) in
    if not (Smap.mem pk (shard t pk).balances) then f pk g.stakes.(k)
  done

(* Sorted like the pre-sharding single map: a global merge of the
   per-shard (individually sorted) bindings and of the unshadowed
   genesis accounts, sorted here - no hot path calls this - so
   sortition iteration order is independent of the shard count and of
   the layers. *)
let weights (t : t) : (string * int) list =
  let cmp (a, _) (b, _) = String.compare a b in
  let genesis = ref [] in
  iter_unshadowed t (fun pk b -> genesis := (pk, b) :: !genesis);
  Array.fold_left
    (fun acc s -> List.merge cmp acc (Smap.bindings s.balances))
    (List.sort cmp !genesis) t.shards

let holders (t : t) : int =
  let n = ref (Array.fold_left (fun acc s -> acc + Smap.cardinal s.balances) 0 t.shards) in
  iter_unshadowed t (fun _ _ -> incr n);
  !n

(* The money-conservation invariant: [total] must equal the actual sum
   over both layers, and no balance may be negative. [apply_tx]
   preserves it by construction; the randomized oracle in test_ledger
   drives arbitrary valid/invalid sequences (including self-payments)
   through it. *)
let invariant (t : t) : bool =
  let sum = ref 0 and ok = ref true in
  let add _ b =
    if b < 0 then ok := false;
    sum := !sum + b
  in
  iter_unshadowed t add;
  Array.iter (fun s -> Smap.iter add s.balances) t.shards;
  !ok && !sum = t.total
