(* The account state derived from a chain prefix: per-key balances (the
   sortition weights of section 5.1) and per-key nonces.

   Sharding: accounts are hash-partitioned across [2^shard_bits]
   sub-maps so that block validation can check one shard's senders at
   a time against a smaller map, and so a million-account state never
   funnels every update through one comparison path. Each shard is
   still a persistent map, so fork branches share prefixes cheaply:
   applying a transaction copies the (small) shard array and replaces
   one or two shard records, leaving every untouched shard physically
   shared.

   Observable state is independent of the shard count: [balance],
   [nonce], [total], [weights] and the apply functions agree bit for
   bit between a 1-shard and a 256-shard ledger (the conservation
   oracle in test_ledger checks this). *)

module Smap = Map.Make (String)

type shard = { balances : int Smap.t; nonces : int Smap.t }

let empty_shard = { balances = Smap.empty; nonces = Smap.empty }

type t = {
  shards : shard array;  (** length is a power of two; never mutated in place *)
  mask : int;  (** [Array.length shards - 1] *)
  total : int;
}

let default_shards = 8
let max_shards = 256

(* Round up to a power of two within [1, max_shards]. *)
let normalize_shards (n : int) : int =
  let n = max 1 (min n max_shards) in
  let rec up p = if p >= n then p else up (p * 2) in
  up 1

let create ~(shards : int) : t =
  let n = normalize_shards shards in
  { shards = Array.make n empty_shard; mask = n - 1; total = 0 }

let empty = create ~shards:default_shards

let shard_count (t : t) : int = Array.length t.shards

(* FNV-1a (32-bit constants, which fit OCaml's 63-bit int) over the
   key: deterministic across runs and OCaml versions (unlike
   [Hashtbl.hash]), cheap, and good enough to spread public keys
   (which are hashes or curve points already) over <= 256 shards. *)
let shard_of_key (t : t) (pk : string) : int =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length pk - 1 do
    h := (!h lxor Char.code pk.[i]) * 0x01000193 land 0x3fffffff
  done;
  !h land t.mask

let shard (t : t) (pk : string) : shard = t.shards.(shard_of_key t pk)

let balance (t : t) (pk : string) : int =
  match Smap.find_opt pk (shard t pk).balances with Some b -> b | None -> 0

let nonce (t : t) (pk : string) : int =
  match Smap.find_opt pk (shard t pk).nonces with Some n -> n | None -> 0

let total (t : t) : int = t.total

(* Replace one shard; the array copy is a handful of words, the maps
   are shared. *)
let with_shard (t : t) (i : int) (s : shard) : t =
  let shards = Array.copy t.shards in
  shards.(i) <- s;
  { t with shards }

let credit (t : t) (pk : string) (amount : int) : t =
  let i = shard_of_key t pk in
  let s = t.shards.(i) in
  let prev = match Smap.find_opt pk s.balances with Some b -> b | None -> 0 in
  let t = with_shard t i { s with balances = Smap.add pk (prev + amount) s.balances } in
  { t with total = t.total + amount }

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
    let have = balance t tx.sender in
    if have < tx.amount then Error (`Insufficient_balance (have, tx.amount))
    else begin
      let si = shard_of_key t tx.sender in
      let s = t.shards.(si) in
      let pre_debit_recipient =
        if !chaos_selfpay_inflation then
          match Smap.find_opt tx.recipient (shard t tx.recipient).balances with
          | Some b -> Some b
          | None -> Some 0
        else None
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
        | None -> (
          match Smap.find_opt tx.recipient r.balances with Some b -> b | None -> 0)
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
let check_shard_debits (s : shard) (txs : Transaction.t list) :
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
        let have =
          match Smap.find_opt tx.sender s.balances with Some b -> b | None -> 0
        in
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

let apply_credits (s : shard) (credits : (string * int) list) : shard =
  List.fold_left
    (fun (s : shard) (pk, amount) ->
      let prev = match Smap.find_opt pk s.balances with Some b -> b | None -> 0 in
      { s with balances = Smap.add pk (prev + amount) s.balances })
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
    match check_shard_debits shards.(i) (List.rev by_sender.(i)) with
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
      (fun i credits -> shards.(i) <- apply_credits shards.(i) (List.rev credits))
      by_recipient;
    Ok { t with shards }
  end

(* ------------------------------------------------------------------ *)

(* Sorted like the pre-sharding single map: a global merge of the
   per-shard (individually sorted) bindings, so sortition iteration
   order is independent of the shard count. *)
let weights (t : t) : (string * int) list =
  let cmp (a, _) (b, _) = String.compare a b in
  Array.fold_left
    (fun acc s -> List.merge cmp acc (Smap.bindings s.balances))
    [] t.shards

let holders (t : t) : int =
  Array.fold_left (fun acc s -> acc + Smap.cardinal s.balances) 0 t.shards

(* The money-conservation invariant: [total] must equal the actual map
   sum, and no balance may be negative. [apply_tx] preserves it by
   construction; the randomized oracle in test_ledger drives arbitrary
   valid/invalid sequences (including self-payments) through it. *)
let invariant (t : t) : bool =
  let sum = ref 0 and ok = ref true in
  Array.iter
    (fun s ->
      Smap.iter
        (fun _ b ->
          if b < 0 then ok := false;
          sum := !sum + b)
        s.balances)
    t.shards;
  !ok && !sum = t.total
