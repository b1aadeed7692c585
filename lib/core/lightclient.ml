(* Light-client payment verification: the answer to the paper's "cost
   of joining" concern (section 11). Instead of fetching whole blocks,
   a light client holds block *summaries* (header + padding length +
   transaction Merkle root, ~300 bytes each) and checks that

     1. the block's certificate carries a quorum of valid committee
        votes for H(summary), so the block was agreed by BA-star, and
     2. a Merkle inclusion proof ties the payment's id to the
        summary's transaction root.

   The validation context is the one the block's round was drawn with:
   History.context of the block's parent, on the client's verified
   prefix or from a trusted checkpoint. *)

module Block = Algorand_ledger.Block
module Merkle = Algorand_crypto.Merkle
module Vote = Algorand_ba.Vote
module Params = Algorand_ba.Params

type verified_payment = { round : int; block_hash : string; tx_id : string }

type error =
  [ `Summary_hash_mismatch
  | `Certificate of Certificate.error
  | `Not_included ]

let pp_error fmt = function
  | `Summary_hash_mismatch ->
    Format.fprintf fmt "certificate is not for this block summary"
  | `Certificate e -> Format.fprintf fmt "certificate: %a" Certificate.pp_error e
  | `Not_included -> Format.fprintf fmt "Merkle proof does not tie the payment to the block"

(* Certificate validation dominates (even batched, it is thousands of
   curve operations); the Merkle walk is a handful of hashes. So the
   plural form below validates the certificate once and amortizes it
   over every payment in the same block. *)
let verify_payment ~(params : Params.t) ~(ctx : Vote.validation_ctx)
    ~(summary : Block.summary) ~(certificate : Certificate.t) ~(tx_id : string)
    ~(proof : Merkle.proof) : (verified_payment, error) result =
  let block_hash = Block.hash_of_summary summary in
  if not (String.equal certificate.block_hash block_hash) then
    Error `Summary_hash_mismatch
  else begin
    match Certificate.validate ~params ~ctx certificate with
    | Error e -> Error (`Certificate e)
    | Ok () ->
      if Block.summary_contains summary ~tx_id proof then
        Ok { round = certificate.round; block_hash; tx_id }
      else Error `Not_included
  end

let verify_payments ~(params : Params.t) ~(ctx : Vote.validation_ctx)
    ~(summary : Block.summary) ~(certificate : Certificate.t)
    (payments : (string * Merkle.proof) list) :
    ((verified_payment, error) result list, error) result =
  let block_hash = Block.hash_of_summary summary in
  if not (String.equal certificate.block_hash block_hash) then
    Error `Summary_hash_mismatch
  else begin
    match Certificate.validate ~params ~ctx certificate with
    | Error e -> Error (`Certificate e)
    | Ok () ->
      Ok
        (List.map
           (fun (tx_id, proof) ->
             if Block.summary_contains summary ~tx_id proof then
               Ok { round = certificate.round; block_hash; tx_id }
             else Error `Not_included)
           payments)
  end

(* What the light client stores per block, in bytes. *)
let summary_size_bytes : int = Block.header_size_bytes + 8 + 32

(* ------------------------------------------------------------------ *)
(* Proof serving                                                       *)
(* ------------------------------------------------------------------ *)

(* The full-node side of the protocol: a server answering "prove tx T
   is in block B" queries. Per block it lazily builds, then caches, the
   Merkle tree over transaction ids plus an id -> leaf-index table, so
   a hot block (every wallet asking about the same round) costs one
   O(n) build and O(log n) per request instead of O(n) per request.
   The cache is FIFO-bounded: serving is load-bearing under sustained
   TPS, and an unbounded tree cache over a long chain would leak. *)

type served = {
  sv_summary : Block.summary;
  sv_tree : Merkle.tree;
  sv_index : (string, int) Hashtbl.t;  (** tx id -> leaf index *)
}

type server = {
  cache : (string, served) Hashtbl.t;  (** block hash -> cached trees *)
  order : string Queue.t;  (** FIFO eviction order *)
  max_blocks : int;
  mutable by_ptr : (Block.t * served) list;
      (** physical-identity fast path (MRU, short): [Block.hash] itself
          recomputes the O(n) transaction root, so keying every request
          on it would cost as much as the naive path it replaces. *)
  mutable hits : int;
  mutable misses : int;
}

let max_ptr_entries = 8

let create_server ?(max_blocks = 64) () : server =
  {
    cache = Hashtbl.create 64;
    order = Queue.create ();
    max_blocks = max 1 max_blocks;
    by_ptr = [];
    hits = 0;
    misses = 0;
  }

let rec served_for (s : server) (b : Algorand_ledger.Block.t) : served =
  match List.find_opt (fun (b', _) -> b' == b) s.by_ptr with
  | Some (_, sv) ->
    s.hits <- s.hits + 1;
    sv
  | None ->
    served_for_slow s b

(* A miss maps [Transaction.id] over the block once and builds the tree
   once: the summary's root, the cache key and the index all come from
   those. *)
and served_for_slow (s : server) (b : Algorand_ledger.Block.t) : served =
  let ids = List.map Algorand_ledger.Transaction.id b.txs in
  let tree = Merkle.build ids in
  let summary =
    { Block.s_header = b.header; s_padding = b.padding; s_tx_root = Merkle.tree_root tree }
  in
  let h = Block.hash_of_summary summary in
  let remember sv =
    let keep =
      List.filteri (fun i _ -> i < max_ptr_entries - 1) s.by_ptr
    in
    s.by_ptr <- (b, sv) :: keep;
    sv
  in
  match Hashtbl.find_opt s.cache h with
  | Some sv ->
    s.hits <- s.hits + 1;
    remember sv
  | None ->
    s.misses <- s.misses + 1;
    let index = Hashtbl.create (List.length ids) in
    List.iteri (fun i id -> if not (Hashtbl.mem index id) then Hashtbl.add index id i) ids;
    let sv = { sv_summary = summary; sv_tree = tree; sv_index = index } in
    while Queue.length s.order >= s.max_blocks do
      Hashtbl.remove s.cache (Queue.pop s.order)
    done;
    Hashtbl.add s.cache h sv;
    Queue.add h s.order;
    remember sv

let serve_proof (s : server) ~(block : Block.t) ~(tx_id : string) :
    (Block.summary * Merkle.proof) option =
  let sv = served_for s block in
  match Hashtbl.find_opt sv.sv_index tx_id with
  | None -> None
  | Some index ->
    Option.map (fun p -> (sv.sv_summary, p)) (Merkle.prove_tree sv.sv_tree ~index)

let server_cached_blocks (s : server) : int = Hashtbl.length s.cache
let server_hits (s : server) : int = s.hits
let server_misses (s : server) : int = s.misses
