(* Certified history (sections 5.2-5.3 and 8.3). Two rules of the
   paper live here and nowhere else:

   - the round context: round r's committees are drawn with the seed
     at height r - 1 - (r mod R) and the weights of the last block
     created b seconds before that seed block, on the chain that ends
     at round r's parent;
   - the certified-history step: a (block, certificate) pair is checked
     in the context of the block's parent and only then added to the
     chain, so a user validating in round order from genesis always
     knows the weights that every sortition proof needs.

   Node draws its rounds' committees through [context], the population
   engine its seeds, and Node's live catch-up and restart, Disk_store's
   readers and the light client take their contexts and grafts from
   here. *)

module Block = Algorand_ledger.Block
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Balances = Algorand_ledger.Balances
module Vote = Algorand_ba.Vote
module Params = Algorand_ba.Params

type item = { block : Block.t; certificate : Certificate.t }

type error =
  [ `Round of int * Certificate.error
  | `Chain of int * Chain.add_error
  | `Hash_mismatch of int
  | `Final_certificate of Certificate.error ]

let pp_error fmt = function
  | `Round (r, e) -> Format.fprintf fmt "round %d: %a" r Certificate.pp_error e
  | `Chain (r, e) -> Format.fprintf fmt "round %d: %a" r Chain.pp_add_error e
  | `Hash_mismatch r -> Format.fprintf fmt "round %d: certificate is for another block" r
  | `Final_certificate e ->
    Format.fprintf fmt "final certificate: %a" Certificate.pp_error e

let make_context ~(params : Params.t) ~(sig_scheme : Algorand_crypto.Signature_scheme.scheme)
    ~(vrf_scheme : Algorand_crypto.Vrf.scheme) ~(seed : string) ~(weights : Balances.t)
    ~(prev_hash : string) : Vote.validation_ctx =
  {
    sig_scheme;
    vrf_scheme;
    sig_pk_of = Identity.sig_pk;
    vrf_pk_of = Identity.vrf_pk;
    seed;
    total_weight = Balances.total weights;
    weight_of = Balances.balance weights;
    last_block_hash = prev_hash;
    tau_of_step = (function Vote.Final -> params.tau_final | _ -> params.tau_step);
  }

let context ~(params : Params.t) ~sig_scheme ~vrf_scheme (chain : Chain.t)
    ~(parent : Chain.entry) : Vote.validation_ctx =
  let round = parent.height + 1 in
  let seed_height = max 0 (round - 1 - (round mod params.seed_refresh_interval)) in
  let seed_entry =
    match Chain.ancestor_at chain ~hash:parent.hash ~height:seed_height with
    | Some e -> e
    | None -> Chain.genesis_entry chain
  in
  let cutoff = seed_entry.block.header.timestamp -. params.lookback_b in
  let rec back (e : Chain.entry) =
    if e.height = 0 || e.block.header.timestamp <= cutoff then e
    else match Chain.find chain e.parent with None -> e | Some p -> back p
  in
  make_context ~params ~sig_scheme ~vrf_scheme ~seed:seed_entry.seed
    ~weights:(back seed_entry).balances_after ~prev_hash:parent.hash

let graft ~(params : Params.t) ~sig_scheme ~vrf_scheme (chain : Chain.t)
    ~(parent : Chain.entry) ({ block; certificate } : item) : (Chain.entry, error) result =
  let round = Block.round block in
  if not (String.equal certificate.block_hash (Block.hash block)) then
    Error (`Hash_mismatch round)
  else begin
    let ctx = context ~params ~sig_scheme ~vrf_scheme chain ~parent in
    match Certificate.validate ~params ~ctx certificate with
    | Error e -> Error (`Round (round, e))
    | Ok () -> Result.map_error (fun e -> `Chain (round, e)) (Chain.add chain block)
  end

let extend ~params ~sig_scheme ~vrf_scheme ?(on_graft = ignore) (chain : Chain.t)
    (items : item list) : (unit, error) result =
  let rec go = function
    | [] -> Ok ()
    | item :: rest -> (
      match graft ~params ~sig_scheme ~vrf_scheme chain ~parent:(Chain.tip chain) item with
      | Error e -> Error e
      | Ok entry ->
        Chain.set_tip chain entry.hash;
        on_graft item;
        go rest)
  in
  go items

let replay ~(params : Params.t) ~sig_scheme ~vrf_scheme ~(genesis : Genesis.t)
    ?(final_certificate : Certificate.t option) (items : item list) :
    (Chain.t, error) result =
  let chain = Chain.create genesis in
  match extend ~params ~sig_scheme ~vrf_scheme chain items with
  | Error e -> Error e
  | Ok () -> (
    (* A valid final certificate makes the newest block (and so its
       whole prefix) final. Final votes bind to the block's parent, so
       it is checked in the parent's context like any certificate. *)
    match final_certificate with
    | None -> Ok chain
    | Some fc -> (
      let tip = Chain.tip chain in
      match Chain.find chain tip.parent with
      | Some parent when String.equal fc.block_hash tip.hash -> (
        let ctx = context ~params ~sig_scheme ~vrf_scheme chain ~parent in
        match Certificate.validate ~params ~ctx fc with
        | Ok () ->
          Chain.mark_final chain tip.hash;
          Ok chain
        | Error e -> Error (`Final_certificate e))
      | _ -> Error (`Final_certificate `Wrong_value)))
