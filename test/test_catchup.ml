(* Bootstrapping new users from blocks + certificates (section 8.3). *)

module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module History = Algorand_core.History
module Certificate = Algorand_core.Certificate
module Chain = Algorand_ledger.Chain
module Balances = Algorand_ledger.Balances
module Transaction = Algorand_ledger.Transaction
open Algorand_crypto

let ts name f = Alcotest.test_case name `Slow f

let config =
  {
    Harness.default with
    users = 16;
    rounds = 3;
    block_bytes = 20_000;
    tx_rate_per_s = 2.0;
    rng_seed = 21;
  }

(* Run a network, then bootstrap a fresh user from one node's history. *)
let run_and_collect () =
  let r = Harness.run config in
  (* Find a node that holds certificates for every round. *)
  let source =
    Array.to_list r.harness.nodes
    |> List.find_opt (fun n ->
           List.for_all
             (fun round -> Node.certificate n ~round <> None)
             [ 1; 2; 3 ])
  in
  match source with
  | None -> Alcotest.fail "no node assembled certificates for all rounds"
  | Some node -> (r, node, Node.history node ~up_to_round:3)

let replay items ?final_certificate (r : Harness.result) =
  History.replay ~params:config.params ~sig_scheme:Signature_scheme.sim
    ~vrf_scheme:Vrf.sim ~genesis:r.harness.genesis ?final_certificate items

let successful_catchup () =
  let r, node, items = run_and_collect () in
  Alcotest.(check int) "three certified blocks" 3 (List.length items);
  match replay items r with
  | Error e -> Alcotest.failf "replay failed: %a" History.pp_error e
  | Ok chain ->
    let tip = Chain.tip chain in
    Alcotest.(check int) "caught up to round 3" 3 tip.height;
    Alcotest.(check string) "same tip as the network"
      (Hex.of_string (Chain.tip (Node.chain node)).hash)
      (Hex.of_string tip.hash);
    (* Balances replayed identically. *)
    Alcotest.(check int) "total stake"
      (Balances.total r.harness.genesis.balances)
      (Balances.total tip.balances_after)

let final_certificate_proves_safety () =
  let r, node, items = run_and_collect () in
  match Node.final_certificate node ~round:3 with
  | None -> Alcotest.fail "no final certificate for round 3"
  | Some fc -> (
    match replay items ~final_certificate:fc r with
    | Error e -> Alcotest.failf "replay failed: %a" History.pp_error e
    | Ok chain ->
      Alcotest.(check bool) "tip marked final" true (Chain.tip chain).final)

let tampered_history_rejected () =
  let r, _node, items = run_and_collect () in
  (* Swap one certificate's block for the empty block: hash mismatch. *)
  let tampered =
    List.mapi
      (fun i (item : History.item) ->
        if i = 1 then
          {
            item with
            block =
              Algorand_ledger.Block.empty
                ~round:(Algorand_ledger.Block.round item.block)
                ~prev_hash:(Algorand_ledger.Block.prev_hash item.block);
          }
        else item)
      items
  in
  (match replay tampered r with
  | Error (`Hash_mismatch 2) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" History.pp_error e
  | Ok _ -> Alcotest.fail "tampered history accepted");
  (* Strip votes below quorum. *)
  let starved =
    List.map
      (fun (item : History.item) ->
        let c = item.certificate in
        {
          item with
          certificate =
            Certificate.make ~round:c.round ~step:c.step ~block_hash:c.block_hash
              ~votes:[ List.hd c.votes ];
        })
      items
  in
  match replay starved r with
  | Error (`Round (1, `Insufficient_votes _)) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" History.pp_error e
  | Ok _ -> Alcotest.fail "starved certificates accepted"

let reordered_history_rejected () =
  let r, _node, items = run_and_collect () in
  match replay (List.rev items) r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reordered history accepted"

let lookback_weights () =
  (* Section 5.3: sortition weights come from the last block created
     lookback_b before the seed block, so freshly moved stake cannot
     immediately influence committee selection. We build a chain where
     stake moves, then compare validation contexts at different
     look-backs. *)
  let sig_scheme = Signature_scheme.sim and vrf_scheme = Vrf.sim in
  let alice = Algorand_core.Identity.generate ~sig_scheme ~vrf_scheme ~seed:"lb-a" in
  let bob = Algorand_core.Identity.generate ~sig_scheme ~vrf_scheme ~seed:"lb-b" in
  let genesis = Algorand_ledger.Genesis.make [ (alice.pk, 900); (bob.pk, 100) ] in
  let chain = Chain.create genesis in
  (* Round 1 block (timestamp 100) moves 800 from alice to bob. *)
  let tx =
    Transaction.make ~signer:alice.signer ~sender:alice.pk ~recipient:bob.pk ~amount:800
      ~nonce:0
  in
  let block : Algorand_ledger.Block.t =
    {
      header =
        {
          round = 1;
          prev_hash = (Chain.tip chain).hash;
          timestamp = 100.0;
          seed = Sha256.digest "seed1";
          seed_proof = "";
          proposer_pk = alice.pk;
          proposer_vrf_hash = Sha256.digest "v";
          proposer_vrf_proof = "";
        };
      txs = [ tx ];
      padding = 0;
    }
  in
  (* The context comes from the given parent, not from the chain's tip
     (still genesis here). *)
  let entry = Result.get_ok (Chain.add chain block) in
  let params lookback =
    { Algorand_ba.Params.paper with seed_refresh_interval = 1; lookback_b = lookback }
  in
  let round2 lookback =
    History.context ~params:(params lookback) ~sig_scheme ~vrf_scheme chain ~parent:entry
  in
  (* Zero look-back: weights from the seed block itself (post-move). *)
  let ctx_now = round2 0.0 in
  Alcotest.(check int) "post-move bob" 900 (ctx_now.weight_of bob.pk);
  Alcotest.(check string) "bound to the parent" entry.hash ctx_now.last_block_hash;
  (* Large look-back: weights from genesis (pre-move). *)
  let ctx_old = round2 1_000.0 in
  Alcotest.(check int) "pre-move bob" 100 (ctx_old.weight_of bob.pk);
  Alcotest.(check int) "pre-move alice" 900 (ctx_old.weight_of alice.pk);
  (* Totals agree either way (stake is conserved). *)
  Alcotest.(check int) "totals equal" ctx_now.total_weight ctx_old.total_weight

let sharded_storage () =
  (* Section 8.3 storage sharding: with 4 shards each node serves only
     a quarter of the rounds, so no single node can bootstrap a client,
     but the union of nodes can. *)
  let r = Harness.run { config with storage_shards = 4 } in
  Expect.no_violations r;
  let nodes = Array.to_list r.harness.nodes in
  (* Some node misses some round under sharding. *)
  let someone_incomplete =
    List.exists
      (fun n -> List.length (Node.history ~respect_shards:true n ~up_to_round:3) < 3)
      nodes
  in
  Alcotest.(check bool) "single nodes are incomplete" true someone_incomplete;
  (* But collectively the history is complete and replays. *)
  match Node.history_from nodes ~up_to_round:3 with
  | None -> Alcotest.fail "union of shards incomplete"
  | Some items ->
    Alcotest.(check int) "three rounds" 3 (List.length items);
    (match replay items r with
    | Ok chain ->
      Alcotest.(check int) "caught up" 3 (Algorand_ledger.Chain.tip chain).height
    | Error e -> Alcotest.failf "replay failed: %a" History.pp_error e)

(* The same catch-up on the real cryptography (ed25519 + ECVRF): the
   replayed certificates go through batch signature verification and
   the per-key tables, and one flipped byte in one vote's signature
   sinks the history. Committee sizes are scaled down so the run stays
   in seconds. *)
let real_crypto_catchup () =
  let params =
    {
      Algorand_ba.Params.paper with
      tau_proposer = 4.0;
      tau_step = 12.0;
      tau_final = 16.0;
      lambda_priority = 1.0;
      lambda_stepvar = 1.0;
      lambda_block = 10.0;
      lambda_step = 5.0;
    }
  in
  let r =
    Harness.run
      {
        config with
        users = 4;
        rounds = 3;
        params;
        crypto = Harness.Real_crypto;
        block_bytes = 5_000;
        tx_rate_per_s = 1.0;
      }
  in
  Expect.no_violations r;
  let node =
    Array.to_list r.harness.nodes
    |> List.find_opt (fun n ->
           List.for_all (fun round -> Node.certificate n ~round <> None) [ 1; 2; 3 ])
  in
  let node = match node with Some n -> n | None -> Alcotest.fail "no node certified rounds 1-3" in
  let items = Node.history node ~up_to_round:3 in
  Alcotest.(check bool) "the certificates' signers have key tables" true
    (List.for_all
       (fun (item : History.item) ->
         List.for_all
           (fun (v : Algorand_ba.Vote.t) ->
             Ed25519.has_table (Algorand_core.Identity.sig_pk v.voter_pk))
           item.certificate.votes)
       items);
  let replay items =
    History.replay ~params ~sig_scheme:Signature_scheme.ed25519 ~vrf_scheme:Vrf.ecvrf
      ~genesis:r.harness.genesis items
  in
  (match replay items with
  | Error e -> Alcotest.failf "replay failed: %a" History.pp_error e
  | Ok chain ->
    Alcotest.(check string) "same tip as the network"
      (Hex.of_string (Chain.tip (Node.chain node)).hash)
      (Hex.of_string (Chain.tip chain).hash));
  let flip s = String.mapi (fun i c -> if i = 40 then Char.chr (Char.code c lxor 1) else c) s in
  let tampered =
    List.mapi
      (fun i (item : History.item) ->
        if i <> 1 then item
        else begin
          let c = item.certificate in
          let votes =
            List.mapi
              (fun j (v : Algorand_ba.Vote.t) ->
                if j = 0 then { v with signature = flip v.signature } else v)
              c.votes
          in
          { item with certificate = { c with votes } }
        end)
      items
  in
  match replay tampered with
  | Error (`Round (2, `Invalid_vote)) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" History.pp_error e
  | Ok _ -> Alcotest.fail "a certificate with a corrupted vote signature was accepted"

let suite =
  [
    ( "catchup",
      [
        Alcotest.test_case "lookback weights (5.3)" `Quick lookback_weights;
        ts "sharded storage catch-up" sharded_storage;
        ts "successful catchup" successful_catchup;
        ts "final certificate proves safety" final_certificate_proves_safety;
        ts "tampered history rejected" tampered_history_rejected;
        ts "reordered history rejected" reordered_history_rejected;
        ts "real-crypto catch-up" real_crypto_catchup;
      ] );
  ]
