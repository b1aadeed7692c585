(* Catch-up demo (section 8.3): run a network for a few rounds, then
   bootstrap a brand-new user from downloaded blocks + certificates,
   verifying everything from genesis - including a final certificate
   that proves safety of the newest block.

   Run with:  dune exec examples/catchup_demo.exe *)

module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Catchup = Algorand_core.Catchup
module Certificate = Algorand_core.Certificate
module Chain = Algorand_ledger.Chain
open Algorand_crypto

let () =
  let config =
    {
      Harness.default with
      users = 20;
      rounds = 3;
      block_bytes = 50_000;
      tx_rate_per_s = 3.0;
      rng_seed = 9;
    }
  in
  Printf.printf "Running %d users for %d rounds...\n%!" config.users config.rounds;
  let r = Harness.run config in
  assert (Harness.violations r = []);
  (* Pick a bootstrap server: any node holding all certificates. *)
  let server =
    Array.to_list r.harness.nodes
    |> List.find (fun n ->
           List.for_all (fun round -> Node.certificate n ~round <> None) [ 1; 2; 3 ])
  in
  let history = Catchup.collect server ~up_to_round:3 in
  let bytes =
    List.fold_left
      (fun acc (i : Catchup.item) ->
        acc
        + Algorand_ledger.Block.size_bytes i.block
        + Certificate.size_bytes i.certificate)
      0 history
  in
  Printf.printf "downloaded %d certified blocks (%d KB including certificates)\n"
    (List.length history) (bytes / 1024);
  let final_certificate = Node.final_certificate server ~round:3 in
  (match final_certificate with
  | Some fc -> Printf.printf "final certificate for round 3: %d votes\n" (List.length fc.votes)
  | None -> Printf.printf "no final certificate available\n");
  match
    Catchup.replay ~params:config.params ~sig_scheme:Signature_scheme.sim
      ~vrf_scheme:Vrf.sim ~genesis:r.harness.genesis ?final_certificate history
  with
  | Error e -> Format.printf "catch-up failed: %a@." Catchup.pp_error e
  | Ok chain ->
    let tip = Chain.tip chain in
    Printf.printf "new user caught up to round %d, tip %s%s\n" tip.height
      (Hex.of_string (String.sub tip.hash 0 6))
      (if tip.final then " [proven final]" else "");
    assert (String.equal tip.hash (Chain.tip (Node.chain server)).hash);
    Printf.printf "tip matches the network: bootstrap verified from genesis\n";
    (* Light-client mode: verify one committed payment from a ~300 B
       block summary, the certificate, and a Merkle proof - no block
       bodies at all (the section 11 "cost of joining" answer). *)
    let module Block = Algorand_ledger.Block in
    let module Transaction = Algorand_ledger.Transaction in
    let module Lightclient = Algorand_core.Lightclient in
    (match
       List.find_opt
         (fun (e : Chain.entry) -> e.height > 0 && e.block.txs <> [])
         (List.rev (Chain.ancestry chain tip.hash))
     with
    | None -> Printf.printf "no transactions committed; skipping light-client demo\n"
    | Some entry -> (
      let tx = List.hd entry.block.txs in
      let tx_id = Transaction.id tx in
      let summary = Block.summarize entry.block in
      let proof = Option.get (Block.prove_tx entry.block ~tx_id) in
      let certificate =
        List.find
          (fun (i : Catchup.item) -> Algorand_ledger.Block.round i.block = entry.height)
          history
      in
      let ctx =
        Catchup.validation_ctx ~params:config.params
          ~sig_scheme:Signature_scheme.sim ~vrf_scheme:Vrf.sim ~chain
          ~round:entry.height
      in
      let ctx = { ctx with last_block_hash = entry.parent } in
      match
        Lightclient.verify_payment ~params:config.params ~ctx ~summary
          ~certificate:certificate.certificate ~tx_id ~proof
      with
      | Ok v ->
        Printf.printf
          "light client verified payment %s in round %d from %d header bytes + %d proof bytes\n"
          (Hex.of_string (String.sub tx_id 0 6))
          v.round Lightclient.summary_size_bytes
          (Algorand_crypto.Merkle.proof_size_bytes proof)
      | Error e -> Format.printf "light verification failed: %a@." Lightclient.pp_error e))
