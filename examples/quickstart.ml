(* Quickstart: spin up a small simulated Algorand deployment, submit a
   payment, watch the network reach final consensus, and inspect the
   resulting chain. Run with:  dune exec examples/quickstart.exe *)

module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Chain = Algorand_ledger.Chain
module Block = Algorand_ledger.Block

let () =
  let config =
    {
      Harness.default with
      users = 20;
      rounds = 3;
      block_bytes = 100_000;
      tx_rate_per_s = 2.0;
    }
  in
  Printf.printf "Running %d users for %d rounds (%d-byte blocks)...\n%!" config.users
    config.rounds config.block_bytes;
  let result = Harness.run config in
  Printf.printf "Simulated %.1fs of network time (%d events).\n" result.sim_time
    result.events;
  Printf.printf "Round completion across users: %s\n"
    (Format.asprintf "%a" Algorand_sim.Stats.pp_summary result.completion);
  Printf.printf "Safety: %d agreed rounds, %d forked\n" result.safety.agreement_rounds
    (List.length result.safety.forked_rounds);
  let violations = Harness.violations result in
  List.iter (Format.printf "VIOLATION %a@." Algorand_core.Verdict.pp_violation) violations;
  assert (violations = []);
  Printf.printf "Finality: %d final rounds, %d tentative\n" result.final_rounds
    result.tentative_rounds;
  (* Walk node 0's chain. *)
  let chain = Node.chain result.harness.nodes.(0) in
  let tip = Chain.tip chain in
  List.iter
    (fun (e : Chain.entry) ->
      Printf.printf "  height %d: %s%s (%d txs)\n" e.height
        (if Block.is_empty e.block then "empty" else "block")
        (if e.final then " [final]" else "")
        (List.length e.block.txs))
    (Chain.ancestry chain tip.hash)
