(* Partition and recovery demo (section 8.2): the network is split in
   half (weak synchrony); neither half can cross the BA* vote
   threshold, so progress stops and nodes eventually hang. After the
   partition heals, the clock-synchronized recovery protocol proposes
   the longest fork, agrees on it with BA*, and normal rounds resume.

   Run with:  dune exec examples/partition_recovery.exe *)

module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Chain = Algorand_ledger.Chain

let () =
  let params =
    {
      Algorand_ba.Params.paper with
      lambda_priority = 1.0;
      lambda_stepvar = 1.0;
      lambda_block = 10.0;
      lambda_step = 5.0;
      max_steps = 6;
      recovery_interval = 150.0;
    }
  in
  let config =
    {
      Harness.default with
      users = 20;
      rounds = 3;
      params;
      block_bytes = 20_000;
      tx_rate_per_s = 0.0;
      attacks = [ Harness.Partition { from_ = 4.0; until = 100.0 } ];
      recovery_enabled = true;
      max_sim_time = 600.0;
      rng_seed = 8;
    }
  in
  Printf.printf "partition from t=4s to t=100s; recovery ticks every %.0fs\n%!"
    params.recovery_interval;
  let r = Harness.run config in
  Printf.printf "simulated %.0fs\n" r.sim_time;
  Printf.printf "safety: %d forked rounds\n" (List.length r.safety.forked_rounds);
  let violations = Harness.violations r in
  List.iter (Format.printf "VIOLATION %a@." Algorand_core.Verdict.pp_violation) violations;
  assert (violations = []);
  let recoveries =
    Array.fold_left (fun acc n -> acc + Node.recoveries_completed n) 0 r.harness.nodes
  in
  Printf.printf "recoveries completed across users: %d\n" recoveries;
  Array.iteri
    (fun i n ->
      if i < 3 then begin
        let chain = Node.chain n in
        let tip = Chain.tip chain in
        Printf.printf "node %d chain: %s\n" i
          (String.concat " <- "
             (List.rev_map
                (fun (e : Chain.entry) ->
                  Printf.sprintf "r%d%s" e.height
                    (if Algorand_ledger.Block.is_empty e.block then "(empty)" else ""))
                (Chain.ancestry chain tip.hash)))
      end)
    r.harness.nodes;
  let tip0 = (Chain.tip (Node.chain r.harness.nodes.(0))).hash in
  Array.iter (fun n -> assert (String.equal tip0 (Chain.tip (Node.chain n)).hash)) r.harness.nodes;
  Printf.printf "liveness recovered: all %d users converged after the partition\n"
    config.users
