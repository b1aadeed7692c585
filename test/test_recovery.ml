(* Fork recovery (section 8.2) beyond the partition test in
   test_harness: the synchronized checkpoint behavior on a healthy
   network, and recovery under a sustained targeted DoS. *)

module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Chain = Algorand_ledger.Chain
module Block = Algorand_ledger.Block
module Trace = Algorand_obs.Trace

let ts name f = Alcotest.test_case name `Slow f

let fast_params ~recovery_interval ~max_steps =
  {
    Algorand_ba.Params.paper with
    lambda_priority = 1.0;
    lambda_stepvar = 1.0;
    lambda_block = 10.0;
    lambda_step = 5.0;
    max_steps;
    recovery_interval;
  }

let healthy_checkpoint () =
  (* All users stop regular processing at the recovery tick even when
     healthy (the paper's clock-driven design): the recovery inserts an
     empty block on the agreed fork and normal rounds resume. *)
  let r =
    Harness.run
      {
        Harness.default with
        users = 12;
        rounds = 6;
        params = fast_params ~recovery_interval:8.0 ~max_steps:20;
        block_bytes = 10_000;
        tx_rate_per_s = 0.0;
        recovery_enabled = true;
        max_sim_time = 400.0;
        rng_seed = 13;
      }
  in
  Alcotest.(check (list int)) "no double finals" [] r.safety.double_final;
  let recoveries =
    Array.fold_left (fun a n -> a + Node.recoveries_completed n) 0 r.harness.nodes
  in
  Alcotest.(check bool) (Printf.sprintf "checkpoints ran (%d)" recoveries) true
    (recoveries > 0);
  (* Chains converged and contain at least one recovery (empty) block
     between normal ones. *)
  let tip0 = Chain.tip (Node.chain r.harness.nodes.(0)) in
  Array.iter
    (fun n ->
      Alcotest.(check bool) "tips equal" true
        (String.equal tip0.hash (Chain.tip (Node.chain n)).hash))
    r.harness.nodes;
  let empties =
    List.length
      (List.filter
         (fun (e : Chain.entry) -> e.height > 0 && Block.is_empty e.block)
         (Chain.ancestry (Node.chain r.harness.nodes.(0)) tip0.hash))
  in
  Alcotest.(check bool) (Printf.sprintf "recovery blocks present (%d)" empties) true
    (empties > 0)

let dos_then_recovery () =
  (* Drop all traffic of 40% of users for a long window: the victims
     stall; after the attack ends, the periodic recovery re-converges
     everyone onto one fork. *)
  let r =
    Harness.run
      {
        Harness.default with
        users = 15;
        rounds = 3;
        params = fast_params ~recovery_interval:120.0 ~max_steps:8;
        block_bytes = 10_000;
        tx_rate_per_s = 0.0;
        attack = Harness.Targeted_dos { fraction = 0.4; from_ = 2.0; until = 90.0 };
        recovery_enabled = true;
        max_sim_time = 600.0;
        rng_seed = 14;
      }
  in
  Alcotest.(check (list int)) "no double finals" [] r.safety.double_final;
  let tip_heights =
    Array.to_list (Array.map (fun n -> (Chain.tip (Node.chain n)).height) r.harness.nodes)
  in
  (* Everyone made progress past the stall. *)
  List.iteri
    (fun i h ->
      Alcotest.(check bool) (Printf.sprintf "node %d progressed (tip %d)" i h) true (h >= 3))
    tip_heights;
  let tip0 = (Chain.tip (Node.chain r.harness.nodes.(0))).hash in
  Array.iter
    (fun n ->
      Alcotest.(check bool) "converged" true
        (String.equal tip0 (Chain.tip (Node.chain n)).hash))
    r.harness.nodes

let recovery_preserves_finality () =
  (* Blocks final before a recovery must remain on every converged
     chain afterwards (the fork proposal must graft above finality). *)
  let r =
    Harness.run
      {
        Harness.default with
        users = 12;
        rounds = 4;
        params = fast_params ~recovery_interval:10.0 ~max_steps:20;
        block_bytes = 10_000;
        tx_rate_per_s = 1.0;
        recovery_enabled = true;
        max_sim_time = 400.0;
        rng_seed = 15;
      }
  in
  Alcotest.(check (list int)) "no double finals" [] r.safety.double_final;
  (* Collect every block any node marked final; each must be an
     ancestor of every node's tip. *)
  Array.iter
    (fun owner ->
      let chain = Node.chain owner in
      List.iter
        (fun (e : Chain.entry) ->
          if e.final && e.height > 0 then
            Array.iter
              (fun n ->
                let c = Node.chain n in
                match Chain.find c e.hash with
                | Some _ ->
                  Alcotest.(check bool) "final block on tip path" true
                    (Chain.descends_from c ~hash:(Chain.tip c).hash ~ancestor:e.hash)
                | None -> ())
              r.harness.nodes)
        (Chain.ancestry chain (Chain.tip chain).hash))
    r.harness.nodes

let dropped_round_timers_silent () =
  (* A recovery tick drops the round in flight. Its BA* timers must die
     with it: while a node is recovering, no regular-round step may
     run. A partition stalls BA* on step timeouts, so the tick at 20 s
     finds nodes Running with timers armed. *)
  let tr = Trace.create () in
  Trace.enable tr;
  let recovering = Hashtbl.create 16 in
  let from_running = ref 0 and stale_steps = ref [] in
  Trace.add_callback tr (fun (e : Trace.event) ->
      if e.name = "node.lifecycle" then begin
        let from = List.assoc "from" e.detail and to_ = List.assoc "to" e.detail in
        if to_ = "recovering" then begin
          Hashtbl.replace recovering e.node ();
          if from = "running" then incr from_running
        end
        else if from = "recovering" then Hashtbl.remove recovering e.node
      end
      else if e.cat = "step" && Hashtbl.mem recovering e.node then
        stale_steps := (e.node, e.round, e.ts) :: !stale_steps);
  let r =
    Harness.run
      {
        Harness.default with
        users = 12;
        rounds = 6;
        params = fast_params ~recovery_interval:20.0 ~max_steps:6;
        block_bytes = 10_000;
        tx_rate_per_s = 0.0;
        recovery_enabled = true;
        max_sim_time = 400.0;
        rng_seed = 13;
        trace = Some tr;
        stressors = [ Harness.Partition { from_ = 4.0; until = 40.0 } ];
      }
  in
  Alcotest.(check (list int)) "no double finals" [] r.safety.double_final;
  Alcotest.(check bool)
    (Printf.sprintf "ticks dropped running rounds (%d)" !from_running)
    true (!from_running > 0);
  match List.rev !stale_steps with
  | [] -> ()
  | (node, round, ts) :: _ ->
    Alcotest.failf "%d steps ran during recovery; first: node %d round %d at %.2fs"
      (List.length !stale_steps) node round ts

let suite =
  [
    ( "recovery",
      [
        ts "healthy-network checkpoint" healthy_checkpoint;
        ts "DoS then recovery" dos_then_recovery;
        ts "recovery preserves finality" recovery_preserves_finality;
        ts "dropped round's timers stay silent" dropped_round_timers_silent;
      ] );
  ]
