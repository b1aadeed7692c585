(* Crash-restart fault injection: nodes lose all in-memory state, come
   back from their durable checkpoint, and rejoin via live catch-up
   (Round_request / Round_reply with retry, backoff and peer rotation).

   The safety bar, from the paper's model (section 3: users may go
   offline and rejoin): no matter when or how often correct nodes
   crash, (a) no round ever sees two different FINAL blocks, and (b) a
   restarted node's chain re-converges with the strict-majority chain.
   The liveness bar: every crashed node that gets a restart finishes
   the experiment's rounds (status Stopped) - rejoin must not wedge. *)

module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Params = Algorand_ba.Params
module Chain = Algorand_ledger.Chain
module Engine = Algorand_sim.Engine
module Retry = Algorand_sim.Retry
module Rng = Algorand_sim.Rng
module Network = Algorand_netsim.Network
module Trace = Algorand_obs.Trace
module Swarm = Algorand_check.Swarm

let ts name f = Alcotest.test_case name `Slow f
let status n = Node.status_to_string (Node.status n)

let fast_params ~max_steps =
  {
    Params.paper with
    lambda_priority = 1.0;
    lambda_stepvar = 1.0;
    lambda_block = 10.0;
    lambda_step = 5.0;
    max_steps;
  }

let base ~seed ~users ~rounds ~attacks ~loss =
  {
    Harness.default with
    users;
    rounds;
    params = fast_params ~max_steps:8;
    block_bytes = 10_000;
    tx_rate_per_s = 0.0;
    max_sim_time = 2_000.0;
    rng_seed = seed;
    attacks;
    loss;
  }

(* Every node's tip hash equals node 0's. *)
let check_converged (r : Harness.result) =
  let tip0 = (Chain.tip (Node.chain r.harness.nodes.(0))).hash in
  Array.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d on the common chain" i)
        true
        (String.equal tip0 (Chain.tip (Node.chain n)).hash))
    r.harness.nodes

(* No atomic-write temp files may survive a run: Disk_store.save stages
   through .tmp + rename, so a leftover means a torn write path. *)
let check_no_tmp_files (t : Harness.t) =
  match t.store_root with
  | None -> ()
  | Some root ->
    Array.iter
      (fun sub ->
        let dir = Filename.concat root sub in
        if Sys.file_exists dir && Sys.is_directory dir then
          Array.iter
            (fun f ->
              Alcotest.(check bool)
                (Printf.sprintf "no temp leftover %s/%s" sub f)
                false
                (Filename.check_suffix f ".tmp"))
            (Sys.readdir dir))
      (Sys.readdir root)

(* ------------------------ one-shot crash ------------------------- *)

let one_shot_rejoin () =
  (* Crash one node mid-round; it must come back, catch up within a
     bounded (metric-reported) sim-time, and finish all rounds. *)
  let r =
    Harness.run
      (base ~seed:101 ~users:10 ~rounds:4
         ~attacks:
           [ Harness.Crash_churn
               (Harness.One_shot { at = 6.0; victims = [ 3 ]; down_for = 10.0 }) ]
         ~loss:0.0)
  in
  Fun.protect
    ~finally:(fun () -> Harness.cleanup_stores r.harness)
    (fun () ->
      Alcotest.(check int) "one crash" 1 r.churn.crashes;
      Alcotest.(check int) "one restart" 1 r.churn.restarts;
      Alcotest.(check bool)
        (Printf.sprintf "rejoined (%d)" r.churn.rejoins)
        true (r.churn.rejoins >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "rejoin latency bounded (%.1fs)" r.churn.max_rejoin_s)
        true
        (r.churn.max_rejoin_s > 0.0 && r.churn.max_rejoin_s <= 300.0);
      Expect.no_violations ~ctx:"one-shot" r;
      check_converged r;
      check_no_tmp_files r.harness)

let correlated_outage () =
  (* A third of the cluster dies and restarts together: the survivors
     (still a 2/3 majority) keep going, the cohort's backoff jitter
     de-synchronizes their re-requests, and everyone re-converges. *)
  let r =
    Harness.run
      (base ~seed:202 ~users:12 ~rounds:4
         ~attacks:
           [ Harness.Crash_churn
               (Harness.Correlated { at = 6.0; fraction = 0.33; down_for = 10.0 }) ]
         ~loss:0.0)
  in
  Fun.protect
    ~finally:(fun () -> Harness.cleanup_stores r.harness)
    (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "mass outage injected (%d)" r.churn.crashes)
        true
        (r.churn.crashes >= 3);
      Alcotest.(check int) "every crash restarted" r.churn.crashes r.churn.restarts;
      Expect.no_violations ~ctx:"correlated" r;
      check_converged r)

let periodic_churn_under_loss () =
  (* The acceptance scenario: repeatedly crash 30% of nodes while the
     network also drops 5% of packets. All rounds complete, no forked
     finals, restarted chains match the honest majority. *)
  let r =
    Harness.run
      (base ~seed:303 ~users:10 ~rounds:3
         ~attacks:
           [ Harness.Crash_churn
               (Harness.Periodic
                  {
                    start = 5.0;
                    period = 12.0;
                    fraction = 0.3;
                    down_for = 8.0;
                    until = 80.0;
                  }) ]
         ~loss:0.05)
  in
  Fun.protect
    ~finally:(fun () -> Harness.cleanup_stores r.harness)
    (fun () ->
      Alcotest.(check bool)
        (Printf.sprintf "repeated churn (%d crashes)" r.churn.crashes)
        true
        (r.churn.crashes >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "retries under loss (%d)" r.churn.retries)
        true (r.churn.retries >= 0);
      Expect.no_violations ~ctx:"periodic" r;
      check_converged r;
      check_no_tmp_files r.harness)

let deterministic_per_seed () =
  let cfg =
    base ~seed:404 ~users:10 ~rounds:3
      ~attacks:
        [ Harness.Crash_churn
            (Harness.Periodic
               {
                 start = 5.0;
                 period = 12.0;
                 fraction = 0.3;
                 down_for = 8.0;
                 until = 80.0;
               }) ]
      ~loss:0.05
  in
  let a = Harness.run cfg in
  let b = Harness.run cfg in
  Fun.protect
    ~finally:(fun () ->
      Harness.cleanup_stores a.harness;
      Harness.cleanup_stores b.harness)
    (fun () ->
      Alcotest.(check (float 1e-9)) "same sim time" a.sim_time b.sim_time;
      Alcotest.(check int) "same events" a.events b.events;
      Alcotest.(check int) "same crashes" a.churn.crashes b.churn.crashes;
      Alcotest.(check int) "same rejoins" a.churn.rejoins b.churn.rejoins;
      Alcotest.(check int) "same retries" a.churn.retries b.churn.retries;
      Alcotest.(check (float 1e-9)) "same max rejoin" a.churn.max_rejoin_s
        b.churn.max_rejoin_s)

(* ------------------- incarnation-guarded timers ------------------- *)

let with_store_root f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "algorand-churn-unit-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then begin
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    end
  in
  rm dir;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let incarnation_guards_timers () =
  (* Drive crash/restart by hand. After a crash, every timer and
     delivery armed in the previous life must be a no-op: letting the
     engine run with the node down must leave it at genesis with no
     round in flight. Restart bumps the incarnation again and the node
     rejoins live. *)
  with_store_root (fun root ->
      let t =
        Harness.build
          (base ~seed:505 ~users:8 ~rounds:3 ~attacks:[] ~loss:0.0
          |> fun c -> { c with store_root = Some root })
      in
      Array.iter Node.start t.nodes;
      let victim = t.nodes.(2) in
      ignore (Engine.run t.engine ~until:20.0 ());
      let inc0 = Node.incarnation victim in
      Node.crash victim;
      Network.set_up t.network 2 false;
      Alcotest.(check string) "down" "down" (status victim);
      Alcotest.(check int) "crash counted" 1 (Node.crash_count victim);
      Alcotest.(check bool) "incarnation bumped" true (Node.incarnation victim > inc0);
      (* Old-life timers fire into the void while the node is down. *)
      ignore (Engine.run t.engine ~until:60.0 ());
      Alcotest.(check int) "no round in flight while down" 0 (Node.round victim);
      Alcotest.(check int) "memory wiped to genesis" 0
        (Chain.tip (Node.chain victim)).height;
      let inc1 = Node.incarnation victim in
      Network.set_up t.network 2 true;
      Node.restart victim;
      Alcotest.(check bool) "restart bumps incarnation" true
        (Node.incarnation victim > inc1);
      ignore (Engine.run t.engine ());
      Alcotest.(check string) "victim finished all rounds" "stopped" (status victim);
      let tip0 = (Chain.tip (Node.chain t.nodes.(0))).hash in
      Alcotest.(check bool) "victim re-converged" true
        (String.equal tip0 (Chain.tip (Node.chain victim)).hash))

let truncated_store_recovered () =
  (* Corrupt the tail of a crashed node's checkpoint before its
     restart: the reload keeps the valid prefix and live catch-up
     backfills the rest. Losing the tail costs latency, never safety. *)
  with_store_root (fun root ->
      let t =
        Harness.build
          (base ~seed:606 ~users:8 ~rounds:3 ~attacks:[] ~loss:0.0
          |> fun c -> { c with store_root = Some root })
      in
      Array.iter Node.start t.nodes;
      ignore (Engine.run t.engine ());
      (* Everyone finished; node 4's store holds rounds 1..3. *)
      let victim = t.nodes.(4) in
      Alcotest.(check string) "run completed" "stopped" (status victim);
      Node.crash victim;
      Network.set_up t.network 4 false;
      let dir = Filename.concat root "node-004" in
      let block2 = Filename.concat dir "000002.block" in
      Alcotest.(check bool) "checkpoint present" true (Sys.file_exists block2);
      let oc = open_out_bin block2 in
      output_string oc "torn write";
      close_out oc;
      Network.set_up t.network 4 true;
      Node.restart victim;
      ignore (Engine.run t.engine ());
      Alcotest.(check string) "recovered despite torn tail" "stopped" (status victim);
      let tip0 = (Chain.tip (Node.chain t.nodes.(0))).hash in
      Alcotest.(check bool) "re-converged" true
        (String.equal tip0 (Chain.tip (Node.chain victim)).hash))

(* --------------------------- lifecycle ---------------------------- *)

let adopt_chain_only_when_idle () =
  (* The population engine hands a fresh node a certified prefix; a
     crashed or finished node must refuse one. *)
  let t =
    Harness.build (base ~seed:707 ~users:8 ~rounds:1 ~attacks:[] ~loss:0.0)
  in
  Fun.protect ~finally:(fun () -> Harness.cleanup_stores t) @@ fun () ->
  let chain n = Chain.clone (Node.chain n) in
  Alcotest.(check string) "fresh node" "idle" (status t.nodes.(0));
  Node.adopt_chain t.nodes.(0) (chain t.nodes.(0));
  let raises ctx n =
    match Node.adopt_chain n (chain n) with
    | () -> Alcotest.failf "adopt_chain accepted a %s node" ctx
    | exception Invalid_argument _ -> ()
  in
  Array.iter Node.start t.nodes;
  ignore (Engine.run t.engine ());
  Alcotest.(check string) "finished node" "stopped" (status t.nodes.(0));
  raises "stopped" t.nodes.(0);
  Node.crash t.nodes.(1);
  Alcotest.(check string) "crashed node" "down" (status t.nodes.(1));
  raises "down" t.nodes.(1)

let all_status = Node.[ Idle; Running; Hung; Recovering; Resyncing; Stopped; Down ]

let status_of_string s =
  match List.find_opt (fun st -> Node.status_to_string st = s) all_status with
  | Some st -> st
  | None -> Alcotest.failf "unknown status %S" s

let lifecycle_trace_deterministic () =
  (* Every phase change emits one node.lifecycle instant. Under
     periodic churn the edges must all be in the legal table, crash
     and restart must both show up, and a second run with the same
     seed must emit the identical edge sequence. *)
  let traced_run () =
    let tr = Trace.create () in
    Trace.enable tr;
    let edges = ref [] in
    Trace.add_callback tr (fun (e : Trace.event) ->
        if e.name = "node.lifecycle" then
          edges :=
            ( e.ts,
              e.node,
              e.incarnation,
              List.assoc "from" e.detail,
              List.assoc "to" e.detail )
            :: !edges);
    let r =
      Harness.run
        {
          (base ~seed:303 ~users:10 ~rounds:3
             ~attacks:
               [ Harness.Crash_churn
                   (Harness.Periodic
                      { start = 5.0; period = 12.0; fraction = 0.3; down_for = 8.0; until = 80.0 }) ]
             ~loss:0.05)
          with
          trace = Some tr;
        }
    in
    Harness.cleanup_stores r.harness;
    List.rev !edges
  in
  let a = traced_run () in
  let b = traced_run () in
  List.iter
    (fun (_, node, _, from, to_) ->
      if not (Node.legal (status_of_string from) (status_of_string to_)) then
        Alcotest.failf "node %d: illegal edge %s -> %s" node from to_)
    a;
  let has f = List.exists f a in
  Alcotest.(check bool) "a crash edge" true (has (fun (_, _, _, _, to_) -> to_ = "down"));
  Alcotest.(check bool) "a restart edge" true (has (fun (_, _, _, from, _) -> from = "down"));
  Alcotest.(check bool) "same edges on the same seed" true (a = b)

(* The swarm found four liveness wedges in the recovery/resync seam
   (DESIGN.md section 14), each fixed in node.ml. Each replay line
   below leaves a node unfinished at quiescence when its fix is
   reverted. *)
let wedge_replay line () =
  match Swarm.of_string line with
  | Error e -> Alcotest.failf "bad replay line %S: %s" line e
  | Ok c -> (
    match (Swarm.run_episode c).violation with
    | None -> ()
    | Some inv -> Alcotest.failf "%s: %s violated" line inv)

(* -------------------------- retry unit --------------------------- *)

let retry_backoff_schedule () =
  let engine = Engine.create () in
  let rng = Rng.create 1 in
  let times = ref [] in
  let exhausted = ref false in
  let policy =
    {
      Retry.base_delay = 1.0;
      multiplier = 2.0;
      max_delay = 4.0;
      jitter = 0.0;
      max_attempts = 5;
    }
  in
  let r =
    Retry.start ~engine ~rng ~policy
      ~attempt:(fun n -> times := (n, Engine.now engine) :: !times)
      ~on_exhausted:(fun () -> exhausted := true)
      ()
  in
  Alcotest.(check bool) "attempt 0 fires synchronously" true
    (List.mem_assoc 0 !times);
  ignore (Engine.run engine ());
  (* Delays 1, 2, 4, 4 (capped): attempts at t = 0, 1, 3, 7, 11. *)
  Alcotest.(check (list (pair int (float 1e-9))))
    "exponential, capped schedule"
    [ (0, 0.0); (1, 1.0); (2, 3.0); (3, 7.0); (4, 11.0) ]
    (List.rev !times);
  Alcotest.(check bool) "exhausted after max attempts" true !exhausted;
  Alcotest.(check bool) "inactive" false (Retry.active r)

let retry_cancel_stops () =
  let engine = Engine.create () in
  let rng = Rng.create 2 in
  let fired = ref 0 in
  let policy =
    {
      Retry.base_delay = 1.0;
      multiplier = 2.0;
      max_delay = 8.0;
      jitter = 0.0;
      max_attempts = 0 (* forever *);
    }
  in
  let r = Retry.start ~engine ~rng ~policy ~attempt:(fun _ -> incr fired) () in
  Engine.schedule engine ~delay:2.5 (fun () -> Retry.cancel r);
  ignore (Engine.run engine ());
  (* Attempts at t = 0, 1 fired; the t = 3 timer is dead. *)
  Alcotest.(check int) "stopped at cancel" 2 !fired;
  Alcotest.(check bool) "inactive" false (Retry.active r)

(* --------------------------- torture ----------------------------- *)

(* The torture sweeps run in bytes-on-the-wire mode: every message in
   every churn/catch-up path crosses the WAN as Codec bytes and is
   decoded at each hop, so any message a restart path can produce that
   the codec cannot carry shows up here as a divergence or hang. *)
let torture ~(seeds : int) ~(loss : float) () =
  for seed = 1 to seeds do
    let r =
      Harness.run
        {
          (base ~seed:(9_000 + seed) ~users:8 ~rounds:3
             ~attacks:
               [ Harness.Crash_churn
                   (Harness.Periodic
                      {
                        start = 4.0;
                        period = 10.0;
                        fraction = 0.3;
                        down_for = 8.0;
                        until = 60.0;
                      }) ]
             ~loss)
          with
          wire = `Bytes;
        }
    in
    Fun.protect
      ~finally:(fun () -> Harness.cleanup_stores r.harness)
      (fun () ->
        (* Nothing corrupts the wire here, so the verdict also holds
           every frame honest nodes produce to decoding at every hop. *)
        Expect.no_violations ~ctx:(Printf.sprintf "seed %d" seed) r)
  done

let suite =
  [
    ( "churn",
      [
        ts "one-shot crash rejoins" one_shot_rejoin;
        ts "correlated outage" correlated_outage;
        ts "periodic churn under loss" periodic_churn_under_loss;
        ts "deterministic per seed" deterministic_per_seed;
        ts "incarnation guards stale timers" incarnation_guards_timers;
        ts "truncated checkpoint recovered" truncated_store_recovered;
        Alcotest.test_case "adopt_chain only when idle" `Quick adopt_chain_only_when_idle;
        ts "lifecycle trace legal and deterministic" lifecycle_trace_deterministic;
        (* A straggler whose peers all stopped never gets a recovery
           quorum; abandon_recovery falls back to catch-up. *)
        ts "wedge: straggler stranded by stopped peers"
          (wedge_replay "seed=318696;users=8;rounds=3;st=partition,undecidable:0.15");
        (* Recovery votes (synthetic rounds above recovery_round_base)
           must not count as the network being ahead, or a whole
           cluster talks itself into resync. *)
        ts "wedge: recovery rounds poison the ahead-check"
          (wedge_replay "seed=38;users=8;rounds=3;st=partition,churn:0.1:8");
        (* A round the node has left can still time out (a pipelined
           previous round; before recovery ticks bumped the
           incarnation, also the round a tick dropped); its MaxSteps
           must not mark the node Hung (it used to, stopped nodes
           included). *)
        ts "wedge: stale round's timeout sets the node-wide hung flag"
          (wedge_replay "seed=5;users=8;rounds=3;st=partition,churn:0.2:8");
        (* Finality is local: restarted nodes hold the last final block
           as tentative. Recovery seeded from each node's own deepest
           final block split the cluster into committees that never
           reached quorum together; the seed now comes from the
           seed-refresh boundary below it. *)
        ts "wedge: recovery seeded by local finality"
          (wedge_replay "seed=777430;users=8;rounds=3;st=partition,churn:0.1:16");
        ts "wedge: local-finality recovery split, equivocators"
          (wedge_replay "seed=12067;users=8;rounds=4;st=equivocate:0.1,churn:0.2:16");
        (* A lone straggler whose peers all stopped, with no buffered
           traffic to show it, retried recovery ticks forever; a failed
           attempt now asks peers through catch-up. *)
        ts "wedge: failed recovery never asks stopped peers"
          (wedge_replay "seed=777430;users=11;rounds=3;st=partition,churn:0.1:16");
        Alcotest.test_case "retry backoff schedule" `Quick retry_backoff_schedule;
        Alcotest.test_case "retry cancel" `Quick retry_cancel_stops;
        ts "torture: lossless churn x100" (torture ~seeds:100 ~loss:0.0);
        ts "torture: churn under 5% loss x100" (torture ~seeds:100 ~loss:0.05);
      ] );
  ]
