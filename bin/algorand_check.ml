(* algorand-check: schedule-exploring model checker for BA*.

   The simulator exercises one delivery schedule per seed; this tool
   drives small BA* clusters through systematically (DFS with
   partial-order reduction) or randomly (seeded walks) explored
   delivery schedules, audits the paper's invariants after every
   transition, and shrinks any violation to a minimal replayable trace.

     algorand-check dfs  --nodes 3 --depth 300
     algorand-check fuzz --nodes 4 --seeds 50
     algorand-check fuzz --scenario split --t-step 0.3   # negative control
     algorand-check fifo --nodes 4
     algorand-check sim  --seeds 10   # whole-harness schedule fuzz
     algorand-check fuzz-wire --mutations 10000   # codec mutation fuzz
     algorand-check swarm --budget-sec 30        # coverage-guided stressor swarm
     algorand-check swarm --replay 'seed=..;users=..;rounds=..;st=..'
     algorand-check gallery                      # literature adversary gallery

   Each subcommand takes only the flags it reads. Every failure path
   prints a single-line machine-readable REPRODUCE: command before
   exiting nonzero. *)

open Cmdliner
module World = Algorand_check.World
module Schedule = Algorand_check.Schedule
module Shrink = Algorand_check.Shrink
module Swarm = Algorand_check.Swarm
module Gallery = Algorand_check.Gallery
module Params = Algorand_ba.Params
module Rng = Algorand_sim.Rng
module Harness = Algorand_core.Harness
module Engine = Algorand_sim.Engine
module Adversary = Algorand_netsim.Adversary

let row label value = Printf.printf "  %-18s %s\n" label value
let rowi label value = row label (string_of_int value)

let print_stats (s : Schedule.stats) =
  rowi "states explored" s.states;
  rowi "transitions" s.transitions;
  rowi "schedules run" s.schedules;
  rowi "deduped" s.deduped;
  rowi "truncated" s.truncated

let print_violations ~(config : World.config) ~(shrink : bool)
    (violations : Schedule.report list) : unit =
  rowi "violations" (List.length violations);
  List.iter
    (fun (r : Schedule.report) ->
      print_newline ();
      if shrink then begin
        let minimal =
          Shrink.minimize ~config ~invariant:r.violation.invariant r.trace
        in
        Printf.printf "%s\n" (Shrink.render ~invariant:r.violation minimal)
      end
      else Printf.printf "%s\n" (Shrink.render ~invariant:r.violation r.trace))
    violations

(* ------------------------- world modes ---------------------------- *)

(* One world subcommand: build the cluster, let [explore] walk its
   schedules, report, and on a violation print the REPRODUCE line with
   this subcommand's own [flags]. *)
let run_world ~name ~flags (nodes, scenario, t_step, t_final, shrink) explore =
  let params =
    {
      World.default_config.params with
      t_step = Option.value t_step ~default:World.default_config.params.t_step;
      t_final = Option.value t_final ~default:World.default_config.params.t_final;
    }
  in
  let config = { World.default_config with nodes; scenario; params } in
  let fresh () =
    let w = World.create config in
    World.start w;
    w
  in
  let scenario = match scenario with World.Agree -> "agree" | World.Split -> "split" in
  Printf.printf "algorand-check %s nodes=%d scenario=%s t_step=%.3f t_final=%.3f\n" name
    nodes scenario params.t_step params.t_final;
  let outcome : Schedule.outcome = explore fresh in
  print_stats outcome.stats;
  print_violations ~config ~shrink outcome.violations;
  if outcome.violations <> [] then begin
    Printf.printf "REPRODUCE: algorand-check %s --nodes %d --scenario %s%s --t-step %g --t-final %g\n"
      name nodes scenario flags params.t_step params.t_final;
    exit 1
  end

let dfs ~depth ~max_states fresh =
  let o = Schedule.explore_dfs ~max_depth:depth ~max_states (fresh ()) in
  row "space exhausted" (if o.Schedule.complete then "yes" else "no");
  o

let fuzz ~depth ~seeds fresh =
  let base = Rng.create 0x5eed in
  let stats = Schedule.fresh_stats () in
  let violations = ref [] in
  for k = 1 to seeds do
    if !violations = [] then begin
      let rng = Rng.split base (Printf.sprintf "walk-%d" k) in
      let o = Schedule.run_fuzz ~max_depth:depth ~rng (fresh ()) in
      stats.transitions <- stats.transitions + o.stats.transitions;
      stats.states <- stats.states + o.stats.states;
      stats.schedules <- stats.schedules + o.stats.schedules;
      stats.truncated <- stats.truncated + o.stats.truncated;
      violations := !violations @ o.violations
    end
  done;
  { Schedule.stats; violations = !violations; complete = false }

(* ------------------------- harness mode --------------------------- *)

(* Whole-simulator schedule fuzz: run the full deployment (gossip, WAN,
   blocks) per seed with (a) the engine's tie-break hook shuffling
   simultaneous events and (b) a lossless reordering adversary jittering
   every message, then judge it by the harness's verdict. *)
let run_sim ~nodes ~seeds ~seed_base =
  Printf.printf "algorand-check sim users=%d seeds=%d seed-base=%d\n" nodes seeds
    seed_base;
  let bad = ref [] in
  for k = seed_base to seed_base + seeds - 1 do
    let config =
      {
        Harness.default with
        users = nodes;
        rounds = 1;
        block_bytes = 20_000;
        tx_rate_per_s = 0.0;
        rng_seed = k;
        max_sim_time = 600.0;
      }
    in
    let h = Harness.build config in
    let rng = Rng.split (Rng.create k) "engine-shuffle" in
    Engine.set_reorder_hook h.engine
      (Some
         (fun batch ->
           Rng.shuffle rng batch;
           batch));
    Algorand_netsim.Network.set_adversary h.network
      (Adversary.reorder ~rng:(Rng.split (Rng.create k) "net-jitter")
         ~window:(config.params.lambda_step /. 4.0));
    match Harness.violations (Harness.drive h) with
    | [] -> ()
    | vs ->
      bad := !bad @ [ k ];
      List.iter
        (fun v -> Format.printf "  seed %d: %a@." k Algorand_core.Verdict.pp_violation v)
        vs
  done;
  rowi "seeds run" seeds;
  rowi "violating seeds" (List.length !bad);
  if !bad <> [] then begin
    List.iter
      (fun k ->
        Printf.printf "REPRODUCE: algorand-check sim --nodes %d --seeds 1 --seed-base %d\n"
          nodes k)
      !bad;
    exit 1
  end

(* ------------------------- fuzz-wire mode ------------------------- *)

(* Codec mutation fuzz: mutate valid encodings and hold the decoder to
   its contract (no exception, bounded allocation, self-consistency).
   Any failure prints a shrunk hex reproducer and exits nonzero. *)
let run_fuzz_wire ~seed ~mutations =
  Printf.printf "algorand-check fuzz-wire seed=%d mutations=%d\n" seed mutations;
  let report = Algorand_check.Wirefuzz.run ~seed ~mutations () in
  rowi "mutations" report.mutations;
  rowi "rejected" report.rejected;
  rowi "still decoded" report.decoded;
  rowi "failures" (List.length report.failures);
  List.iter
    (fun (f : Algorand_check.Wirefuzz.failure) ->
      Printf.printf "\n  FAIL via %s: %s\n  frame (%d bytes): %s\n" f.mutation
        f.reason f.frame_len f.frame_hex)
    report.failures;
  (* Transport layer below the codec: frame reassembly under
     adversarial segmentation and stream corruption. *)
  let streams = max 100 (mutations / 10) in
  let rr = Algorand_check.Wirefuzz.reassembly_run ~seed ~streams () in
  rowi "reassembly streams" rr.streams;
  rowi "clean streams" rr.clean_streams;
  rowi "poisoned streams" rr.poisoned_streams;
  rowi "reassembly failures" (List.length rr.reassembly_failures);
  List.iter
    (fun (f : Algorand_check.Wirefuzz.failure) ->
      Printf.printf "\n  FAIL via %s: %s\n  stream (%d bytes): %s\n" f.mutation
        f.reason f.frame_len f.frame_hex)
    rr.reassembly_failures;
  if report.failures <> [] || rr.reassembly_failures <> [] then begin
    Printf.printf
      "REPRODUCE: algorand-check fuzz-wire --seed %d --mutations %d\n" seed
      mutations;
    exit 1
  end

(* --------------------------- swarm mode ---------------------------- *)

(* Coverage-guided stressor swarm (lib/check/swarm.ml): deterministic
   per (budget, seed-stream) pair, so two identical invocations print
   identical episode logs and corpus digests. *)
let run_swarm ~budget_sec ~seed_stream ~corpus_out ~replay =
  match replay with
  | Some line -> (
    match Swarm.of_string line with
    | Error e ->
      Printf.printf "swarm: bad replay config: %s\n" e;
      exit 2
    | Ok config ->
      Printf.printf "algorand-check swarm replay cfg='%s'\n" (Swarm.to_string config);
      let e = Swarm.run_episode config in
      rowi "events" e.events;
      rowi "coverage items" (List.length e.fingerprint);
      (match e.violation with
      | None -> row "verdict" "ok"
      | Some invariant ->
        row "verdict" (Printf.sprintf "VIOLATION:%s (%s)" invariant e.detail);
        print_endline (Swarm.reproducer config ~invariant);
        exit 1))
  | None ->
    Printf.printf "algorand-check swarm budget-sec=%d seed-stream=%d\n" budget_sec
      seed_stream;
    let r = Swarm.run ~log:print_endline ~budget_sec ~seed_stream () in
    rowi "episodes" r.episodes;
    rowi "events" r.total_events;
    rowi "corpus size" (List.length r.corpus);
    rowi "coverage items" r.coverage_items;
    rowi "max families composed" r.max_families;
    row "corpus digest" (Swarm.corpus_digest r);
    (match corpus_out with
    | None -> ()
    | Some path ->
      (* The corpus as a JSON array (config strings are plain
         [a-z0-9=;:,.] so no escaping is needed) for jq validation. *)
      let oc = open_out path in
      output_string oc "[\n";
      List.iteri
        (fun i (e : Swarm.corpus_entry) ->
          Printf.fprintf oc "  {\"config\": \"%s\", \"coverage\": \"%s\", \"novel\": %d}%s\n"
            (Swarm.to_string e.entry_config)
            e.coverage e.novel
            (if i = List.length r.corpus - 1 then "" else ","))
        r.corpus;
      output_string oc "]\n";
      close_out oc;
      Printf.printf "corpus: wrote %s\n" path);
    if r.found <> [] then begin
      rowi "violations" (List.length r.found);
      List.iter
        (fun (c, invariant, detail) ->
          Printf.printf "  %s: %s\n" invariant detail;
          print_endline (Swarm.reproducer c ~invariant))
        r.found;
      exit 1
    end

let swarm_cmd =
  let budget_sec =
    Arg.(
      value & opt int 30
      & info [ "budget-sec" ]
          ~doc:
            "Episode budget, in simulated-event-seconds (deterministic: counted \
             in engine events at a fixed nominal rate, not wall clock).")
  in
  let seed_stream =
    Arg.(
      value & opt int 0
      & info [ "seed-stream" ] ~doc:"Which deterministic seed stream to run.")
  in
  let corpus_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE" ~doc:"Write the coverage corpus as JSON.")
  in
  let replay =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"CFG"
          ~doc:"Replay one episode config (the REPRODUCE: line payload).")
  in
  let go budget_sec seed_stream corpus_out replay =
    run_swarm ~budget_sec ~seed_stream ~corpus_out ~replay
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Coverage-guided simulation swarm: compose every fault, attack and \
          fuzzer; audit all invariants; shrink violations to one-line \
          reproducers")
    Term.(const go $ budget_sec $ seed_stream $ corpus_out $ replay)

(* -------------------------- gallery mode --------------------------- *)

(* Literature adversary gallery (lib/check/gallery.ml) against the
   small-world model checker. *)
let run_gallery ~seeds =
  Printf.printf "algorand-check gallery seeds=%d\n" seeds;
  let failed = ref false in
  let u = Gallery.undecidable_run ~laggard:0 () in
  Printf.printf "undecidable-messages: stale=%d decided=%d hung=%d violations=%d\n"
    u.stale_deliveries u.decided u.hung (List.length u.violations);
  List.iter
    (fun (v : Algorand_core.Verdict.violation) ->
      Printf.printf "  VIOLATION %s: %s\n" v.invariant v.detail;
      failed := true)
    u.violations;
  for seed = 1 to seeds do
    let a = Gallery.adaptive_run ~seed ~budget:2 ~erasure:true () in
    Printf.printf
      "adaptive-corruption seed=%d erasure=on: corrupted=%d forged=%d retro=%d \
       decided=%d violations=%d\n"
      seed a.corrupted a.forged a.retro_forged a.decided (List.length a.violations);
    if a.retro_forged > 0 then begin
      Printf.printf "  VIOLATION erasure: retro-forged %d votes\n" a.retro_forged;
      failed := true
    end;
    List.iter
      (fun (v : Algorand_core.Verdict.violation) ->
        Printf.printf "  VIOLATION %s: %s\n" v.invariant v.detail;
        failed := true)
      a.violations
  done;
  if !failed then begin
    Printf.printf "REPRODUCE: algorand-check gallery --seeds %d\n" seeds;
    exit 1
  end

let gallery_cmd =
  let seeds =
    Arg.(value & opt int 5 & info [ "seeds" ] ~doc:"Adaptive-corruption schedules to run.")
  in
  Cmd.v
    (Cmd.info "gallery"
       ~doc:
         "Literature adversary gallery: undecidable messages (Conti et al.) and \
          adaptive corruption racing ephemeral-key erasure (Wang)")
    Term.(const (fun seeds -> run_gallery ~seeds) $ seeds)

(* ----------------------------- CLI -------------------------------- *)

let nodes = Arg.(value & opt int 4 & info [ "nodes" ] ~doc:"Cluster size.")

let depth =
  Arg.(value & opt int 400 & info [ "depth" ] ~doc:"Max transitions per schedule.")

(* The flags every world subcommand reads. *)
let world =
  let scenario =
    Arg.(
      value
      & opt (enum [ ("agree", World.Agree); ("split", World.Split) ]) World.Agree
      & info [ "scenario" ]
          ~doc:"Inputs: agree (one proposed block) or split (equivocating proposer).")
  in
  let t_step =
    Arg.(value & opt (some float) None & info [ "t-step" ] ~doc:"Override the step vote threshold fraction T (negative control: set below 0.5).")
  in
  let t_final =
    Arg.(value & opt (some float) None & info [ "t-final" ] ~doc:"Override the final-step threshold fraction.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report raw violation traces without shrinking.")
  in
  Term.(
    const (fun nodes scenario t_step t_final no_shrink ->
        (nodes, scenario, t_step, t_final, not no_shrink))
    $ nodes $ scenario $ t_step $ t_final $ no_shrink)

let dfs_cmd =
  let max_states =
    Arg.(value & opt int 200_000 & info [ "max-states" ] ~doc:"DFS state budget.")
  in
  let go w depth max_states =
    run_world ~name:"dfs"
      ~flags:(Printf.sprintf " --depth %d --max-states %d" depth max_states)
      w (dfs ~depth ~max_states)
  in
  Cmd.v
    (Cmd.info "dfs" ~doc:"Exhaustive DFS over delivery schedules (partial-order reduced)")
    Term.(const go $ world $ depth $ max_states)

let fuzz_cmd =
  let seeds = Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Random walks to run.") in
  let go w depth seeds =
    run_world ~name:"fuzz"
      ~flags:(Printf.sprintf " --depth %d --seeds %d" depth seeds)
      w (fuzz ~depth ~seeds)
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc:"Seeded random walks over delivery schedules")
    Term.(const go $ world $ depth $ seeds)

let fifo_cmd =
  let go w depth =
    run_world ~name:"fifo" ~flags:(Printf.sprintf " --depth %d" depth) w (fun fresh ->
        Schedule.run_fifo ~max_depth:depth (fresh ()))
  in
  Cmd.v
    (Cmd.info "fifo" ~doc:"The one first-in first-out delivery schedule")
    Term.(const go $ world $ depth)

let sim_cmd =
  let seeds = Arg.(value & opt int 20 & info [ "seeds" ] ~doc:"Harness runs.") in
  let seed_base =
    Arg.(value & opt int 1 & info [ "seed-base" ] ~doc:"First seed of the range.")
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Whole-harness schedule fuzz: shuffled event ties and jittered \
          delivery, each run judged by the harness's verdict")
    Term.(
      const (fun nodes seeds seed_base -> run_sim ~nodes ~seeds ~seed_base)
      $ nodes $ seeds $ seed_base)

let fuzz_wire_cmd =
  let mutations =
    Arg.(value & opt int 10_000 & info [ "mutations" ] ~doc:"Mutant frames to run.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fuzzer seed.") in
  Cmd.v
    (Cmd.info "fuzz-wire"
       ~doc:"Codec mutation fuzz and frame reassembly under hostile segmentation")
    Term.(
      const (fun seed mutations -> run_fuzz_wire ~seed ~mutations) $ seed $ mutations)

let cmd =
  Cmd.group
    (Cmd.info "algorand-check"
       ~doc:"Schedule-exploring model checker for BA* with invariant audits")
    [ dfs_cmd; fuzz_cmd; fifo_cmd; sim_cmd; fuzz_wire_cmd; swarm_cmd; gallery_cmd ]

let () = exit (Cmd.eval cmd)
