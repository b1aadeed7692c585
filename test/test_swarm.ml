(* Swarm tests (lib/check/swarm + gallery): the config codec
   round-trips, episodes and whole swarm runs are deterministic, a
   deliberately seeded ledger bug is found and shrunk to the same
   minimal composition twice, the adversary gallery audits pass, a
   six-family composition survives a full episode, and a banned flooder
   does not fail the convergence audit. *)

module Swarm = Algorand_check.Swarm
module World = Algorand_check.World
module Schedule = Algorand_check.Schedule
module Gallery = Algorand_check.Gallery
module Balances = Algorand_ledger.Balances
module Harness = Algorand_core.Harness
module Rng = Algorand_sim.Rng

let t name f = Alcotest.test_case name `Quick f

(* --------------------------- config codec -------------------------- *)

let codec_round_trip () =
  let rng = Rng.create 1234 in
  for _ = 1 to 200 do
    let c = Swarm.fresh_config rng in
    let c = if Rng.bool rng then Swarm.mutate rng c else c in
    let line = Swarm.to_string c in
    match Swarm.of_string line with
    | Ok c' -> Alcotest.(check string) "round-trip" line (Swarm.to_string c')
    | Error e -> Alcotest.failf "could not parse %S: %s" line e
  done

let codec_rejects_garbage () =
  List.iter
    (fun s ->
      match Swarm.of_string s with
      | Ok _ -> Alcotest.failf "parsed %S" s
      | Error _ -> ())
    [ ""; "seed=1"; "seed=x;users=8;rounds=3;st="; "seed=1;users=8;rounds=3;st=warp" ]

(* --------------------------- determinism --------------------------- *)

let episode_deterministic () =
  let c =
    {
      Swarm.seed = 4242;
      users = 9;
      rounds = 3;
      stressors = [ Swarm.Loss 0.05; Swarm.Dup 0.1; Swarm.Partition ];
    }
  in
  let a = Swarm.run_episode c and b = Swarm.run_episode c in
  Alcotest.(check (option string)) "verdict" a.violation b.violation;
  Alcotest.(check string) "detail" a.detail b.detail;
  Alcotest.(check int) "events" a.events b.events;
  Alcotest.(check (list string)) "fingerprint" a.fingerprint b.fingerprint

let swarm_run_deterministic () =
  let capture () =
    let lines = ref [] in
    let r =
      Swarm.run ~log:(fun l -> lines := l :: !lines) ~budget_sec:2 ~seed_stream:1 ()
    in
    (List.rev !lines, r)
  in
  let log_a, a = capture () in
  let log_b, b = capture () in
  Alcotest.(check (list string)) "episode logs" log_a log_b;
  Alcotest.(check string) "corpus digest" (Swarm.corpus_digest a) (Swarm.corpus_digest b);
  Alcotest.(check int) "episodes" a.episodes b.episodes;
  Alcotest.(check bool) "ran something" true (a.episodes > 0);
  Alcotest.(check bool) "corpus grew" true (List.length a.corpus > 0)

(* ------------------------- seeded violation ------------------------ *)

(* Reintroduce the PR 8 self-payment inflation bug behind its test
   hook: the swarm must catch it as a conservation violation and
   shrink it to the hostile-workload stressor alone - twice, with
   identical output. *)
let seeded_bug_shrinks_deterministically () =
  Fun.protect
    ~finally:(fun () -> Balances.chaos_selfpay_inflation := false)
    (fun () ->
      Balances.chaos_selfpay_inflation := true;
      let c =
        {
          Swarm.seed = 7;
          users = 9;
          rounds = 3;
          stressors =
            [
              Swarm.Loss 0.02;
              Swarm.Dup 0.05;
              Swarm.Hostile_txs { rate = 20.0; zipf = 1.1 };
            ];
        }
      in
      let ep = Swarm.run_episode c in
      Alcotest.(check (option string)) "found" (Some "conservation") ep.violation;
      let s1 = Swarm.shrink c ~invariant:"conservation" in
      let s2 = Swarm.shrink c ~invariant:"conservation" in
      Alcotest.(check string) "shrink deterministic" (Swarm.to_string s1)
        (Swarm.to_string s2);
      Alcotest.(check int) "minimal composition" 1 (List.length s1.stressors);
      (match s1.stressors with
      | [ Swarm.Hostile_txs _ ] -> ()
      | _ -> Alcotest.failf "unexpected shrink %s" (Swarm.to_string s1));
      let r1 = Swarm.reproducer s1 ~invariant:"conservation" in
      let r2 = Swarm.reproducer s2 ~invariant:"conservation" in
      Alcotest.(check string) "reproducer deterministic" r1 r2;
      Alcotest.(check bool) "replayable one-liner" true
        (String.length r1 > 0
        && (not (String.contains r1 '\n'))
        && String.length r1 >= 10
        && String.equal (String.sub r1 0 10) "REPRODUCE:"))

(* ------------------------- adversary gallery ----------------------- *)

let gallery_undecidable_safe () =
  let r = Gallery.undecidable_run ~laggard:0 () in
  Alcotest.(check int) "no violations" 0 (List.length r.violations);
  Alcotest.(check bool) "stale traffic exercised" true (r.stale_deliveries > 0);
  Alcotest.(check int) "nobody wedged" 0 r.hung

let gallery_adaptive_erasure_safe () =
  let forged = ref 0 in
  for seed = 1 to 3 do
    let r = Gallery.adaptive_run ~seed ~budget:2 ~erasure:true () in
    Alcotest.(check int) "no violations" 0 (List.length r.violations);
    Alcotest.(check int) "no retro forgeries under erasure" 0 r.retro_forged;
    forged := !forged + r.forged
  done;
  Alcotest.(check bool) "adversary exercised" true (!forged > 0)

(* ----------------------- composition coverage ---------------------- *)

let six_families_compose () =
  let c =
    {
      Swarm.seed = 99;
      users = 9;
      rounds = 3;
      stressors =
        [
          Swarm.Churn { fraction = 0.1; down_for = 8.0 };
          Swarm.Loss 0.02;
          Swarm.Dup 0.05;
          Swarm.Partition;
          Swarm.Bytes_wire;
          Swarm.Hostile_txs { rate = 2.0; zipf = 0.0 };
        ];
    }
  in
  Alcotest.(check int) "six distinct families" 6 (Swarm.families c.stressors);
  let ep = Swarm.run_episode c in
  Alcotest.(check (option string)) "no violation" None ep.violation;
  Alcotest.(check bool) "coverage observed" true (List.length ep.fingerprint > 0)

(* --------------------- flooders and convergence -------------------- *)

(* A flooder that a crash restarts cannot catch up: its peers banned it
   (section 8.4 gossip limits), so it stays behind the majority chain.
   The convergence audit exempts the nodes a Flood chose, and only
   those. This composition once reported node 5 as divergent. *)
let flooder_exempt_from_convergence () =
  let line =
    "seed=814049;users=9;rounds=3;st=flood:0.2:200,loss:0.05,dup:0.1,hostile:2:0,\
     equivocate:0.2,churn:0.1:8"
  in
  let c =
    match Swarm.of_string line with Ok c -> c | Error e -> Alcotest.failf "parse: %s" e
  in
  let r = Harness.run (Swarm.to_harness c) in
  Harness.cleanup_stores r.harness;
  Alcotest.(check bool) "node 5 is a flooder" true (List.mem 5 r.harness.flooders);
  Alcotest.(check bool) "node 5 diverged" true (List.mem 5 r.churn.divergent_restarted);
  Alcotest.(check int) "the verdict exempts it" 0 (List.length (Harness.violations r));
  let ep = Swarm.run_episode c in
  Alcotest.(check (option string)) "verdict ok" None ep.violation

(* ------------------------- one vocabulary -------------------------- *)

(* The model checker's world and the harness name an invariant the
   same way: a walk of the negative-control world (split inputs, both
   thresholds at 0.2) that ends with two FINAL values, and a harness
   result carrying a double-final round, both report final-uniqueness;
   a world fork and a fork in an attack-free harness run both report
   agreement. *)
let shared_invariant_names () =
  let config =
    {
      World.default_config with
      nodes = 4;
      scenario = World.Split;
      params = { World.default_config.params with t_step = 0.2; t_final = 0.2 };
    }
  in
  let base = Rng.create 0x5eed in
  let world_names =
    List.concat_map
      (fun k ->
        let w = World.create config in
        World.start w;
        let o = Schedule.run_fuzz ~rng:(Rng.split base (Printf.sprintf "walk-%d" k)) w in
        List.map (fun (r : Schedule.report) -> r.violation.invariant) o.violations)
      (List.init 20 (fun k -> k + 1))
  in
  let r = Harness.run { Harness.default with users = 4; rounds = 1; rng_seed = 5 } in
  let first (r : Harness.result) =
    match Harness.violations r with v :: _ -> v.invariant | [] -> "none"
  in
  let double_final = first { r with safety = { r.safety with double_final = [ 1 ] } } in
  let forked = first { r with safety = { r.safety with forked_rounds = [ 1 ] } } in
  Alcotest.(check string) "harness double final" "final-uniqueness" double_final;
  Alcotest.(check string) "harness fork" "agreement" forked;
  Alcotest.(check bool) "world double final" true (List.mem double_final world_names);
  Alcotest.(check bool) "world fork" true (List.mem forked world_names)

let suite =
  [
    ( "swarm",
        [
        t "codec round-trip" codec_round_trip;
        t "codec rejects garbage" codec_rejects_garbage;
        t "episode deterministic" episode_deterministic;
        t "swarm run deterministic" swarm_run_deterministic;
        t "seeded bug shrinks deterministically" seeded_bug_shrinks_deterministically;
        t "gallery: undecidable messages safe" gallery_undecidable_safe;
        t "gallery: adaptive corruption safe under erasure" gallery_adaptive_erasure_safe;
        t "six stressor families compose" six_families_compose;
        t "flooders exempt from convergence" flooder_exempt_from_convergence;
        t "world and harness share invariant names" shared_invariant_names;
      ] );
  ]
