(* Model checker tests (lib/check): the DFS exhausts its reduced
   schedule space with zero violations on sound parameters, the
   negative control (step threshold below 1/2) is caught, shrunk to a
   small reproducer, and replays deterministically - the property that
   makes a checker trace a regression test. *)

module World = Algorand_check.World
module Schedule = Algorand_check.Schedule
module Shrink = Algorand_check.Shrink
module Invariant = Algorand_check.Invariant
module Rng = Algorand_sim.Rng

let t name f = Alcotest.test_case name `Quick f

let fresh config =
  let w = World.create config in
  World.start w;
  w

(* ------------------------- soundness runs ------------------------- *)

let dfs_exhausts_agree () =
  let config = { World.default_config with nodes = 3 } in
  let o = Schedule.explore_dfs ~max_depth:400 ~max_states:100_000 (fresh config) in
  Alcotest.(check bool) "space exhausted" true o.complete;
  Alcotest.(check int) "no violations" 0 (List.length o.violations);
  Alcotest.(check bool) "explored something" true (o.stats.states > 50);
  Alcotest.(check bool) "dedup engaged" true (o.stats.deduped > 0)

let dfs_exhausts_split_default_params () =
  (* Even with an equivocating proposer (split inputs), the paper's
     thresholds (T > 2/3) keep every delivery order safe. *)
  let config = { World.default_config with nodes = 3; scenario = World.Split } in
  let o = Schedule.explore_dfs ~max_depth:400 ~max_states:100_000 (fresh config) in
  Alcotest.(check bool) "space exhausted" true o.complete;
  Alcotest.(check int) "no violations" 0 (List.length o.violations)

let fuzz_clean_on_default_params () =
  let config = { World.default_config with nodes = 4; scenario = World.Split } in
  let base = Rng.create 7 in
  for k = 1 to 10 do
    let rng = Rng.split base (Printf.sprintf "walk-%d" k) in
    let o = Schedule.run_fuzz ~rng (fresh config) in
    Alcotest.(check int) (Printf.sprintf "walk %d clean" k) 0 (List.length o.violations)
  done

let fifo_deterministic () =
  let config = { World.default_config with nodes = 4 } in
  let run () =
    let w = fresh config in
    let o = Schedule.run_fifo w in
    (o.violations, World.render_trace (World.trace w))
  in
  let v1, tr1 = run () and v2, tr2 = run () in
  Alcotest.(check int) "no violations" 0 (List.length v1);
  Alcotest.(check int) "same violation count" (List.length v1) (List.length v2);
  Alcotest.(check string) "bit-identical schedules" tr1 tr2

(* ------------------------ negative control ------------------------ *)

let weak_config =
  {
    World.default_config with
    nodes = 4;
    scenario = World.Split;
    params = { World.default_config.params with t_step = 0.3 };
  }

let find_agreement_violation () =
  let o =
    Schedule.explore_dfs ~max_depth:400 ~max_states:100_000 (fresh weak_config)
  in
  match
    List.find_opt
      (fun (r : Schedule.report) -> String.equal r.violation.invariant "agreement")
      o.violations
  with
  | Some r -> r
  | None -> Alcotest.fail "weakened threshold produced no agreement violation"

let negative_control_caught () =
  let r = find_agreement_violation () in
  Alcotest.(check bool) "trace non-empty" true (r.trace <> [])

let shrinks_to_small_replayable_trace () =
  let r = find_agreement_violation () in
  let minimal =
    Shrink.minimize ~config:weak_config ~invariant:"agreement" r.trace
  in
  Alcotest.(check bool)
    (Printf.sprintf "shrunk %d -> %d <= 30 events" (List.length r.trace)
       (List.length minimal))
    true
    (List.length minimal <= 30);
  Alcotest.(check bool) "shrunk reproduces" true
    (Shrink.reproduces ~config:weak_config ~invariant:"agreement" minimal);
  (* 1-minimality: no single event can be dropped. *)
  List.iteri
    (fun i _ ->
      let cand = List.filteri (fun j _ -> j <> i) minimal in
      Alcotest.(check bool)
        (Printf.sprintf "dropping event %d breaks reproduction" i)
        false
        (Shrink.reproduces ~config:weak_config ~invariant:"agreement" cand))
    minimal

let replay_is_deterministic () =
  (* The shrunk counterexample replays byte-for-byte: two fresh worlds
     fed the same trace apply the same deliveries and report the same
     violation. *)
  let r = find_agreement_violation () in
  let minimal =
    Shrink.minimize ~config:weak_config ~invariant:"agreement" r.trace
  in
  let replay () =
    let w = World.create weak_config in
    World.start w;
    let o = Schedule.run_replay w minimal in
    let violations =
      List.map
        (fun (r : Schedule.report) ->
          Format.asprintf "%a" Algorand_core.Verdict.pp_violation r.violation)
        o.violations
    in
    (violations, World.render_trace (World.trace w))
  in
  let v1, tr1 = replay () and v2, tr2 = replay () in
  Alcotest.(check bool) "violation reproduced" true (v1 <> []);
  Alcotest.(check (list string)) "same violations" v1 v2;
  Alcotest.(check string) "bit-identical applied schedule" tr1 tr2

(* ----------------------- exploration support ---------------------- *)

let digest_is_order_independent () =
  (* Delivering the same two (non-crossing) votes in either order must
     collide in the state digest - the property DFS dedup rests on. *)
  let config = { World.default_config with nodes = 3 } in
  let w = fresh config in
  match World.frontier w with
  | p1 :: p2 :: _ ->
    let wa = World.clone w and wb = World.clone w in
    World.deliver wa p1;
    World.deliver wa p2;
    World.deliver wb p2;
    World.deliver wb p1;
    Alcotest.(check string) "digests collide" (World.digest wa) (World.digest wb)
  | _ -> Alcotest.fail "expected at least two frontier messages"

let clone_isolates_branches () =
  let config = { World.default_config with nodes = 3 } in
  let w = fresh config in
  let d0 = World.digest w in
  let w' = World.clone w in
  (match World.pending w' with
  | p :: _ -> World.deliver w' p
  | [] -> Alcotest.fail "no pending");
  Alcotest.(check string) "original untouched" d0 (World.digest w);
  Alcotest.(check bool) "branch diverged" true (World.digest w' <> d0)

let certificates_audited_on_decision () =
  (* A clean FIFO run decides everywhere; every decided node's
     certificate must validate under Core.Certificate. *)
  let config = { World.default_config with nodes = 4 } in
  let w = fresh config in
  ignore (Schedule.run_fifo w);
  Alcotest.(check bool) "all decided" true (World.all_done w);
  Array.iteri
    (fun i _ ->
      match Invariant.certificate_of w i with
      | Some (cert, _) ->
        Alcotest.(check bool)
          (Printf.sprintf "n%d certificate validates" i)
          true
          (Algorand_core.Certificate.validate ~params:config.params
             ~ctx:(World.validation_ctx w) cert
          = Ok ())
      | None -> Alcotest.failf "n%d has no certificate" i)
    (World.machines w)

let suite =
  [
    ( "check",
      [
        t "dfs exhausts agree scenario, no violations" dfs_exhausts_agree;
        t "dfs exhausts split scenario on paper thresholds"
          dfs_exhausts_split_default_params;
        t "fuzz walks clean on paper thresholds" fuzz_clean_on_default_params;
        t "fifo schedule is deterministic" fifo_deterministic;
        t "negative control: T < 1/2 violates agreement" negative_control_caught;
        t "counterexample shrinks to <= 30 events, 1-minimal"
          shrinks_to_small_replayable_trace;
        t "shrunk counterexample replays deterministically" replay_is_deterministic;
        t "world digest is delivery-order independent" digest_is_order_independent;
        t "clone isolates exploration branches" clone_isolates_branches;
        t "certificates audited on decision" certificates_audited_on_decision;
      ] );
  ]
