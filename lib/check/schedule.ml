(* Schedule exploration strategies over a checker World.

   The simulator yields exactly one delivery schedule per seed; BA*'s
   safety claims quantify over *all* schedules. Three strategies close
   the gap at small scale:

   - [run_fifo]: the canonical single schedule (delivery in send
     order, timeouts at quiescence) - a baseline and determinism probe;
   - [explore_dfs]: bounded exhaustive enumeration of delivery orders
     with a partial-order reduction (branch only on the relative order
     of messages racing into the same node's counter for the same step;
     everything else commutes and is kept in canonical order) and
     visited-state dedup on World.digest (vote *sets*, not sequences);
   - [run_fuzz]: a seeded random walk that picks any in-flight message
     uniformly, complementing the DFS beyond the reduction and the
     depth bound.

   Every transition is followed by the invariant audit; a violation
   freezes the schedule into a replayable trace for the shrinker. *)

type stats = {
  mutable transitions : int;  (** world transitions applied *)
  mutable states : int;  (** distinct states visited (DFS) / steps (walks) *)
  mutable schedules : int;  (** maximal schedules completed *)
  mutable deduped : int;  (** DFS branches folded by the state digest *)
  mutable truncated : int;  (** paths cut by depth or state budget *)
}

let fresh_stats () = { transitions = 0; states = 0; schedules = 0; deduped = 0; truncated = 0 }

type report = { violation : Algorand_core.Verdict.violation; trace : World.trace_event list }

type outcome = {
  stats : stats;
  violations : report list;
  complete : bool;  (** DFS only: the bounded space was exhausted *)
}

(* Backstop on lockstep timeout rounds: BA* hangs by MaxSteps on its
   own; this only guards the checker against a cycling regression. *)
let timer_cap (w : World.t) : int = ((World.config w).params.max_steps * 4) + 16

let reports_of (w : World.t) (vs : Algorand_core.Verdict.violation list) : report list =
  let trace = World.trace w in
  List.map (fun violation -> { violation; trace }) vs

(* ------------------------- linear walks --------------------------- *)

(* One maximal schedule driven by [pick]; returns the violations hit.
   The walk ends at the first violation, at schedule exhaustion, or at
   the depth bound. *)
let drive ~(pick : World.t -> World.pending option) ~(max_depth : int) (stats : stats)
    (w : World.t) : report list =
  let rec go depth =
    stats.states <- stats.states + 1;
    match Invariant.check_step w with
    | _ :: _ as vs ->
      stats.schedules <- stats.schedules + 1;
      reports_of w vs
    | [] ->
      if World.all_done w then begin
        stats.schedules <- stats.schedules + 1;
        reports_of w (Invariant.bounded_liveness w)
      end
      else if depth >= max_depth then begin
        stats.truncated <- stats.truncated + 1;
        stats.schedules <- stats.schedules + 1;
        []
      end
      else begin
        match World.pending w with
        | [] ->
          if World.timers_armed w && World.timer_rounds w < timer_cap w then begin
            World.fire_timers w;
            stats.transitions <- stats.transitions + 1;
            go (depth + 1)
          end
          else begin
            (* Stuck: nothing in flight, nothing to time out. *)
            stats.schedules <- stats.schedules + 1;
            reports_of w (Invariant.bounded_liveness w)
          end
        | _ -> (
          match pick w with
          | Some p ->
            World.deliver w p;
            stats.transitions <- stats.transitions + 1;
            go (depth + 1)
          | None ->
            stats.schedules <- stats.schedules + 1;
            reports_of w (Invariant.bounded_liveness w))
      end
  in
  go 0

let run_fifo ?(max_depth = 10_000) (w : World.t) : outcome =
  let stats = fresh_stats () in
  let violations =
    drive ~pick:(fun w -> match World.pending w with p :: _ -> Some p | [] -> None)
      ~max_depth stats w
  in
  { stats; violations; complete = false }

let run_fuzz ?(max_depth = 10_000) ~(rng : Algorand_sim.Rng.t) (w : World.t) : outcome =
  let stats = fresh_stats () in
  let pick w =
    match World.pending w with
    | [] -> None
    | ps -> Some (List.nth ps (Algorand_sim.Rng.int rng (List.length ps)))
  in
  let violations = drive ~pick ~max_depth stats w in
  { stats; violations; complete = false }

(* --------------------------- replay ------------------------------- *)

(* Re-execute a recorded (possibly shrunk) trace. Deliveries are
   matched by content, so traces survive seq renumbering after events
   are dropped; a trace entry with no matching in-flight message is
   skipped. Stops at the first violation. *)
let run_replay (w : World.t) (trace : World.trace_event list) : outcome =
  let stats = fresh_stats () in
  let rec go = function
    | [] ->
      stats.schedules <- stats.schedules + 1;
      if World.all_done w then reports_of w (Invariant.bounded_liveness w) else []
    | e :: rest ->
      let applied =
        match e with
        | World.Deliver { src; dst; step; value; _ } ->
          World.deliver_matching w ~src ~dst ~step ~value
        | World.Timer_round ->
          if World.timers_armed w then begin
            World.fire_timers w;
            true
          end
          else false
      in
      if not applied then go rest
      else begin
        stats.transitions <- stats.transitions + 1;
        match Invariant.check_step w with
        | _ :: _ as vs ->
          stats.schedules <- stats.schedules + 1;
          reports_of w vs
        | [] -> go rest
      end
  in
  let violations = go trace in
  { stats; violations; complete = false }

(* ----------------------------- DFS -------------------------------- *)

exception Stop_search

let explore_dfs ?(stop_on_violation = true) ?(max_depth = 400)
    ?(max_states = 200_000) (root : World.t) : outcome =
  let stats = fresh_stats () in
  let violations = ref [] in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let budget_cut = ref false in
  let rec go (w : World.t) (depth : int) : unit =
    stats.states <- stats.states + 1;
    match Invariant.check_step w with
    | _ :: _ as vs ->
      violations := !violations @ reports_of w vs;
      stats.schedules <- stats.schedules + 1;
      if stop_on_violation then raise Stop_search
    | [] ->
      if World.all_done w then begin
        stats.schedules <- stats.schedules + 1;
        match Invariant.bounded_liveness w with
        | [] -> ()
        | vs ->
          violations := !violations @ reports_of w vs;
          if stop_on_violation then raise Stop_search
      end
      else if depth >= max_depth then begin
        stats.truncated <- stats.truncated + 1;
        stats.schedules <- stats.schedules + 1
      end
      else begin
        let branches =
          match World.frontier w with
          | [] ->
            if World.timers_armed w && World.timer_rounds w < timer_cap w then
              [ `Timers ]
            else [ `Stuck ]
          | ps -> List.map (fun p -> `Deliver p) ps
        in
        match branches with
        | [ `Stuck ] ->
          stats.schedules <- stats.schedules + 1;
          (match Invariant.bounded_liveness w with
          | [] -> ()
          | vs ->
            violations := !violations @ reports_of w vs;
            if stop_on_violation then raise Stop_search)
        | bs ->
          List.iter
            (fun b ->
              if stats.states >= max_states then budget_cut := true
              else begin
                let w' = World.clone w in
                (match b with
                | `Timers -> World.fire_timers w'
                | `Deliver (p : World.pending) ->
                  if not (World.deliver_seq w' p.seq) then
                    invalid_arg "Schedule.explore_dfs: frontier message vanished"
                | `Stuck -> assert false);
                stats.transitions <- stats.transitions + 1;
                let d = World.digest w' in
                if Hashtbl.mem visited d then stats.deduped <- stats.deduped + 1
                else begin
                  Hashtbl.replace visited d ();
                  go w' (depth + 1)
                end
              end)
            bs
      end
  in
  let stopped_early = ref false in
  (try go root 0 with Stop_search -> stopped_early := true);
  if !budget_cut then stats.truncated <- stats.truncated + 1;
  {
    stats;
    violations = !violations;
    complete = (not !budget_cut) && stats.truncated = 0 && not !stopped_early;
  }
