(** Schedule exploration over a checker {!World}: FIFO replay, bounded
    DFS over delivery orders (partial-order reduced, digest-deduped),
    and seeded random-walk fuzzing. Every transition is followed by the
    {!Invariant} audit; violations freeze the schedule into a
    replayable trace. *)

type stats = {
  mutable transitions : int;
  mutable states : int;
  mutable schedules : int;
  mutable deduped : int;
  mutable truncated : int;
}

val fresh_stats : unit -> stats

type report = { violation : Algorand_core.Verdict.violation; trace : World.trace_event list }

type outcome = {
  stats : stats;
  violations : report list;
  complete : bool;  (** DFS only: the bounded space was exhausted *)
}

val run_fifo : ?max_depth:int -> World.t -> outcome
(** The canonical single schedule: deliver in send order, time out at
    quiescence. *)

val run_fuzz : ?max_depth:int -> rng:Algorand_sim.Rng.t -> World.t -> outcome
(** One random walk: pick any in-flight message uniformly. Run many
    worlds with [Rng.split] streams for a fuzzing campaign. *)

val run_replay : World.t -> World.trace_event list -> outcome
(** Re-execute a recorded (possibly shrunk) trace against a fresh
    world. Deliveries are matched by content (src, dst, step, value) so
    shrunk traces survive seq renumbering; unmatched entries are
    skipped. Stops at the first violation. *)

val explore_dfs :
  ?stop_on_violation:bool ->
  ?max_depth:int ->
  ?max_states:int ->
  World.t ->
  outcome
(** Bounded exhaustive enumeration of delivery orders from a started
    world. Branches only on {!World.frontier} (messages racing into the
    same node's counter for the same step - the partial-order
    reduction); dedups on {!World.digest}. [complete] is true iff the
    reduced space was exhausted within the depth/state budgets. *)
