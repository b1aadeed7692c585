(** Counterexample shrinking: greedy delta debugging of a violating
    schedule against a replay oracle, to a 1-minimal deterministic
    reproducer. *)

val reproduces :
  config:World.config -> invariant:string -> World.trace_event list -> bool
(** Replay the trace against a fresh world; true iff the named
    invariant fires again. *)

val minimize_seq : ?max_passes:int -> keep:('a list -> bool) -> 'a list -> 'a list
(** Generic greedy delta debugging: repeated single-element deletion
    passes until no deletion preserves [keep] (1-minimal). Returns the
    input unchanged if [keep] does not hold on it. *)

val minimize :
  ?max_passes:int ->
  config:World.config ->
  invariant:string ->
  World.trace_event list ->
  World.trace_event list
(** Repeated single-event deletion passes until no deletion preserves
    the violation (1-minimal). Returns the input unchanged if it does
    not reproduce in the first place. *)

val render : invariant:Algorand_core.Verdict.violation -> World.trace_event list -> string
