(** The vocabulary every invariant audit shares: one violation type,
    and one per-height tally of what the nodes adopted. The model
    checker's [World.decisions], each {!Harness} node's chain entry at
    a height, and a {!Population} round's materialized nodes all map
    onto the tally's input, so agreement and final-uniqueness mean the
    same thing in all three. The invariants themselves, with their
    exemptions, are tabled in DESIGN.md. *)

type violation = { invariant : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

type tally = {
  hashes : (string * int) list;
      (** distinct hashes, sorted, each with how many nodes hold it *)
  finals : string list;  (** distinct hashes some node holds as final, sorted *)
  missing : int;  (** nodes with nothing at this height *)
}

val tally : (string * bool) option array -> tally
(** One height across the nodes: node [i]'s (hash, final) or [None]. *)
