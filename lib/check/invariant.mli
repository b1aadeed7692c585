(** Invariant audits over a checker world: the machine-checked versions
    of the paper's claims (agreement, final uniqueness, certificate
    soundness/uniqueness via [Core.Certificate], bounded liveness). *)

module Certificate = Algorand_core.Certificate
module Verdict = Algorand_core.Verdict

val agreement : World.t -> Verdict.violation list
(** No two nodes decided different block hashes this round. *)

val no_conflicting_finals : World.t -> Verdict.violation list
val certificate_soundness : World.t -> Verdict.violation list
(** Every decided node's assembled certificate re-validates (Algorithm 6
    on every vote + quorum) under the world's own params. *)

val certificate_uniqueness : World.t -> Verdict.violation list
val bounded_liveness : World.t -> Verdict.violation list
(** Only meaningful at schedule exhaustion: every node decided, none
    hung. *)

val certificate_of : World.t -> int -> (Certificate.t * bool) option
(** Node [i]'s certificate for its decision (deduped last-bin-step
    votes), paired with its finality flag. *)

val check_step : World.t -> Verdict.violation list
(** Safety invariants; evaluate after every transition. *)

val check_leaf : World.t -> Verdict.violation list
(** [check_step] plus bounded liveness; evaluate at terminal states. *)
