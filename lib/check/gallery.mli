(** The adversary gallery: named attacks from the literature replayed
    against the small-world model checker, each with its own audit.
    Entries: Conti et al.'s "undecidable messages" (valid but
    unserviceable votes fed to an honest laggard across period
    boundaries) and Wang-style adaptive corruption racing the section
    11 ephemeral-key erasure. *)

type undecidable_report = {
  violations : Algorand_core.Verdict.violation list;
  stale_deliveries : int;  (** messages delivered past their step horizon *)
  decided : int;
  hung : int;
}

type adaptive_report = {
  violations : Algorand_core.Verdict.violation list;
  corrupted : int;  (** nodes corrupted on VRF reveal *)
  forged : int;  (** equivocating votes the adversary could sign *)
  retro_forged : int;
      (** forgeries for the revealing step itself - possible only with
          erasure off; must be 0 under the section 11 model *)
  decided : int;
}

val undecidable_run :
  ?config:World.config -> laggard:int -> unit -> undecidable_report
(** Withhold all traffic to [laggard] while the cluster runs ahead,
    then release the (by now stale) backlog; repeat to completion.
    Safety invariants are audited after every transition. *)

val adaptive_run :
  ?config:World.config ->
  seed:int ->
  budget:int ->
  erasure:bool ->
  unit ->
  adaptive_report
(** Seeded random schedule in which the adversary corrupts up to
    [budget] senders the moment their votes reveal their committee
    seats, then injects equivocating forgeries - for the next step
    only when [erasure] is on (the paper's model), or for the
    revealing step itself when off (the counterfactual). *)
