(** The simulation swarm: one coverage-guided torture entrypoint that
    composes every fault injector, attack and fuzzer - churn, loss,
    duplication, flooding, corruption, equivocation, partitions, the
    bytes wire, hostile workloads, undecidable messages, adaptive
    corruption - per episode, audits the full invariant set, fingerprints
    coverage via the observability registry, breeds a corpus of novel
    compositions, and shrinks violations to one-line reproducers.
    Deterministic end to end: the budget is accounted in simulated
    engine events, never wall clock. *)

type stressor =
  | Churn of { fraction : float; down_for : float }
  | Loss of float
  | Dup of float
  | Flood of { flooders : float; rate : float }
  | Corrupt of float
  | Equivocate of float
  | Partition
  | Bytes_wire
  | Hostile_txs of { rate : float; zipf : float }
  | Undecidable of float
  | Adaptive of float

val family : stressor -> string
val families : stressor list -> int
(** Distinct stressor families in a composition. *)

type config = {
  seed : int;
  users : int;
  rounds : int;
  stressors : stressor list;
}

val to_string : config -> string
(** One-line replay form: [seed=S;users=U;rounds=R;st=a:p,b,c:p:q]. *)

val of_string : string -> (config, string) result

val to_harness : config -> Algorand_core.Harness.config
(** Materialize the composition onto one harness config, its attacks
    in composition order. *)

type episode = {
  config : config;
  violation : string option;
      (** first violated invariant: agreement, conservation,
          convergence, liveness, or decode *)
  detail : string;
  fingerprint : string list;  (** {!Algorand_obs.Registry.fingerprint} *)
  events : int;  (** engine events consumed - the budget currency *)
}

val run_episode : config -> episode
(** Run one composition to quiescence and audit the full invariant
    set. A pure function of the config. *)

val fresh_config : Algorand_sim.Rng.t -> config
val mutate : Algorand_sim.Rng.t -> config -> config

val shrink : config -> invariant:string -> config
(** Greedy 1-minimal deletion over the stressor composition (via
    {!Shrink.minimize_seq} with "still violates the same invariant"
    as oracle), then parameter shrinking. Deterministic. *)

val reproducer : config -> invariant:string -> string
(** The one-line replayable reproducer printed on every violation. *)

val events_per_sec : int
(** Simulated-events-per-second constant behind [--budget-sec]. *)

type corpus_entry = {
  entry_config : config;
  coverage : string;  (** digest of the episode's full fingerprint *)
  novel : int;  (** fingerprint items first exercised by this episode *)
}

type report = {
  episodes : int;
  total_events : int;
  corpus : corpus_entry list;  (** in discovery order *)
  found : (config * string * string) list;
      (** minimized (config, invariant, detail) per violation *)
  max_families : int;
  coverage_items : int;
}

val corpus_digest : report -> string
(** Digest over the corpus (configs + coverage, in order) - the value
    the CI determinism check compares across two identical runs. *)

val run :
  ?log:(string -> unit) -> budget_sec:int -> seed_stream:int -> unit -> report
(** Run the swarm: draw compositions (biased toward corpus mutations
    once coverage exists), run episodes until the deterministic event
    budget is spent, shrink and report every violation. *)
