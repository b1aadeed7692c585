(** Experiment harness: builds a simulated deployment (users, genesis,
    WAN, gossip, workload, adversary), runs it, and audits safety. All
    section 10 experiments run through this module. *)

module Params = Algorand_ba.Params
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Genesis = Algorand_ledger.Genesis
module Gossip = Algorand_netsim.Gossip
module Network = Algorand_netsim.Network

type crypto = Deployment.crypto = Real_crypto | Sim_crypto

type crash_plan =
  | One_shot of { at : float; victims : int list; down_for : float }
      (** crash the listed nodes at [at]; each restarts [down_for] later *)
  | Periodic of {
      start : float;
      period : float;
      fraction : float;  (** of users, re-drawn randomly each tick *)
      down_for : float;
      until : float;
    }
  | Correlated of { at : float; fraction : float; down_for : float }
      (** one mass outage: a random fraction crash and restart together *)

type attack =
  | Equivocate  (** section 10.4: equivocating proposers, double-voting committees *)
  | Partition of { from_ : float; until : float }
  | Targeted_dos of { fraction : float; from_ : float; until : float }
  | Delay_votes of { delay : float; from_ : float; until : float }
  | Crash_churn of crash_plan
      (** crash-restart fault injection: victims lose all in-memory
          state, reload their durable checkpoint, rejoin via live
          catch-up *)
  | Flood of {
      flooders : float;  (** fraction of users that turn flooder *)
      rate_per_s : float;  (** garbage frames per second per flooder *)
      frame_bytes : int;
      from_ : float;
      until : float;
    }
      (** malicious nodes pump garbage frames at their peers; the
          overlay's per-peer flood defense must contain them *)
  | Corrupt of { p : float; from_ : float; until : float }
      (** on-path byte corruption: each frame independently mangled
          with probability [p] during the window *)
  | Undecidable of { fraction : float; from_ : float; until : float }
      (** Conti et al.'s "undecidable messages": a random laggard
          fraction has every vote/block/priority message to it held
          just past the step horizon, so traffic arrives signed and
          sortition-valid - and unserviceable for the step it was for *)
  | Adaptive_corrupt of { fraction : float; from_ : float; until : float }
      (** Wang's adaptive corruption: corrupt a committee member the
          moment its vote (hence VRF proof) crosses the wire; only
          future steps equivocate, because the revealing step's
          ephemeral key is already erased (section 11) *)

type tx_profile = {
  tx_zipf_s : float;  (** Zipf skew exponent; 0.0 = uniform *)
  tx_mix : Algorand_ledger.Workload.mix;
  tx_burst : Algorand_ledger.Workload.burst option;
}
(** Workload shaping for the transaction stream. Accounts are the
    deployment's own users (synthetic extra accounts would dilute
    sortition stake), so the profile only picks skew, mix and bursts. *)

val hostile_profile : tx_profile
(** Zipf 1.1 skew with the {!Algorand_ledger.Workload.hostile} mix. *)

type wire = [ `Typed | `Bytes ]
(** [`Typed] ships OCaml values across the simulated WAN; [`Bytes]
    encodes every message via {!Codec} at the sender and decodes it at
    each receiving hop (hostile-wire mode). *)

type config = {
  users : int;
  stake_distribution : [ `Equal | `Linear ];
  params : Params.t;
  block_bytes : int;
  rounds : int;
  rng_seed : int;
  crypto : crypto;
  bandwidth_bps : float;
  fanout : int;
  malicious_fraction : float;
  attacks : attack list;
      (** composed in order, each wired as if alone; the simulation
          swarm's way of running churn x loss x flood x corrupt x
          byzantine in one deployment. [[]] is an honest run. *)
  tx_rate_per_s : float;
  tx_profile : tx_profile option;
      (** hostile workload shaping layered on [tx_rate_per_s]; [None]
          keeps the legacy uniform all-valid Poisson stream *)
  max_sim_time : float;
  cpu_vote_verify_s : float;
  cpu_block_verify_s : float;
  recovery_enabled : bool;
  storage_shards : int;
  pipeline_final : bool;
  loss : float;  (** uniform message-loss probability, composed with any attack *)
  duplication : float;  (** uniform message-duplication probability *)
  store_root : string option;
      (** root for per-node durable checkpoints; [None] means no
          persistence, except under [Crash_churn], which creates (and
          owns) a temp root - release it with {!cleanup_stores} *)
  trace : Algorand_obs.Trace.t option;
      (** structured event trace shared by harness, nodes, gossip and
          retries; [None] builds a disabled trace internally *)
  wire : wire;
  gossip_limits : Gossip.limits option;
      (** per-peer flood defense (ingress queues, quotas, bans);
          [None] disables it. [Flood] runs supply a default. *)
  deterministic_ts : bool;
      (** round-number block timestamps: makes the ledger independent
          of the clock, so a sim run can be compared hash-for-hash with
          a wall-clock wire run of the same seed *)
}

val default : config

val schemes :
  crypto -> Algorand_crypto.Signature_scheme.scheme * Algorand_crypto.Vrf.scheme
(** {!Deployment.schemes}: the signature and VRF scheme pair behind a
    [crypto] choice. *)

type t = {
  config : config;
  engine : Engine.t;
  metrics : Metrics.t;
  identities : Identity.t array;
  nodes : Node.t array;
  gossip : Message.t Gossip.t;
  network : Message.t Gossip.packet Network.t;
  genesis : Genesis.t;
  store_root : string option;  (** resolved checkpoint root, if any *)
  owns_store : bool;  (** the root is a temp dir this harness created *)
  flooders : int list;  (** nodes a [Flood] attack turned flooder, sorted *)
  mutable workload : Algorand_ledger.Workload.t option;
      (** the profile-driven generator, when [tx_profile] is set
          (populated by {!install_workload}) *)
  mutable legacy_submitted : int;
      (** transactions injected by the profile-less legacy stream *)
}

type safety_report = {
  agreement_rounds : int;
  forked_rounds : int list;  (** rounds with conflicting blocks across users *)
  double_final : int list;  (** rounds with two different final blocks: must be [] *)
}

type churn_report = {
  crashes : int;
  restarts : int;
  rejoins : int;  (** completed live catch-ups *)
  mean_rejoin_s : float;
  max_rejoin_s : float;
  retries : int;  (** re-issued catch-up / block-fetch requests *)
  divergent_restarted : int list;
      (** restarted nodes whose chain disagrees with the strict-majority
          chain at some height both cover: must be [] *)
  unfinished : int list;
      (** nodes down, resyncing, hung, or short of the last round at
          quiescence: must be [] when every crash gets a restart *)
}

type wire_report = {
  decode_failures : int;
  quota_drops : int;
  banned_links : int;
  banned_nodes : int list;  (** nodes banned by at least one peer *)
  invalid_dropped : int;
  duplicates_dropped : int;
}
(** Post-run accounting of the hostile-wire machinery: what the
    ingress pipeline dropped and who got disconnected for it. All
    zeros on a clean typed run. *)

type tx_report = {
  submitted : int;
  submitted_invalid : int;
  submitted_duplicate : int;
  submitted_self_pay : int;
  committed : int;  (** transactions in node 0's canonical chain *)
  committed_self_pay : int;
  conservation_ok : bool;  (** tip balances sum to the genesis total *)
}
(** Transaction-path accounting (submitted counts are zero without a
    [tx_profile]). [conservation_ok] must hold on every run: it is the
    money-supply audit that catches inflation bugs like crediting a
    self-payment against the stale balance map. *)

type result = {
  harness : t;
  sim_time : float;
  events : int;
  safety : safety_report;
  completion : Algorand_sim.Stats.summary;
  final_rounds : int;
  tentative_rounds : int;
  churn : churn_report;
  wire : wire_report;
  txs : tx_report;
}

val build : config -> t
(** Construct the deployment without starting it (for custom drivers;
    see examples/payments.ml). *)

val install_workload : t -> unit
val audit_safety : t -> safety_report
val audit_wire : t -> wire_report
val audit_txs : t -> tx_report

val cleanup_stores : t -> unit
(** Remove the temp checkpoint root, when this harness created one
    (no-op for an explicit [store_root]). *)

val drive : t -> result
(** Install the workload, start every node, run to quiescence (or
    [max_sim_time]) and audit: the rest of {!run}, for callers that
    adjust a built deployment first (engine hooks, hand-fed
    transactions). *)

val run : config -> result
(** [drive (build config)]. *)

val violations : result -> Verdict.violation list
(** The run's verdict, [[]] when it passes: the invariants of
    DESIGN.md's table, in the order final-uniqueness, conservation,
    convergence, liveness, decode, agreement. Exemptions come from the
    run's own config: liveness and convergence are held only while the
    attacks' faulty weight (equivocators at [malicious_fraction],
    adaptive corruption, crash victims) stays below 1/3; liveness and
    decode are waived under a [Flood], decode under [Corrupt] and on a
    typed wire; convergence skips the [flooders]; agreement (no fork at
    any height) is required only of runs with no attack, loss or
    duplication. *)
