(** A full Algorand user (sections 4-8): transaction pool, block
    proposal, BA* execution, chain maintenance, certificates, fork
    recovery, and catch-up serving. All I/O goes through the gossip
    overlay and all waiting through the simulation engine, so the same
    code runs under every experiment of section 10. *)

module Block = Algorand_ledger.Block
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Transaction = Algorand_ledger.Transaction
module Params = Algorand_ba.Params
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Retry = Algorand_sim.Retry
module Rng = Algorand_sim.Rng
module Gossip = Algorand_netsim.Gossip

type byzantine = {
  equivocate_proposal : bool;
      (** when proposing, send different block versions to different peers *)
  double_vote : bool;  (** vote for two values in committee steps *)
}

type config = {
  params : Params.t;
  sig_scheme : Algorand_crypto.Signature_scheme.scheme;
  vrf_scheme : Algorand_crypto.Vrf.scheme;
  block_target_bytes : int;  (** proposers pad blocks to this size *)
  max_round : int;  (** stop after completing this round *)
  byzantine : byzantine option;
  cpu_vote_verify_s : float;  (** modeled per-vote verification CPU time *)
  cpu_block_verify_s : float;
  recovery_enabled : bool;  (** run the section 8.2 recovery protocol *)
  storage_shards : int;
      (** serve old blocks/certificates only for rounds in this node's
          shard (section 8.3); 1 = serve everything *)
  pipeline_final : bool;
      (** overlap the final-step classification with the next round's
          proposal (the throughput optimization of section 10.2) *)
  resync_enabled : bool;
      (** rejoin via live catch-up (Round_request / Round_reply with
          retry, backoff and peer rotation) after a restart, on
          MaxSteps, or when the network is observed >= 2 rounds ahead *)
  store_dir : string option;
      (** durable checkpoint directory; [None] disables persistence *)
  retry : Retry.policy;
      (** backoff for block-fetch and catch-up requests *)
  deterministic_ts : bool;
      (** stamp blocks with the round number instead of the engine
          clock (and validate them as such), making block hashes
          independent of which clock ran the protocol - the flag behind
          the sim-vs-wire ledger-equality audit *)
}

val default_config : config

type t

(** The node's entire view of the network: everything the protocol
    sends goes through these four operations, so a [net] backed by the
    simulated overlay and one backed by a real transport run the same
    node core. Destinations are global roster indices; byte accounting
    is the implementation's job. *)
type net = {
  net_broadcast : Message.t -> unit;  (** originate on the overlay *)
  net_send_to : dst:int -> Message.t -> unit;  (** point-to-point *)
  net_peers : unit -> int list;  (** current overlay neighbors *)
  net_mark_seen : Message.t -> unit;
      (** suppress our own relay of a message id (equivocation sends) *)
}

type verdicts
(** Algorithm 6 verdicts that nodes running one round side by side can
    share: the weight [Vote.validate] gave each vote, keyed on the
    round's validation context (previous block hash and seed) and the
    vote's full content. Only nodes with one genesis and one [config]
    may share a table. *)

val verdicts : unit -> verdicts
(** An empty table. *)

val verdict_weights : verdicts -> (Algorand_ba.Vote.t * int) list
(** Every vote the table holds with its weight, over all contexts,
    sorted. A node enters each vote it makes with the count its own
    sortition selected, and every other vote with the count
    [Vote.validate] gave it. *)

val create :
  index:int ->
  identity:Identity.t ->
  config:config ->
  engine:Engine.t ->
  metrics:Metrics.t ->
  ?rng:Rng.t ->
  ?verdicts:verdicts ->
  genesis:Genesis.t ->
  unit ->
  t
(** With [verdicts], a vote is validated once per table and context
    rather than once per node: the population engine's nodes share one
    table a round. Without it, the node keeps its own table per round,
    as a separate process would. *)

val set_net : t -> net -> unit
(** Install the node's network; must be called before [start]. *)

val set_gossip : t -> Message.t Gossip.t -> unit
(** [set_net] with the simulated overlay: what the harness and every
    in-sim experiment use. *)

val start : t -> unit
(** Begin round 1 (and, if enabled, schedule recovery clock ticks). *)

val adopt_chain : t -> Algorand_ledger.Chain.t -> unit
(** Replace the node's chain with a preloaded one (a clone of a
    certified canonical prefix) before it starts. The population
    engine's join path: a node materialized for round r receives the
    height-(r-1) prefix instead of replaying from genesis.
    @raise Invalid_argument unless the node is [Idle]. *)

val start_from_tip : t -> unit
(** Begin at the round after the current tip (recovery ticks are
    [start]'s job; population rounds do not use them). Stops the node
    if the tip already reaches [max_round]. *)

val pk : t -> string
val chain : t -> Chain.t

val round : t -> int
(** Current round, or 0 when idle/stopped. *)

(** Where a node is in its life: exactly one holds at a time. The
    edges between them, and what drives each, are in DESIGN.md
    section 8. *)
type status =
  | Idle  (** no round in flight: new, restarted, or back from catch-up/recovery *)
  | Running  (** running BA* rounds *)
  | Hung  (** hit MaxSteps with recovery on: waits for a tick, still relays *)
  | Recovering  (** running section 8.2 fork recovery *)
  | Resyncing  (** catching up from certified history (section 8.3) *)
  | Stopped  (** finished [max_round]; still serves fetches *)
  | Down  (** crashed and not yet restarted *)

val status : t -> status
val status_to_string : status -> string

val legal : status -> status -> bool
(** [legal from to_]: the edge table every phase change is checked
    against ([Invalid_argument] otherwise). Each change emits a
    ["node.lifecycle"] trace instant with [from]/[to] detail. *)

val recoveries_completed : t -> int

val crash : t -> unit
(** Kill the node: all in-memory state is dropped (chain, pools, round
    machines, buffered messages); armed timers and queued deliveries
    from this life become no-ops. Only the durable store survives.
    No-op if already down. *)

val restart : t -> unit
(** Bring a crashed node back: reload and re-validate the durable
    checkpoint (a corrupt or truncated tail costs only the tail), then
    rejoin via live catch-up ([resync_enabled]) or by starting the next
    round directly. No-op if not down. *)

val crash_count : t -> int
(** Crashes suffered so far. *)

val incarnation : t -> int
(** Bumped on crash, restart, and the round teardown that starts a
    resync or a recovery attempt; timers armed under an older
    incarnation never fire. *)

val certificate : t -> round:int -> Certificate.t option
(** The certificate assembled for an agreed round (section 8.3). *)

val final_certificate : t -> round:int -> Certificate.t option

val certified : t -> round:int -> History.item option
(** The block at [round] on the tip's ancestry with its certificate,
    when this node holds the certificate for that very block. *)

val history : ?respect_shards:bool -> t -> up_to_round:int -> History.item list
(** The certified rounds 1..[up_to_round] this node can hand a
    bootstrapping user; [respect_shards] keeps only the rounds its
    storage shard covers (section 8.3). *)

val history_from : t list -> up_to_round:int -> History.item list option
(** A full history from sharded servers, one round at a time; [None]
    when some round is served by no one. *)

val gossip_validate : t -> Message.t -> bool
(** Relay gating (section 8.4), including the priority-based block
    discard of section 6. Used as the overlay's validator. *)

val deliver : t -> src:int -> Message.t -> unit
(** The overlay's delivery callback (applies the modeled CPU cost). *)

val submit_tx : t -> Transaction.t -> unit
(** Submit a transaction at this node, as a wallet would. *)

val checkpoint : t -> unit
(** Persist the certified prefix above the last checkpoint to
    [store_dir]. A node does this after every completed round; the
    daemon also calls it on SIGTERM. *)

val set_on_round_complete : t -> (t -> round:int -> final:bool -> unit) -> unit

val set_byzantine : t -> byzantine option -> unit
(** Flip the node's byzantine behavior mid-run: the adaptive-corruption
    attack (corrupt a committee member {e after} its VRF proof reveals
    it). Affects only future proposals/votes - already-sent votes were
    signed with since-erased ephemeral keys (section 11), so corruption
    cannot retro-equivocate a past step. *)
