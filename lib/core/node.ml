(* A full Algorand user (sections 4-8): collects transactions, runs
   block proposal, drives BA*, maintains the chain, and serves
   catch-up requests. All I/O goes through the gossip overlay; all
   waiting goes through the simulation engine, so the same code runs
   under every experiment in section 10.

   Byzantine behaviors used by the evaluation (section 10.4) are
   switched on per node: an equivocating proposer sends different
   block versions to different peers, and malicious committee members
   vote for two values by showing different votes to different peers. *)

open Algorand_crypto
module Block = Algorand_ledger.Block
module Balances = Algorand_ledger.Balances
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Transaction = Algorand_ledger.Transaction
module Txpool = Algorand_ledger.Txpool
module Vote = Algorand_ba.Vote
module Params = Algorand_ba.Params
module Ba_star = Algorand_ba.Ba_star
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Retry = Algorand_sim.Retry
module Rng = Algorand_sim.Rng
module Gossip = Algorand_netsim.Gossip
module Trace = Algorand_obs.Trace

let src = Logs.Src.create "algorand.node" ~doc:"Algorand node"

module Log = (val Logs.src_log src : Logs.LOG)

(* Votes keyed on their whole content: structural equality over every
   field, so a corrupted variant that shares a gossip id with an honest
   vote is a different key, while two decoded copies of one vote are
   the same key. Each table draws its own hash seed, so a peer cannot
   choose votes that pile into one bucket. *)
module Vote_tbl = Hashtbl.MakeSeeded (struct
  type t = Vote.t

  let equal : t -> t -> bool = ( = )
  let seeded_hash = Hashtbl.seeded_hash
end)

(* Algorithm 6 verdicts shared by the nodes of one population round:
   one vote table per validation context, the round's previous block
   hash and seed. The look-back weights and total weight are functions
   of the hash-linked prefix that ends at that block, so a node on
   another tip never reads this context's verdicts. Sharers must agree
   on genesis and config, which is what makes the context a key. *)
type verdicts = (string * string, int Vote_tbl.t) Hashtbl.t

let verdicts () : verdicts = Hashtbl.create 4

(* Sorted, so the tables' random hash seeds reach no output. *)
let verdict_weights (shared : verdicts) : (Vote.t * int) list =
  Hashtbl.fold (fun _ tbl acc -> Vote_tbl.fold (fun v w acc -> (v, w) :: acc) tbl acc) shared []
  |> List.sort compare

let context_verdicts (shared : verdicts) ~(prev_hash : string) ~(seed : string) :
    int Vote_tbl.t =
  match Hashtbl.find_opt shared (prev_hash, seed) with
  | Some tbl -> tbl
  | None ->
    let tbl = Vote_tbl.create ~random:true 256 in
    Hashtbl.replace shared (prev_hash, seed) tbl;
    tbl

type byzantine = {
  equivocate_proposal : bool;  (** propose two block versions, one per half of peers *)
  double_vote : bool;  (** vote both values in committee steps *)
}

type config = {
  params : Params.t;
  sig_scheme : Signature_scheme.scheme;
  vrf_scheme : Vrf.scheme;
  block_target_bytes : int;  (** proposers pad blocks to this size *)
  max_round : int;  (** stop after completing this round *)
  byzantine : byzantine option;
  cpu_vote_verify_s : float;  (** modeled per-vote verification CPU time *)
  cpu_block_verify_s : float;
  recovery_enabled : bool;  (** run the section 8.2 fork-recovery protocol *)
  storage_shards : int;
      (** section 8.3 storage sharding: this node serves old blocks and
          certificates only for rounds matching its key mod shards
          (1 = serve everything) *)
  pipeline_final : bool;
      (** start the next round as soon as BinaryBA* returns, overlapping
          the final-step classification with the next round's proposal
          (the throughput optimization sketched in section 10.2) *)
  resync_enabled : bool;
      (** run the live catch-up rejoin (Round_request/Round_reply with
          retry and backoff) after a restart, on MaxSteps, or when the
          network is observed >= 2 rounds ahead *)
  store_dir : string option;
      (** durable checkpoint directory; [None] disables persistence *)
  retry : Retry.policy;  (** backoff for block fetch and catch-up requests *)
  deterministic_ts : bool;
      (** stamp blocks with the round number instead of the clock, so
          runs on different clocks (sim vs wall time) build
          bit-identical ledgers *)
}

let default_config =
  {
    params = Params.paper;
    sig_scheme = Signature_scheme.sim;
    vrf_scheme = Vrf.sim;
    block_target_bytes = 1_000_000;
    max_round = 3;
    byzantine = None;
    cpu_vote_verify_s = 0.0002;
    cpu_block_verify_s = 0.005;
    recovery_enabled = false;
    storage_shards = 1;
    pipeline_final = false;
    resync_enabled = true;
    store_dir = None;
    retry = Retry.default_policy;
    deterministic_ts = false;
  }

type round_state = {
  round : int;
  record : Metrics.round_record;
  prev_hash : string;
  seed : string;
  total_weight : int;
  weights : Balances.t;  (** the look-back weight snapshot (section 5.3) *)
  empty_hash : string;
  vctx : Vote.validation_ctx;
  proposed_blocks : (string, Block.t) Hashtbl.t;  (** block hash -> block *)
  blocks_by_proposer : (string, string) Hashtbl.t;  (** proposer pk -> block hash *)
  equivocators : (string, unit) Hashtbl.t;
  vote_weight_cache : int Vote_tbl.t;
      (** vote content -> weighted votes; the shared context table when
          the node was given [verdicts] *)
  proposer_credentials : (string * string * string, int) Hashtbl.t;
      (** (pk, vrf_hash, proof) -> verified proposer sub-users: priority
          handling and block validation check a claim once *)
  mutable best_priority : Proposal.priority_msg option;
  mutable first_priority_at : float option;
  mutable ba : Ba_star.t option;
  mutable waiting_for_block : bool;
  mutable last_step_started : float;
  mutable decided_value : string option;  (** set while fetching a missing block *)
  mutable decided_final : bool;
  mutable completed : bool;  (** block appended, next round scheduled *)
  mutable classified : bool;  (** final/tentative classification arrived *)
  mutable buffered_votes : Vote.t list;  (** votes that arrived before BA started *)
  mutable fetch : Retry.t option;
      (** retry schedule for an outstanding BlockOfHash fetch *)
}

(* State of one engagement of the fork-recovery protocol (section 8.2). *)
type recovery_state = {
  generation : int;  (** invalidates stale recovery timers *)
  attempt : int;  (** the synchronized recovery tick that started this engagement *)
  stable : Chain.entry;  (** deepest entry this node knows final: no fork may revert it *)
  anchor : Chain.entry;
      (** seed-refresh boundary at or below [stable]: seed and weights
          come from it, so nodes that disagree on which block is final
          still draw the same recovery committee *)
  rseed : string;
  rweights : Balances.t;
  rtotal_weight : int;
  mutable best_fork : Message.fork_proposal option;
  mutable fork_round : int;  (** round of the recovery empty block, once adopted *)
  mutable rvote_round : int;
      (** vote-round namespace for this attempt: distinct from the
          stalled regular round so recovery votes are not swallowed by
          the gossip relay's one-message-per-(round,step,pk) rule *)
  mutable rempty_hash : string;
  mutable rtip_hash : string;  (** adopted fork tip *)
  mutable rba : Ba_star.t option;
  rverdicts : int Vote_tbl.t;  (** vote content -> weighted votes, this attempt *)
  mutable rbuffered : Vote.t list;
}

(* Recovery BA* votes are tagged with synthetic rounds above this base
   ([base * attempt + fork_round]) so they can never collide with - or
   be mistaken for - regular-round traffic. *)
let recovery_round_base = 1_000_000

(* Rounds a committed transaction id stays in the pool's dedup table
   before watermark eviction (the chain's nonce rule still rejects
   later replays). *)
let txpool_retention_rounds = 8

(* Live catch-up after a restart (or after falling behind): request
   certified rounds from rotating peers on a retry schedule until our
   tip reaches the round the network is working on (section 8.3 made
   into an online protocol). *)
type resync_state = {
  started_at : float;
  mutable target_round : int;  (** tip height to reach before rejoining BA* *)
  mutable retry : Retry.t option;
  mutable requests_sent : int;  (** rotates the peer we ask *)
  mutable backtrack : int;
      (** how far below our tip the next request starts: grows when
          replies graft nothing (our tip sits on a dead tentative fork,
          so the divergence point must be rediscovered) *)
}

(* The node's lifecycle (DESIGN.md section 8): exactly one phase at a
   time, changed only by [transition] along the edges [legal] allows.
   [current]/[previous] are separate: a Hung node keeps its dead round
   and still relays against it. *)
type phase =
  | Idle  (** no round in flight; the next [start_round] begins one *)
  | Running
  | Hung  (** MaxSteps with recovery on (or catch-up off): waits for a tick *)
  | Recovering of recovery_state
  | Resyncing of resync_state
  | Stopped  (** finished [max_round] *)
  | Down  (** crashed and not yet restarted *)

type status = Idle | Running | Hung | Recovering | Resyncing | Stopped | Down

let status_of_phase : phase -> status = function
  | Idle -> Idle | Running -> Running | Hung -> Hung | Recovering _ -> Recovering
  | Resyncing _ -> Resyncing | Stopped -> Stopped | Down -> Down

let status_to_string : status -> string = function
  | Idle -> "idle" | Running -> "running" | Hung -> "hung" | Recovering -> "recovering"
  | Resyncing -> "resyncing" | Stopped -> "stopped" | Down -> "down"

(* The edge table; DESIGN.md section 8 names what drives each edge. *)
let legal (from : status) (to_ : status) : bool =
  match (from, to_) with
  | Down, Down -> false
  | _, Down (* crash *) | Down, Idle (* restart *)
  | Idle, (Running | Resyncing | Recovering | Stopped)
  | Running, (Hung | Resyncing | Recovering | Stopped)
  | Hung, (Resyncing | Recovering)
  | Recovering, (Recovering | Idle | Resyncing | Stopped)
  | Resyncing, (Idle | Stopped) ->
    true
  | _ -> false

(* The node's entire view of the network. The four operations are all
   the protocol ever needs, which is what lets one node core run over
   the simulated overlay (lib/netsim Gossip) and over a real transport
   (Wire_gossip) unchanged. Byte accounting happens inside the
   closures; dst indices refer to the global roster. *)
type net = {
  net_broadcast : Message.t -> unit;  (** originate on the overlay *)
  net_send_to : dst:int -> Message.t -> unit;  (** point-to-point *)
  net_peers : unit -> int list;  (** current overlay neighbors *)
  net_mark_seen : Message.t -> unit;
      (** suppress our own relay of a message id (equivocation sends) *)
}

(* One vote's weight as read against one round state. A round state's
   weight for a vote never changes once read, so a verdict keyed on the
   physical round state and vote can stand in for a table lookup. *)
type verdict = { v_rs : round_state; v_vote : Vote.t; v_weight : int }

type t = {
  index : int;
  identity : Identity.t;
  mutable config : config;
      (** mutable only for {!set_byzantine}: adaptive corruption flips
          a node's behavior mid-run *)
  engine : Engine.t;
  metrics : Metrics.t;
  genesis : Genesis.t;
  verdicts : verdicts option;  (** Algorithm 6 verdicts shared with other nodes *)
  rng : Rng.t;  (** retry jitter; deterministic per node *)
  mutable chain : Chain.t;  (** replaced wholesale on crash/restart *)
  mutable txpool : Txpool.t;
  mutable net : net option;
  mutable current : round_state option;
  pending : (int, Message.t list ref) Hashtbl.t;  (** future-round messages *)
  mutable previous : round_state option;
      (** with [pipeline_final]: the completed round whose final-step
          classification is still outstanding *)
  certificates : (int, Certificate.t) Hashtbl.t;
  final_certificates : (int, Certificate.t) Hashtbl.t;
  mutable cpu_free_at : float;
  mutable phase : phase;  (** written only by [transition] *)
  mutable recovery_generation : int;
  mutable recoveries_completed : int;
  mutable on_round_complete : (t -> round:int -> final:bool -> unit) option;
  mutable incarnation : int;
      (** bumped on crash, restart, and the round teardown that starts
          a resync or a recovery attempt; every timer and
          deferred CPU-model delivery captures the value it was armed
          under and is ignored if the node has since moved on *)
  mutable crash_count : int;
  mutable last_checkpoint : int;  (** highest round persisted to [store_dir] *)
  mutable last_verdict : verdict option;
      (** the vote weight read last: gossip validation reads it, and
          [deliver] carries it to the vote's processing, which then
          skips a second lookup *)
}

let create ~(index : int) ~(identity : Identity.t) ~(config : config)
    ~(engine : Engine.t) ~(metrics : Metrics.t) ?rng ?verdicts ~(genesis : Genesis.t) () :
    t =
  {
    index;
    identity;
    config;
    engine;
    metrics;
    genesis;
    verdicts;
    rng = (match rng with Some r -> r | None -> Rng.create ((1_000_003 * index) + 17));
    chain = Chain.create genesis;
    txpool = Txpool.create ();
    net = None;
    current = None;
    pending = Hashtbl.create 8;
    previous = None;
    certificates = Hashtbl.create 8;
    final_certificates = Hashtbl.create 8;
    cpu_free_at = 0.0;
    phase = Idle;
    recovery_generation = 0;
    recoveries_completed = 0;
    on_round_complete = None;
    incarnation = 0;
    crash_count = 0;
    last_checkpoint = 0;
    last_verdict = None;
  }

(* Structured tracing (lib/obs): every emission site below guards on
   [Trace.enabled], so a run without tracing pays one field load and
   allocates nothing. *)
let tracer (t : t) : Trace.t = Metrics.trace t.metrics

let trace_instant (t : t) ?round ?detail (name : string) : unit =
  let tr = tracer t in
  if Trace.enabled tr then
    Trace.instant tr ~node:t.index ~incarnation:t.incarnation ?round ?detail
      ~ts:(Engine.now t.engine) ~cat:"node" ~name ()

(* The one writer of [t.phase]. Leaving Resyncing stops its requests. *)
let transition (t : t) (next : phase) : unit =
  let from = status_of_phase t.phase and to_ = status_of_phase next in
  if not (legal from to_) then
    Printf.ksprintf invalid_arg "Node.transition: node %d: %s -> %s" t.index
      (status_to_string from) (status_to_string to_);
  (match t.phase with Resyncing { retry = Some r; _ } -> Retry.cancel r | _ -> ());
  t.phase <- next;
  if Trace.enabled (tracer t) then
    trace_instant t "node.lifecycle"
      ~detail:[ ("from", status_to_string from); ("to", status_to_string to_) ]

let set_net (t : t) (n : net) : unit = t.net <- Some n
let net (t : t) : net = Option.get t.net

(* The netsim overlay exposed through the [net] seam; harness and
   tests keep calling this, the daemon installs a Wire_gossip-backed
   [net] instead. *)
let set_gossip (t : t) (g : Message.t Gossip.t) : unit =
  set_net t
    {
      net_broadcast =
        (fun msg ->
          Gossip.broadcast g ~node:t.index ~bytes:(Message.size_bytes msg) msg);
      net_send_to =
        (fun ~dst msg ->
          Gossip.send_to g ~src:t.index ~dst ~bytes:(Message.size_bytes msg) msg);
      net_peers = (fun () -> Gossip.peers g t.index);
      net_mark_seen = (fun msg -> Gossip.mark_seen g ~node:t.index msg);
    }
let pk (t : t) : string = t.identity.pk
let chain (t : t) : Chain.t = t.chain
let round (t : t) : int = match t.current with Some rs -> rs.round | None -> 0
let status (t : t) : status = status_of_phase t.phase
let certificate (t : t) ~(round : int) : Certificate.t option =
  Hashtbl.find_opt t.certificates round
let final_certificate (t : t) ~(round : int) : Certificate.t option =
  Hashtbl.find_opt t.final_certificates round

(* Storage sharding (section 8.3): does this node serve round [round]'s
   block and certificate to others? *)
let serves_round (t : t) ~(round : int) : bool =
  Algorand_ledger.Storage.stores ~shards:t.config.storage_shards ~pk:t.identity.pk
    ~round

let broadcast (t : t) (msg : Message.t) : unit = (net t).net_broadcast msg

(* Schedule a timer that dies with the node's current life: crash,
   restart and round teardown ([drop_round]) bump [t.incarnation], so a
   closure armed in a previous life finds a different value and does
   nothing. *)
let sched (t : t) ~(delay : float) (f : unit -> unit) : unit =
  let inc = t.incarnation in
  Engine.schedule t.engine ~delay (fun () -> if t.incarnation = inc then f ())

let cancel_fetch (rs : round_state) : unit =
  (match rs.fetch with Some r -> Retry.cancel r | None -> ());
  rs.fetch <- None

(* Abandon the rounds in flight (the current one and a pipelined
   previous one): the incarnation bump silences every timer armed for
   them, so they cannot fire into whatever the node does next; the
   fetch stops and no message routes to them any more. *)
let drop_round (t : t) : unit =
  t.incarnation <- t.incarnation + 1;
  (match t.current with Some rs -> cancel_fetch rs | None -> ());
  t.current <- None;
  t.previous <- None;
  t.last_verdict <- None

(* Durable checkpoint: persist every certified round above the last
   checkpoint, but only as a contiguous run - a gap on disk would
   truncate what a restart can replay, so a round missing its
   certificate (e.g. adopted during fork recovery) blocks the
   checkpoint until resync backfills it. Called after every completed
   round, resync and recovery, and by a daemon on SIGTERM. *)
let checkpoint (t : t) : unit =
  match t.config.store_dir with
  | None -> ()
  | Some dir ->
    let tip = Chain.tip t.chain in
    if tip.height > t.last_checkpoint then begin
      let rec collect r acc =
        if r <= t.last_checkpoint then Some acc
        else begin
          match
            ( Chain.ancestor_at t.chain ~hash:tip.hash ~height:r,
              Hashtbl.find_opt t.certificates r )
          with
          | Some e, Some c when String.equal c.Certificate.block_hash e.hash ->
            collect (r - 1) ({ History.block = e.block; certificate = c } :: acc)
          | _ -> None
        end
      in
      match collect tip.height [] with
      | Some items when items <> [] ->
        Disk_store.save dir items;
        t.last_checkpoint <- tip.height
      | Some _ | None -> ()
    end

(* ------------------------------------------------------------------ *)
(* Round context (seeds and look-back weights, sections 5.2-5.3).      *)
(* ------------------------------------------------------------------ *)

(* The chain entry whose established seed selects committees for
   round [r]: height max(0, r - 1 - (r mod R)). *)
let seed_entry_for_round (t : t) ~(tip : Chain.entry) ~(r : int) : Chain.entry =
  let height = max 0 (r - 1 - (r mod t.config.params.seed_refresh_interval)) in
  match Chain.ancestor_at t.chain ~hash:tip.hash ~height with
  | Some e -> e
  | None -> Chain.genesis_entry t.chain

(* Weights come from the last block created lookback_b before the seed
   block (the "nothing at stake" look-back of section 5.3). *)
let weight_entry (t : t) ~(seed_entry : Chain.entry) : Chain.entry =
  let cutoff = seed_entry.block.header.timestamp -. t.config.params.lookback_b in
  let rec back (e : Chain.entry) =
    if e.height = 0 || e.block.header.timestamp <= cutoff then e
    else begin
      match Chain.find t.chain e.parent with None -> e | Some p -> back p
    end
  in
  back seed_entry

let tau_of_step (p : Params.t) : Vote.step -> float = function
  | Vote.Final -> p.tau_final
  | _ -> p.tau_step

(* Vote validation and signing against one committee draw: [seed] and
   look-back [weights] (section 5.3) on top of [prev_hash]. Regular
   rounds and recovery attempts differ only in these inputs. *)
let vote_ctx (t : t) ~seed ~(weights : Balances.t) ~total_weight ~prev_hash :
    Vote.validation_ctx =
  {
    sig_scheme = t.config.sig_scheme;
    vrf_scheme = t.config.vrf_scheme;
    sig_pk_of = Identity.sig_pk;
    vrf_pk_of = Identity.vrf_pk;
    seed;
    total_weight;
    weight_of = Balances.balance weights;
    last_block_hash = prev_hash;
    tau_of_step = tau_of_step t.config.params;
  }

(* A vote this node makes enters its context's verdict table with the
   count its own sortition just selected: exactly the count
   [Vote.validate] would give it (see [Vote.make_weighted]), so a node
   never verifies its own signature and proof. *)
let sign_vote (t : t) ~(verdicts : int Vote_tbl.t) ~seed ~(weights : Balances.t)
    ~total_weight ~round ~prev_hash ~(step : Vote.step) ~(value : string) : Vote.t option =
  match
    Vote.make_weighted ~signer:t.identity.signer ~prover:t.identity.prover ~pk:t.identity.pk
      ~seed ~tau:(tau_of_step t.config.params step)
      ~w:(Balances.balance weights t.identity.pk)
      ~total_weight ~round ~step ~prev_hash ~value
  with
  | None -> None
  | Some (v, j) ->
    Vote_tbl.replace verdicts v j;
    Some v

(* A vote's weight through its context's verdict table: Algorithm 6
   runs once per vote content. *)
let cached_weight (verdicts : int Vote_tbl.t) (vctx : Vote.validation_ctx) (v : Vote.t) : int =
  match Vote_tbl.find_opt verdicts v with
  | Some w -> w
  | None ->
    let w = Vote.validate vctx v in
    Vote_tbl.replace verdicts v w;
    w

let make_round_state (t : t) ~(r : int) : round_state =
  let tip = Chain.tip t.chain in
  assert (tip.height = r - 1);
  let seed_entry = seed_entry_for_round t ~tip ~r in
  let weights = (weight_entry t ~seed_entry).balances_after in
  let total_weight = Balances.total weights in
  let prev_hash = tip.hash in
  let vctx = vote_ctx t ~seed:seed_entry.seed ~weights ~total_weight ~prev_hash in
  {
    round = r;
    record = Metrics.start_round t.metrics ~user:t.index ~round:r ~now:(Engine.now t.engine);
    prev_hash;
    seed = seed_entry.seed;
    total_weight;
    weights;
    empty_hash = Proposal.empty_hash ~round:r ~prev_hash;
    vctx;
    proposed_blocks = Hashtbl.create 8;
    blocks_by_proposer = Hashtbl.create 8;
    equivocators = Hashtbl.create 4;
    vote_weight_cache =
      (match t.verdicts with
      | Some shared -> context_verdicts shared ~prev_hash ~seed:seed_entry.seed
      | None -> Vote_tbl.create ~random:true 256);
    proposer_credentials = Hashtbl.create ~random:true 8;
    best_priority = None;
    first_priority_at = None;
    ba = None;
    waiting_for_block = false;
    last_step_started = Engine.now t.engine;
    decided_value = None;
    decided_final = false;
    completed = false;
    classified = false;
    buffered_votes = [];
    fetch = None;
  }

(* ------------------------------------------------------------------ *)
(* Vote creation and (byzantine) equivocation.                         *)
(* ------------------------------------------------------------------ *)

let make_vote (t : t) (rs : round_state) ~(step : Vote.step) ~(value : string) :
    Vote.t option =
  sign_vote t ~verdicts:rs.vote_weight_cache ~seed:rs.seed ~weights:rs.weights
    ~total_weight:rs.total_weight ~round:rs.round ~prev_hash:rs.prev_hash ~step ~value

(* An alternative value for double-voting: some other proposed block,
   or the empty block if the primary vote already names a block. *)
let alternative_value (rs : round_state) ~(value : string) : string option =
  if not (String.equal value rs.empty_hash) then Some rs.empty_hash
  else
    Hashtbl.fold
      (fun h _ acc -> if String.equal h value then acc else Some h)
      rs.proposed_blocks None

let send_vote (t : t) (rs : round_state) (v : Vote.t) : unit =
  broadcast t (Message.Ba_vote v);
  match t.config.byzantine with
  | Some { double_vote = true; _ } -> (
    match alternative_value rs ~value:v.value with
    | None -> ()
    | Some alt -> (
      match make_vote t rs ~step:v.step ~value:alt with
      | None -> ()
      | Some v' ->
        (* Show the conflicting vote to half of our peers directly; the
           gossip id is shared, so each honest relay forwards whichever
           version reached it first (section 8.4's relay rule). *)
        let nt = net t in
        List.iteri
          (fun i dst -> if i mod 2 = 1 then nt.net_send_to ~dst (Message.Ba_vote v'))
          (nt.net_peers ())))
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* BA* wiring.                                                         *)
(* ------------------------------------------------------------------ *)

let vote_weight (t : t) (rs : round_state) (v : Vote.t) : int =
  match t.last_verdict with
  | Some { v_rs; v_vote; v_weight } when v_rs == rs && v_vote == v -> v_weight
  | _ ->
    (* The cache key is the full vote content, not just the gossip id
       (round, step, voter): a corrupted variant sharing an id with an
       honest vote must not poison the cache with weight 0 and
       suppress the honest copy when it arrives later. *)
    let w = cached_weight rs.vote_weight_cache rs.vctx v in
    t.last_verdict <- Some { v_rs = rs; v_vote = v; v_weight = w };
    w

(* A proposer credential of this round, verified once per claim: the
   key is the whole claim, so a block whose proof differs from an
   already verified priority's still gets the full check. *)
let proposer_credential (t : t) (rs : round_state) ~(pk : string) ~(vrf_hash : string)
    ~(vrf_proof : string) : int =
  let key = (pk, vrf_hash, vrf_proof) in
  match Hashtbl.find_opt rs.proposer_credentials key with
  | Some j -> j
  | None ->
    let j =
      Proposal.verify_credential ~vrf_scheme:t.config.vrf_scheme ~vrf_pk_of:Identity.vrf_pk
        ~seed:rs.seed ~tau:t.config.params.tau_proposer
        ~weight_of:(Balances.balance rs.weights) ~total_weight:rs.total_weight
        ~round:rs.round ~pk ~vrf_hash ~vrf_proof
    in
    Hashtbl.replace rs.proposer_credentials key j;
    j

let rec apply_ba_actions (t : t) (rs : round_state) (actions : Ba_star.action list) : unit =
  let now = Engine.now t.engine in
  List.iter
    (fun action ->
      match action with
      | Ba_star.Broadcast v ->
        send_vote t rs v;
        (* Count our own vote locally (we do not gossip to ourselves). *)
        deliver_to_ba t rs v
      | Ba_star.Set_timer { token; delay } ->
        Metrics.record_step_duration t.metrics (now -. rs.last_step_started);
        let tr = tracer t in
        if Trace.enabled tr then
          Trace.span tr ~node:t.index ~incarnation:t.incarnation ~round:rs.round
            ~step:token ~start_ts:rs.last_step_started ~ts:now ~cat:"step" ~name:"ba_step"
            ();
        rs.last_step_started <- now;
        (* The closure captures this round's machine; stale tokens are
           filtered inside it, so a pipelined previous round still gets
           its final-classification timeout after [t.current] moves on. *)
        sched t ~delay (fun () ->
            match rs.ba with
            | Some ba -> apply_ba_actions t rs (Ba_star.handle ba (Ba_star.Timer token))
            | None -> ())
      | Ba_star.Bin_decided { value; bin_steps } ->
        rs.record.ba_done <- now;
        rs.record.steps_taken <- bin_steps;
        let tr = tracer t in
        if Trace.enabled tr && not (Float.is_nan rs.record.proposal_done) then
          Trace.span tr ~node:t.index ~incarnation:t.incarnation ~round:rs.round
            ~start_ts:rs.record.proposal_done ~ts:now ~cat:"phase" ~name:"ba_no_final"
            ~detail:[ ("bin_steps", string_of_int bin_steps) ]
            ();
        if t.config.pipeline_final then eager_complete t rs ~value
      | Ba_star.Decided { value; final; bin_steps = _ } -> decide t rs ~value ~final
      | Ba_star.Hang ->
        let is_current =
          match t.current with Some c -> c == rs | None -> false
        in
        if not is_current then
          (* A pipelined previous round timing out of its final
             classification: the round stays tentative, the node has
             already moved on (or stopped) - not a node hang. *)
          Log.debug (fun m ->
              m "node %d: round %d classification timed out (stays tentative)"
                t.index rs.round)
        else if t.config.resync_enabled && not t.config.recovery_enabled then begin
          (* MaxSteps without the section 8.2 protocol: treat it as
             having fallen behind and rejoin via live catch-up. *)
          Log.warn (fun m ->
              m "node %d hit MaxSteps in round %d; resyncing" t.index rs.round);
          begin_resync t
        end
        else begin
          transition t Hung;
          Log.warn (fun m -> m "node %d hung in round %d (MaxSteps)" t.index rs.round)
        end)
    actions

and deliver_to_ba (t : t) (rs : round_state) (v : Vote.t) : unit =
  match rs.ba with
  | Some ba -> apply_ba_actions t rs (Ba_star.handle ba (Ba_star.Deliver v))
  | None -> rs.buffered_votes <- v :: rs.buffered_votes

(* Start BA* once the proposal phase settles on an initial block hash. *)
and start_ba (t : t) (rs : round_state) ~(hblock : string) : unit =
  if rs.ba <> None then ()
  else begin
    rs.record.proposal_done <- Engine.now t.engine;
    let tr = tracer t in
    if Trace.enabled tr then
      Trace.span tr ~node:t.index ~incarnation:t.incarnation ~round:rs.round
        ~start_ts:rs.record.started ~ts:rs.record.proposal_done ~cat:"phase"
        ~name:"proposal" ();
    rs.waiting_for_block <- false;
    let ctx : Ba_star.ctx =
      {
        params = t.config.params;
        round = rs.round;
        empty_hash = rs.empty_hash;
        my_votes = (fun ~step ~value -> Option.to_list (make_vote t rs ~step ~value));
        validate = (fun v -> vote_weight t rs v);
      }
    in
    let ba = Ba_star.create ctx in
    rs.ba <- Some ba;
    rs.last_step_started <- Engine.now t.engine;
    let buffered = List.rev rs.buffered_votes in
    rs.buffered_votes <- [];
    List.iter (fun v -> apply_ba_actions t rs (Ba_star.handle ba (Ba_star.Deliver v))) buffered;
    apply_ba_actions t rs (Ba_star.handle ba (Ba_star.Start hblock))
  end

(* ------------------------------------------------------------------ *)
(* Round completion.                                                   *)
(* ------------------------------------------------------------------ *)

(* Resolve the agreed hash to a block and complete; shared by the
   normal (post-classification) and pipelined (post-BinaryBA) paths. *)
and resolve_and_complete (t : t) (rs : round_state) ~(value : string) : unit =
  if String.equal value rs.empty_hash then
    complete_round t rs (Block.empty ~round:rs.round ~prev_hash:rs.prev_hash)
  else begin
    match Hashtbl.find_opt rs.proposed_blocks value with
    | Some b -> complete_round t rs b
    | None ->
      (* BlockOfHash (Algorithm 3): we agreed on a hash whose pre-image
         we never received; fetch it from peers, re-asking on the
         backoff schedule (rotating the peer) until the reply lands -
         under message loss a single fire-and-forget request can vanish
         and strand the round forever. *)
      start_block_fetch t rs ~value
  end

and start_block_fetch (t : t) (rs : round_state) ~(value : string) : unit =
  if rs.fetch = None then begin
    let inc = t.incarnation in
    let request n =
      Message.Block_request
        { round = rs.round; block_hash = value; requester = t.index; attempt = n }
    in
    rs.fetch <-
      Some
        (Retry.start ~engine:t.engine ~rng:t.rng ~policy:t.config.retry
           ~attempt:(fun n ->
             if t.incarnation = inc && not rs.completed then
               if n = 0 then broadcast t (request n)
               else begin
                 Metrics.record_retry t.metrics;
                 let msg = request n in
                 match (net t).net_peers () with
                 | [] -> broadcast t msg
                 | peers ->
                   let dst = List.nth peers ((n - 1) mod List.length peers) in
                   (net t).net_send_to ~dst msg
               end)
           ~name:"block_fetch" ~registry:(Metrics.registry t.metrics)
           ~trace:(Metrics.trace t.metrics) ())
  end

(* Pipelined completion at BinaryBA* return: append the block and start
   the next round now; the final/tentative classification lands later
   through [decide]. *)
and eager_complete (t : t) (rs : round_state) ~(value : string) : unit =
  if not (rs.completed || rs.decided_value <> None) then begin
    rs.decided_value <- Some value;
    rs.decided_final <- false;
    resolve_and_complete t rs ~value
  end

and decide (t : t) (rs : round_state) ~(value : string) ~(final : bool) : unit =
  if rs.completed then begin
    (* Pipelined round: the chain already moved on; record the
       classification and upgrade finality. *)
    rs.classified <- true;
    rs.record.final <- final;
    if final then begin
      (match rs.decided_value with
      | Some v ->
        (match Chain.find t.chain v with
        | Some e -> Chain.mark_final t.chain e.hash
        | None -> ());
        (match rs.ba with
        | Some ba ->
          let fvotes = Ba_star.final_certificate_votes ba in
          if fvotes <> [] then
            Hashtbl.replace t.final_certificates rs.round
              (Certificate.make ~round:rs.round ~step:Vote.Final ~block_hash:v
                 ~votes:fvotes)
        | None -> ())
      | None -> ())
    end;
    match t.previous with
    | Some p when p.round = rs.round -> t.previous <- None
    | _ -> ()
  end
  else begin
    rs.classified <- true;
    rs.decided_value <- Some value;
    rs.decided_final <- final;
    resolve_and_complete t rs ~value
  end

and complete_round (t : t) (rs : round_state) (block : Block.t) : unit =
  if rs.completed then ()
  else begin
  rs.completed <- true;
  cancel_fetch rs;
  let now = Engine.now t.engine in
  rs.record.final_done <- now;
  rs.record.final <- rs.decided_final;
  let tr = tracer t in
  if Trace.enabled tr then begin
    if not (Float.is_nan rs.record.ba_done) then
      Trace.span tr ~node:t.index ~incarnation:t.incarnation ~round:rs.round
        ~start_ts:rs.record.ba_done ~ts:now ~cat:"phase" ~name:"final" ();
    Trace.span tr ~node:t.index ~incarnation:t.incarnation ~round:rs.round
      ~start_ts:rs.record.started ~ts:now ~cat:"round" ~name:"round"
      ~detail:
        [
          ("final", string_of_bool rs.decided_final);
          ("steps", string_of_int rs.record.steps_taken);
        ]
      ()
  end;
  if not rs.classified then t.previous <- Some rs;
  (match Chain.add t.chain block with
  | Ok _ | Error `Duplicate -> (
    match Chain.find t.chain (Block.hash block) with
    | Some entry ->
      Chain.set_tip t.chain entry.hash;
      if rs.decided_final then Chain.mark_final t.chain entry.hash
    | None -> assert false)
  | Error (`Unknown_parent | `Wrong_round _ | `Invalid_tx _) as e ->
    Log.err (fun m ->
        m "node %d: agreed block rejected by chain: %a" t.index Chain.pp_add_error
          (match e with Error err -> err | Ok _ -> assert false)));
  (* Store certificates (section 8.3). *)
  (match rs.ba with
  | Some ba ->
    let votes = Ba_star.certificate_votes ba in
    if votes <> [] then
      Hashtbl.replace t.certificates rs.round
        (Certificate.make ~round:rs.round
           ~step:(Vote.Bin (Ba_star.bin_steps ba))
           ~block_hash:(Block.hash block) ~votes);
    let fvotes = Ba_star.final_certificate_votes ba in
    if rs.decided_final && fvotes <> [] then
      Hashtbl.replace t.final_certificates rs.round
        (Certificate.make ~round:rs.round ~step:Vote.Final ~block_hash:(Block.hash block)
           ~votes:fvotes)
  | None -> ());
  Txpool.remove_committed t.txpool ~round:rs.round block.txs;
  (* Bound the pool under sustained traffic: evict committed ids past
     the retention watermark (the chain's nonce rule still rejects
     late replays) and drop queued transactions whose nonce the chain
     has already consumed - they can never apply. *)
  Txpool.expire t.txpool ~before_round:(rs.round - txpool_retention_rounds);
  (let committed = (Chain.tip t.chain).balances_after in
   ignore
     (Txpool.prune t.txpool ~stale:(fun _ tx ->
          tx.Transaction.nonce < Balances.nonce committed tx.Transaction.sender)));
  Log.debug (fun m ->
      m "node %d completed round %d (%s, %d bin steps) at %.2fs" t.index rs.round
        (if rs.decided_final then "final" else "tentative")
        rs.record.steps_taken now);
  (match t.on_round_complete with
  | Some f -> f t ~round:rs.round ~final:rs.decided_final
  | None -> ());
  checkpoint t;
  if rs.round >= t.config.max_round then begin
    transition t Stopped;
    t.current <- None
  end
  else sched t ~delay:0.0 (fun () -> start_round t ~r:(rs.round + 1))
  end

(* ------------------------------------------------------------------ *)
(* Block proposal (section 6).                                         *)
(* ------------------------------------------------------------------ *)

and build_block (t : t) (rs : round_state) ~(prio : Proposal.priority_msg) ~(variant : int) :
    Block.t =
  let tip = Chain.tip t.chain in
  let candidates =
    (* Non-destructive: a losing proposal must not cost the pool its
       transactions; commitment prunes pools via remove_committed. *)
    Txpool.select t.txpool
      ~max_bytes:(max 0 (t.config.block_target_bytes - Block.header_size_bytes))
  in
  (* Batch-check candidate signatures (one verify_batch equation when
     the pool is clean, bisection to exclude corrupt entries when not)
     so the proposed block always passes other nodes' signature
     check. *)
  let candidates =
    let valid, rejected =
      Transaction.filter_valid_batch ~sig_pk_of:Identity.sig_pk
        ~scheme:t.config.sig_scheme candidates
    in
    if rejected <> [] then begin
      let bad = List.map Transaction.id rejected in
      ignore (Txpool.prune t.txpool ~stale:(fun id _ -> List.mem id bad))
    end;
    valid
  in
  (* Keep only transactions that apply cleanly in order, so the block
     always passes validation (racing nonces are simply left out). *)
  let txs =
    List.rev
      (fst
         (List.fold_left
            (fun (kept, st) tx ->
              match Balances.apply_tx st tx with
              | Ok st' -> (tx :: kept, st')
              | Error _ -> (kept, st))
            ([], tip.balances_after) candidates))
  in
  let tx_bytes = List.fold_left (fun a tx -> a + Transaction.size_bytes tx) 0 txs in
  (* [variant] perturbs the payload so an equivocating proposer's two
     versions really are different blocks (different hashes). *)
  let padding =
    max 0 (t.config.block_target_bytes - Block.header_size_bytes - tx_bytes) + variant
  in
  let seed, seed_proof =
    Proposal.next_seed ~prover:t.identity.prover ~current_seed:tip.seed ~round:rs.round
  in
  {
    Block.header =
      {
        round = rs.round;
        prev_hash = rs.prev_hash;
        timestamp =
          (* Round-number timestamps make the header independent of the
             clock that ran the protocol: exact under the codec's ms
             encoding, so sim and wire runs hash identically. *)
          (if t.config.deterministic_ts then float_of_int rs.round
           else Engine.now t.engine);
        seed;
        seed_proof;
        proposer_pk = t.identity.pk;
        proposer_vrf_hash = prio.vrf_hash;
        proposer_vrf_proof = prio.vrf_proof;
      };
    txs;
    padding;
  }

and record_proposed_block (rs : round_state) (b : Block.t) : unit =
  let h = Block.hash b in
  let proposer = b.header.proposer_pk in
  (match Hashtbl.find_opt rs.blocks_by_proposer proposer with
  | Some h' when not (String.equal h h') ->
    (* Conflicting versions from one proposer: the section 10.4
       optimization discards both and falls back to the empty block. *)
    Hashtbl.replace rs.equivocators proposer ()
  | _ -> ());
  Hashtbl.replace rs.blocks_by_proposer proposer h;
  Hashtbl.replace rs.proposed_blocks h b

and try_propose (t : t) (rs : round_state) : unit =
  match
    Proposal.try_propose ~prover:t.identity.prover ~pk:t.identity.pk ~seed:rs.seed
      ~tau:t.config.params.tau_proposer ~round:rs.round ~prev_hash:rs.prev_hash
      ~w:(Balances.balance rs.weights t.identity.pk) ~total_weight:rs.total_weight
  with
  | None -> ()
  | Some prio ->
    let block = build_block t rs ~prio ~variant:0 in
    record_proposed_block rs block;
    consider_priority rs prio;
    broadcast t (Message.Priority prio);
    let equivocate =
      match t.config.byzantine with Some b -> b.equivocate_proposal | None -> false
    in
    if not equivocate then broadcast t (Message.Block_gossip block)
    else begin
      (* Equivocation attack (section 10.4): version A to half of our
         peers, version B to the other half. Relays forward whichever
         they saw first. *)
      let block_b = build_block t rs ~prio ~variant:1 in
      let nt = net t in
      nt.net_mark_seen (Message.Block_gossip block);
      List.iteri
        (fun i dst ->
          let b = if i mod 2 = 0 then block else block_b in
          nt.net_send_to ~dst (Message.Block_gossip b))
        (nt.net_peers ())
    end

and consider_priority (rs : round_state) (p : Proposal.priority_msg) : unit =
  match rs.best_priority with
  | Some best when not (Proposal.higher p best) -> ()
  | _ -> rs.best_priority <- Some p

(* Section 10.5 instrumentation: how long after the round started did
   the first *remote* proposer priority arrive? *)
and note_remote_priority (t : t) (rs : round_state) : unit =
  if rs.first_priority_at = None then begin
    rs.first_priority_at <- Some (Engine.now t.engine);
    Metrics.record_priority_gossip t.metrics (Engine.now t.engine -. rs.record.started)
  end

(* The proposal wait of section 6: lambda_stepvar (for others to finish
   the previous round) + lambda_priority (for the best priority to
   gossip), then wait up to lambda_block for the block itself. *)
and on_proposal_window_closed (t : t) (rs : round_state) : unit =
  if rs.ba <> None then ()
  else begin
    match rs.best_priority with
    | None -> start_ba t rs ~hblock:rs.empty_hash
    | Some best ->
      if Hashtbl.mem rs.equivocators best.proposer_pk then
        start_ba t rs ~hblock:rs.empty_hash
      else begin
        match Hashtbl.find_opt rs.blocks_by_proposer best.proposer_pk with
        | Some h -> start_ba t rs ~hblock:h
        | None ->
          rs.waiting_for_block <- true;
          sched t ~delay:t.config.params.lambda_block (fun () ->
              match t.current with
              | Some rs' when rs'.round = rs.round && rs.ba = None ->
                start_ba t rs ~hblock:rs.empty_hash
              | _ -> ())
      end
  end

and start_round (t : t) ~(r : int) : unit =
  match t.phase with
  | Hung | Recovering _ | Resyncing _ | Stopped | Down -> ()
  | Idle | Running ->
    if t.phase = Idle then transition t Running;
    let rs = make_round_state t ~r in
    t.current <- Some rs;
    trace_instant t ~round:r "round.start";
    try_propose t rs;
    let p = t.config.params in
    sched t ~delay:(p.lambda_priority +. p.lambda_stepvar) (fun () ->
        match t.current with
        | Some rs' when rs'.round = r -> on_proposal_window_closed t rs
        | _ -> ());
    (* Replay messages that arrived while we were in earlier rounds. *)
    match Hashtbl.find_opt t.pending r with
    | None -> ()
    | Some msgs ->
      let replay = List.rev !msgs in
      Hashtbl.remove t.pending r;
      List.iter (fun m -> process_message t m) replay

(* ------------------------------------------------------------------ *)
(* Block validation (section 8.1).                                     *)
(* ------------------------------------------------------------------ *)

and validate_block (t : t) (rs : round_state) (b : Block.t) : bool =
  let tip = Chain.tip t.chain in
  Block.round b = rs.round
  && String.equal (Block.prev_hash b) rs.prev_hash
  && (if t.config.deterministic_ts then b.header.timestamp = float_of_int rs.round
      else
        b.header.timestamp > tip.block.header.timestamp
        && b.header.timestamp <= Engine.now t.engine +. 1.0)
  && (match Algorand_ledger.Balances.apply_block tip.balances_after b.txs with
     | Ok _ -> true
     | Error _ -> false)
  && Transaction.verify_batch ~sig_pk_of:Identity.sig_pk ~scheme:t.config.sig_scheme
       b.txs
  && Proposal.verify_next_seed ~vrf_scheme:t.config.vrf_scheme
       ~vrf_pk:(Identity.vrf_pk b.header.proposer_pk) ~current_seed:tip.seed
       ~round:rs.round ~seed:b.header.seed ~proof:b.header.seed_proof
  && proposer_credential t rs ~pk:b.header.proposer_pk ~vrf_hash:b.header.proposer_vrf_hash
       ~vrf_proof:b.header.proposer_vrf_proof
     > 0

(* ------------------------------------------------------------------ *)
(* Message handling.                                                   *)
(* ------------------------------------------------------------------ *)

and process_message (t : t) (msg : Message.t) : unit =
  match (t.phase, msg) with
  | Down, _ -> ()
  | _, Message.Round_request { from_round; requester; attempt = _ } ->
    (* Served from every live state, our own catch-up included: chain
       and certificates survive round, recovery and resync transitions,
       and nodes catching up from each other must not deadlock. *)
    serve_round_request t ~from_round ~requester
  | Resyncing st, Message.Round_reply { to_; current_round; items } ->
    if to_ = t.index then process_round_reply t st ~current_round ~items
  | _, Message.Round_reply _ -> ()
  | _, Message.Block_request { round; block_hash; requester; attempt = _ } -> (
    (* Served independently of round state: a node that already
       stopped (or moved on) must still answer a straggler's fetch, or
       the last round's late deciders can never learn the block they
       agreed on. *)
    let reply b = (net t).net_send_to ~dst:requester (Message.Block_reply b) in
    match t.current with
    | Some rs when round = rs.round -> (
      match Hashtbl.find_opt rs.proposed_blocks block_hash with
      | Some b -> reply b
      | None -> ())
    | _ -> (
      (* Old rounds come out of sharded storage (section 8.3). *)
      match Chain.find t.chain block_hash with
      | Some e when serves_round t ~round:e.height -> reply e.block
      | Some _ | None -> ()))
  | Resyncing _, _ -> (
    (* Catching up: bank round-tagged traffic for replay once we
       rejoin; everything else waits for the next request. *)
    match msg with
    | Message.Tx tx -> ignore (Txpool.add t.txpool tx)
    | Message.Ba_vote v -> buffer t v.round msg
    | Message.Priority p -> buffer t p.round msg
    | Message.Block_gossip b | Message.Block_reply b -> buffer t (Block.round b) msg
    | _ -> ())
  | Recovering recovery, _ -> process_recovery_message t recovery msg
  | (Idle | Running | Hung | Stopped), _ -> (
    match (t.current, msg) with
    | Some rs, _ -> process_normal_message t rs msg
    | None, Message.Ba_vote v -> deliver_to_previous t v
    | None, _ -> ())

and process_normal_message (t : t) (rs : round_state) (msg : Message.t) : unit =
  match msg with
    | Message.Tx tx -> ignore (Txpool.add t.txpool tx)
    | Message.Priority p ->
      if p.round > rs.round then buffer t p.round msg
      else if p.round = rs.round && String.equal p.prev_hash rs.prev_hash then begin
        if Proposal.validate ~credential:(proposer_credential t rs) p then begin
          note_remote_priority t rs;
          consider_priority rs p
        end
      end
    | Message.Block_gossip b | Message.Block_reply b ->
      if Block.round b > rs.round then buffer t (Block.round b) msg
      else if Block.round b = rs.round then begin
        if validate_block t rs b then begin
          record_proposed_block rs b;
          let h = Block.hash b in
          (* A node blocked on the proposal, or one that already agreed
             on this hash, can now make progress. *)
          (match rs.decided_value with
          | Some v when String.equal v h -> complete_round t rs b
          | _ -> ());
          if rs.waiting_for_block && rs.ba = None then begin
            match rs.best_priority with
            | Some best when String.equal best.proposer_pk b.header.proposer_pk ->
              if Hashtbl.mem rs.equivocators best.proposer_pk then
                start_ba t rs ~hblock:rs.empty_hash
              else start_ba t rs ~hblock:h
            | _ -> ()
          end
        end
      end
    | Message.Ba_vote v ->
      if v.round > rs.round then begin
        buffer t v.round msg;
        (* Votes two or more rounds ahead mean the network moved on
           without us (one ahead is normal under pipelining): catch up
           via certified history instead of waiting to hang. *)
        if
          t.config.resync_enabled && v.round > rs.round + 1
          && v.round < recovery_round_base
        then begin
          Log.debug (fun m ->
              m "node %d saw round-%d traffic while in round %d; resyncing"
                t.index v.round rs.round);
          begin_resync t
        end
      end
      else if v.round = rs.round then deliver_to_ba t rs v
      else deliver_to_previous t v
    | Message.Block_request _ | Message.Round_request _ | Message.Round_reply _
    | Message.Fork_proposal _ ->
      (* Requests are served before the per-round dispatch. Recovery
         ticks are clock-synchronized, so a fork proposal finds us
         either recovering (handled there) or healthy and not
         interested. *)
      ()

(* With pipelining, the previous round's final-step votes still count
   until it is classified - also once the node has stopped. *)
and open_previous (t : t) ~(round : int) : round_state option =
  match t.previous with
  | Some p when p.round = round && not p.classified -> Some p
  | _ -> None

and deliver_to_previous (t : t) (v : Vote.t) : unit =
  Option.iter (fun p -> deliver_to_ba t p v) (open_previous t ~round:v.round)

and buffer (t : t) (round : int) (msg : Message.t) : unit =
  match Hashtbl.find_opt t.pending round with
  | Some l -> l := msg :: !l
  | None -> Hashtbl.replace t.pending round (ref [ msg ])

(* ------------------------------------------------------------------ *)
(* Live catch-up (restart rejoin and laggard resync).                  *)
(*                                                                     *)
(* Section 8.3's catch-up, run as an online protocol: the node asks    *)
(* one peer at a time for the certified rounds above its tip, with     *)
(* exponential backoff and peer rotation so a lossy network or a dead  *)
(* peer only delays - never strands - the rejoin. Every reply is       *)
(* re-validated against our own chain before it is grafted.            *)
(* ------------------------------------------------------------------ *)

and begin_resync (t : t) : unit =
  drop_round t;
  let st =
    {
      started_at = Engine.now t.engine;
      target_round = (Chain.tip t.chain).height;
      retry = None;
      requests_sent = 0;
      backtrack = 0;
    }
  in
  transition t (Resyncing st);
  arm_resync_retry t st

and arm_resync_retry (t : t) (st : resync_state) : unit =
  (match st.retry with Some r -> Retry.cancel r | None -> ());
  let inc = t.incarnation in
  st.retry <-
    Some
      (Retry.start ~engine:t.engine ~rng:t.rng ~policy:t.config.retry
         ~attempt:(fun _ ->
           match t.phase with
           | Resyncing st' when st' == st && t.incarnation = inc ->
             if st.requests_sent > 0 then Metrics.record_retry t.metrics;
             send_round_request t st
           | _ -> ())
         ~name:"resync" ~registry:(Metrics.registry t.metrics)
         ~trace:(Metrics.trace t.metrics) ())

and send_round_request (t : t) (st : resync_state) : unit =
  let tip = Chain.tip t.chain in
  (* [backtrack] re-requests rounds below our tip after unproductive
     replies: a tip stranded on a dead tentative branch needs the
     divergence point rediscovered from the certified history. *)
  let from_round = max 1 (tip.height + 1 - st.backtrack) in
  st.requests_sent <- st.requests_sent + 1;
  let msg =
    Message.Round_request
      { from_round; requester = t.index; attempt = st.requests_sent }
  in
  let nt = net t in
  match nt.net_peers () with
  | [] -> broadcast t msg
  | peers ->
    let dst = List.nth peers ((st.requests_sent - 1) mod List.length peers) in
    nt.net_send_to ~dst msg

and serve_round_request (t : t) ~(from_round : int) ~(requester : int) : unit =
  if requester <> t.index then begin
    let tip = Chain.tip t.chain in
    (* Bounded reply: at most 8 rounds per request; the requester asks
       again from its new tip. Live rejoin ignores storage sharding -
       a node always serves the recent rounds it still holds. *)
    let upto = min tip.height (from_round + 7) in
    let rec collect r acc =
      if r > upto then List.rev acc
      else begin
        match
          ( Chain.ancestor_at t.chain ~hash:tip.hash ~height:r,
            Hashtbl.find_opt t.certificates r )
        with
        | Some e, Some c when String.equal c.Certificate.block_hash e.hash ->
          collect (r + 1) ((e.block, c) :: acc)
        | _ -> List.rev acc (* stop at the first gap: replies are contiguous *)
      end
    in
    let items = if from_round < 1 then [] else collect from_round [] in
    let current_round =
      match t.current with Some rs -> rs.round | None -> tip.height + 1
    in
    let msg = Message.Round_reply { to_ = requester; current_round; items } in
    (net t).net_send_to ~dst:requester msg
  end

and process_round_reply (t : t) (st : resync_state) ~(current_round : int)
    ~(items : (Block.t * Certificate.t) list) : unit =
  st.target_round <- max st.target_round (current_round - 1);
  let tip_before = (Chain.tip t.chain).hash in
  List.iter (fun (b, c) -> graft_certified t b c) items;
  let tip = Chain.tip t.chain in
  if tip.height >= st.target_round then finish_resync t st
  else if not (String.equal tip.hash tip_before) then begin
    (* Progress: reset backoff and ask for the next batch right away. *)
    st.backtrack <- 0;
    arm_resync_retry t st
  end
  else
    (* Nothing grafted: our tip may sit on a branch the network
       abandoned. Widen the request window; the armed backoff timer
       will send it. *)
    st.backtrack <- min tip.height (max 1 (2 * st.backtrack))

(* Validate and adopt one (block, certificate) pair from a reply. The
   certificate is checked in the context derived from the block's own
   parent (temporarily re-tipping the chain, since contexts are built
   at the tip), so replies can also heal a fork: a certified sibling
   of a block we hold tentatively replaces it as tip. *)
and graft_certified (t : t) (b : Block.t) (c : Certificate.t) : unit =
  let round = Block.round b in
  if String.equal c.Certificate.block_hash (Block.hash b) then begin
    match Chain.find t.chain (Block.prev_hash b) with
    | Some parent when parent.height = round - 1 ->
      let saved = (Chain.tip t.chain).hash in
      Chain.set_tip t.chain parent.hash;
      let ctx =
        History.validation_ctx ~params:t.config.params
          ~sig_scheme:t.config.sig_scheme ~vrf_scheme:t.config.vrf_scheme
          ~chain:t.chain ~round
      in
      let restore () = Chain.set_tip t.chain saved in
      (match Certificate.validate ~params:t.config.params ~ctx c with
      | Error _ -> restore ()
      | Ok () -> (
        match Chain.add t.chain b with
        | Ok e ->
          Chain.set_tip t.chain e.hash;
          Hashtbl.replace t.certificates round c
        | Error `Duplicate -> (
          match Chain.find t.chain (Block.hash b) with
          | Some e ->
            Chain.set_tip t.chain e.hash;
            Hashtbl.replace t.certificates round c
          | None -> restore ())
        | Error (`Unknown_parent | `Wrong_round _ | `Invalid_tx _) -> restore ()))
    | _ -> () (* unknown parent: backtracking will find the fork point *)
  end

(* Back from a catch-up or a recovery attempt: stop if the tip already
   reaches [max_round], else start the round after it once the current
   event settles (unless something else claimed the node first). *)
and rejoin (t : t) : unit =
  if (Chain.tip t.chain).height >= t.config.max_round then transition t Stopped
  else begin
    transition t Idle;
    sched t ~delay:0.0 (fun () ->
        match t.phase with
        | Idle -> start_round t ~r:((Chain.tip t.chain).height + 1)
        | _ -> ())
  end

and finish_resync (t : t) (st : resync_state) : unit =
  rejoin t;
  let latency = Engine.now t.engine -. st.started_at in
  Metrics.record_rejoin t.metrics latency;
  let tr = tracer t in
  if Trace.enabled tr then
    Trace.span tr ~node:t.index ~incarnation:t.incarnation ~start_ts:st.started_at
      ~ts:(Engine.now t.engine) ~cat:"node" ~name:"resync"
      ~detail:[ ("requests", string_of_int st.requests_sent) ]
      ();
  checkpoint t;
  Log.debug (fun m ->
      m "node %d resynced to round %d in %.2fs (%d requests)" t.index
        (Chain.tip t.chain).height latency st.requests_sent)

(* ------------------------------------------------------------------ *)
(* Fork recovery (section 8.2).                                        *)
(*                                                                     *)
(* At every synchronized clock tick all users stop regular processing  *)
(* and run the recovery protocol: fork proposers (chosen by sortition  *)
(* under a recovery seed derived from a pre-fork block) propose their  *)
(* longest fork, everyone adopts the highest-priority proposal, and    *)
(* BA* decides on an empty block extending that fork. Seeds and        *)
(* weights come from the seed-refresh boundary at or below the deepest *)
(* final block ([recovery_anchor]): a block from before any live fork  *)
(* (finality implies uniqueness) that nodes agree on even when they    *)
(* disagree on which recent blocks are final.                          *)
(* ------------------------------------------------------------------ *)

and fork_proposer_role ~(attempt : int) : string =
  Printf.sprintf "fork-proposer|%d" attempt

and deepest_final (t : t) : Chain.entry =
  let tip = Chain.tip t.chain in
  List.fold_left
    (fun (best : Chain.entry) (e : Chain.entry) ->
      if e.final && e.height > best.height then e else best)
    (Chain.genesis_entry t.chain)
    (Chain.ancestry t.chain tip.hash)

and longest_leaf_above (t : t) (stable : Chain.entry) : Chain.entry =
  let candidates =
    List.filter
      (fun (e : Chain.entry) ->
        Chain.descends_from t.chain ~hash:e.hash ~ancestor:stable.hash)
      (Chain.leaves t.chain)
  in
  match candidates with
  | [] -> stable
  | first :: rest ->
    List.fold_left
      (fun (best : Chain.entry) (e : Chain.entry) ->
        if
          e.height > best.height
          || (e.height = best.height && String.compare e.hash best.hash < 0)
        then e
        else best)
      first rest

(* Finality is a local observation: a node that missed the final-step
   votes, or restarted from a store that does not keep them, holds the
   same block as tentative. So the recovery seed and weights come from
   the seed-refresh boundary at or below the deepest final block, the
   quantization regular rounds already use for their seeds (section
   5.2), which every node whose final blocks fall in one refresh
   interval agrees on. *)
and recovery_anchor (t : t) (stable : Chain.entry) : Chain.entry =
  let height = stable.height - (stable.height mod t.config.params.seed_refresh_interval) in
  Option.value ~default:stable (Chain.ancestor_at t.chain ~hash:stable.hash ~height)

and engage_recovery (t : t) ~(attempt : int) : unit =
  drop_round t;
  t.recovery_generation <- t.recovery_generation + 1;
  let stable = deepest_final t in
  let anchor = recovery_anchor t stable in
  let rseed = Sha256.digest_concat [ "recovery"; anchor.seed; string_of_int attempt ] in
  let rweights = anchor.balances_after in
  let rs =
    {
      generation = t.recovery_generation;
      attempt;
      stable;
      anchor;
      rseed;
      rweights;
      rtotal_weight = Balances.total rweights;
      best_fork = None;
      fork_round = -1;
      rvote_round = -1;
      rempty_hash = "";
      rtip_hash = "";
      rba = None;
      rverdicts = Vote_tbl.create ~random:true 64;
      rbuffered = [];
    }
  in
  transition t (Recovering rs);
  let p = t.config.params in
  (* Fork proposal, if sortition selects us. *)
  let sel =
    Algorand_sortition.Sortition.select ~prover:t.identity.prover ~seed:rseed
      ~tau:p.tau_proposer ~role:(fork_proposer_role ~attempt)
      ~w:(Balances.balance rweights t.identity.pk) ~total_weight:rs.rtotal_weight
  in
  (match Algorand_sortition.Sortition.best_priority ~vrf_hash:sel.vrf_hash ~j:sel.j with
  | None -> ()
  | Some priority ->
    let leaf = longest_leaf_above t stable in
    let suffix =
      Chain.ancestry t.chain leaf.hash
      |> List.rev
      |> List.filter (fun (e : Chain.entry) -> e.height > stable.height)
      |> List.map (fun (e : Chain.entry) -> e.block)
    in
    let f =
      {
        Message.attempt;
        proposer_pk = t.identity.pk;
        vrf_hash = sel.vrf_hash;
        vrf_proof = sel.vrf_proof;
        priority;
        suffix;
        tip_hash = leaf.hash;
      }
    in
    consider_fork rs f;
    broadcast t (Message.Fork_proposal f));
  sched t ~delay:(p.lambda_priority +. p.lambda_stepvar) (fun () ->
      match t.phase with
      | Recovering rs' when rs'.generation = rs.generation -> adopt_fork t rs
      | _ -> ())

and consider_fork (rs : recovery_state) (f : Message.fork_proposal) : unit =
  match rs.best_fork with
  | Some best when String.compare best.priority f.priority >= 0 -> ()
  | _ -> rs.best_fork <- Some f

and validate_fork_proposal (t : t) (rs : recovery_state) (f : Message.fork_proposal) :
    bool =
  let p = t.config.params in
  f.attempt = rs.attempt
  && (let j =
        Algorand_sortition.Sortition.verify ~scheme:t.config.vrf_scheme
          ~pk:(Identity.vrf_pk f.proposer_pk) ~vrf_hash:f.vrf_hash
          ~vrf_proof:f.vrf_proof ~seed:rs.rseed ~tau:p.tau_proposer
          ~role:(fork_proposer_role ~attempt:rs.attempt)
          ~w:(Balances.balance rs.rweights f.proposer_pk)
          ~total_weight:rs.rtotal_weight
      in
      Proposal.claims_best_priority ~j ~vrf_hash:f.vrf_hash ~priority:f.priority)
  &&
  (* The proposed fork grafts onto a block we hold above the anchor and
     forms a linked chain ending at the claimed tip, and that chain
     keeps every block we know final: a proposer that saw less finality
     than we did still proposes a valid fork as long as it does not
     revert ours. *)
  let keeps_final (parent : Chain.entry) =
    Chain.descends_from t.chain ~hash:parent.hash ~ancestor:rs.stable.hash
    || List.exists (fun b -> String.equal (Block.hash b) rs.stable.hash) f.suffix
  in
  let graft_point =
    match f.suffix with [] -> f.tip_hash | first :: _ -> Block.prev_hash first
  in
  match Chain.find t.chain graft_point with
  | None -> false
  | Some parent ->
    Chain.descends_from t.chain ~hash:parent.hash ~ancestor:rs.anchor.hash
    && keeps_final parent
    &&
    let rec linked prev = function
      | [] -> String.equal prev f.tip_hash
      | (b : Block.t) :: rest ->
        String.equal (Block.prev_hash b) prev && linked (Block.hash b) rest
    in
    linked graft_point f.suffix

and adopt_fork (t : t) (rs : recovery_state) : unit =
  match rs.best_fork with
  | None -> abandon_recovery t rs
  | Some f ->
    let grafted =
      List.for_all
        (fun b ->
          match Chain.add t.chain b with
          | Ok _ | Error `Duplicate -> true
          | Error (`Unknown_parent | `Wrong_round _ | `Invalid_tx _) -> false)
        f.suffix
    in
    if (not grafted) || not (Chain.mem t.chain f.tip_hash) then abandon_recovery t rs
    else begin
      let tip = Option.get (Chain.find t.chain f.tip_hash) in
      rs.fork_round <- tip.height + 1;
      rs.rvote_round <- (recovery_round_base * rs.attempt) + rs.fork_round;
      rs.rtip_hash <- tip.hash;
      rs.rempty_hash <- Proposal.empty_hash ~round:rs.fork_round ~prev_hash:tip.hash;
      let vctx =
        vote_ctx t ~seed:rs.rseed ~weights:rs.rweights ~total_weight:rs.rtotal_weight
          ~prev_hash:tip.hash
      in
      let ctx : Ba_star.ctx =
        {
          params = t.config.params;
          round = rs.rvote_round;
          empty_hash = rs.rempty_hash;
          my_votes =
            (fun ~step ~value ->
              Option.to_list
                (sign_vote t ~verdicts:rs.rverdicts ~seed:rs.rseed ~weights:rs.rweights
                   ~total_weight:rs.rtotal_weight ~round:rs.rvote_round
                   ~prev_hash:rs.rtip_hash ~step ~value));
          validate = cached_weight rs.rverdicts vctx;
        }
      in
      let ba = Ba_star.create ctx in
      rs.rba <- Some ba;
      let buffered = List.rev rs.rbuffered in
      rs.rbuffered <- [];
      List.iter
        (fun v -> apply_recovery_actions t rs (Ba_star.handle ba (Ba_star.Deliver v)))
        buffered;
      apply_recovery_actions t rs (Ba_star.handle ba (Ba_star.Start rs.rempty_hash))
    end

and apply_recovery_actions (t : t) (rs : recovery_state) (actions : Ba_star.action list) :
    unit =
  List.iter
    (fun action ->
      match action with
      | Ba_star.Broadcast v ->
        broadcast t (Message.Ba_vote v);
        deliver_to_recovery_ba t rs v
      | Ba_star.Set_timer { token; delay } ->
        sched t ~delay (fun () ->
            match (t.phase, rs.rba) with
            | Recovering rs', Some ba when rs'.generation = rs.generation ->
              apply_recovery_actions t rs (Ba_star.handle ba (Ba_star.Timer token))
            | _ -> ())
      | Ba_star.Bin_decided _ -> ()
      | Ba_star.Decided { value; final = _; bin_steps = _ } ->
        finish_recovery t rs ~value
      | Ba_star.Hang -> abandon_recovery t rs)
    actions

and deliver_to_recovery_ba (t : t) (rs : recovery_state) (v : Vote.t) : unit =
  match rs.rba with
  | Some ba -> apply_recovery_actions t rs (Ba_star.handle ba (Ba_star.Deliver v))
  | None -> rs.rbuffered <- v :: rs.rbuffered

and finish_recovery (t : t) (rs : recovery_state) ~(value : string) : unit =
  if not (String.equal value rs.rempty_hash) then abandon_recovery t rs
  else begin
    let b = Block.empty ~round:rs.fork_round ~prev_hash:rs.rtip_hash in
    (match Chain.add t.chain b with
    | Ok _ | Error `Duplicate -> ()
    | Error (`Unknown_parent | `Wrong_round _ | `Invalid_tx _) -> ());
    (match Chain.find t.chain (Block.hash b) with
    | Some e -> Chain.set_tip t.chain e.hash
    | None -> ());
    t.recoveries_completed <- t.recoveries_completed + 1;
    Log.debug (fun m ->
        m "node %d recovered to round %d at %.1fs" t.index rs.fork_round
          (Engine.now t.engine));
    checkpoint t;
    rejoin t
  end

and abandon_recovery (t : t) (rs : recovery_state) : unit =
  match t.phase with
  | Recovering _ ->
    Log.debug (fun m ->
        m "node %d abandoned recovery attempt %d" t.index rs.attempt);
    (* An attempt that found no quorum cannot tell a network that is
       stuck with us from one that finished without us: peers that
       already stopped never join recovery, and a crash or a partition
       can have kept every sign of their progress from us. So ask them:
       catch-up grafts whatever certified rounds they hold and rejoins
       at once when they hold none. Without catch-up, resume the
       stalled round; the next synchronized tick retries. *)
    let tip = Chain.tip t.chain in
    if tip.height >= t.config.max_round then transition t Stopped
    else if t.config.resync_enabled then begin_resync t
    else begin
      transition t Idle;
      start_round t ~r:(tip.height + 1)
    end
  | _ -> ()

and process_recovery_message (t : t) (rs : recovery_state) (msg : Message.t) : unit =
  match msg with
  | Message.Tx tx -> ignore (Txpool.add t.txpool tx)
  | Message.Fork_proposal f ->
    if validate_fork_proposal t rs f then consider_fork rs f
  | Message.Ba_vote v ->
    if rs.rba = None || v.round = rs.rvote_round then deliver_to_recovery_ba t rs v
  | Message.Priority _ | Message.Block_gossip _ | Message.Block_reply _
  | Message.Block_request _ | Message.Round_request _ | Message.Round_reply _ ->
    ()

(* Stateless plausibility check for votes we cannot fully validate yet
   (future rounds, resync, recovery): the signature must at least
   verify. Without this, blind-relay paths would mark a corrupted
   variant as seen - poisoning the dedup cache and suppressing the
   honest original, which shares its gossip id. Byzantine equivocation
   is unaffected: a double-vote is validly signed. *)
let vote_plausible (t : t) (v : Vote.t) : bool =
  t.config.sig_scheme.verify
    ~pk:(Identity.sig_pk v.voter_pk)
    ~msg:(Vote.signed_body v) ~signature:v.signature

let previous_vote_valid (t : t) (v : Vote.t) : bool =
  match open_previous t ~round:v.round with Some p -> vote_weight t p v > 0 | None -> false

(* Gossip relay gating (section 8.4): validate what can be validated at
   our current round; relay plausible near-future messages so laggards
   do not partition the overlay; drop stale rounds. *)
let gossip_validate (t : t) (msg : Message.t) : bool =
  match (t.phase, msg) with
  | Down, _ -> false
  | _, (Message.Round_request _ | Message.Round_reply _) ->
    (* Point-to-point catch-up traffic: never relayed by the overlay,
       but delivery still requires passing validation. *)
    true
  | (Resyncing _ | Recovering _), Message.Ba_vote v -> vote_plausible t v
  | Resyncing _, _ ->
    (* We are behind: everything current is plausibly ahead of us.
       Relay it rather than partition the overlay around a laggard. *)
    true
  (* During recovery, relay recovery traffic and anything we cannot
     judge yet; regular-round traffic is stale by construction. *)
  | Recovering _, (Message.Priority _ | Message.Block_gossip _) -> false
  | Recovering _, _ -> true
  | (Idle | Running | Hung | Stopped), _ -> (
  match t.current with
  | None -> (
    match msg with
    | Message.Fork_proposal _ -> true
    | Message.Ba_vote v -> previous_vote_valid t v
    | Message.Block_request _ ->
      (* A stopped node still serves block fetches: the last round's
         late deciders depend on someone answering. *)
      true
    | _ -> false)
  | Some rs -> (
    match msg with
    | Message.Tx _ -> true
    | Message.Priority p -> p.round >= rs.round
    | Message.Block_gossip b ->
      (* Priority-based block discard (section 6): relay a block only
         if it comes from the highest-priority proposer seen so far,
         so the network carries ~one full block per round instead of
         tau_proposer of them. *)
      Block.round b > rs.round
      || Block.round b = rs.round
         && (match rs.best_priority with
            | None -> true
            | Some best -> String.equal b.header.proposer_pk best.proposer_pk)
    | Message.Ba_vote v ->
      if v.round > rs.round then vote_plausible t v
      else if v.round = rs.round then vote_weight t rs v > 0
      else previous_vote_valid t v
    | Message.Block_request _ | Message.Block_reply _ | Message.Fork_proposal _
    | Message.Round_request _ | Message.Round_reply _ ->
      true))

(* CPU model: message processing is serialized through one core with a
   per-kind cost; with the default sub-millisecond costs this matters
   only when thousands of votes land at once (the very effect the paper
   hit at 500k users, section 10.1). *)
let cpu_cost (t : t) (msg : Message.t) : float =
  match msg with
  | Message.Ba_vote _ -> t.config.cpu_vote_verify_s
  | Message.Block_gossip _ | Message.Block_reply _ | Message.Fork_proposal _
  | Message.Round_reply _ ->
    t.config.cpu_block_verify_s
  | Message.Tx _ | Message.Priority _ | Message.Block_request _
  | Message.Round_request _ ->
    0.0

let deliver (t : t) ~src:(_ : int) (msg : Message.t) : unit =
  match t.phase with
  | Down -> ()
  | _ ->
    let cost = cpu_cost t msg in
    if cost <= 0.0 then process_message t msg
    else begin
      let now = Engine.now t.engine in
      let start = Float.max now t.cpu_free_at in
      t.cpu_free_at <- start +. cost;
      (* The verdict gossip validation just read for this message, if
         it is a vote: other deliveries overwrite the slot before this
         one is processed. *)
      let verdict = t.last_verdict in
      (* Incarnation-guarded: a message sitting in the modeled CPU queue
         when the node crashes must not surface after the restart. *)
      sched t ~delay:(start +. cost -. now) (fun () ->
          t.last_verdict <- verdict;
          process_message t msg)
    end

let start (t : t) : unit =
  if t.config.recovery_enabled && t.config.params.recovery_interval > 0.0 then begin
    (* Loosely synchronized clocks: everyone kicks off recovery at the
       same absolute multiples of the interval (section 8.2). *)
    let interval = t.config.params.recovery_interval in
    let rec tick k () =
      (* A crashed node misses its ticks; a resyncing one rejoins
         through catch-up instead. The tick chain itself persists
         across crashes (it belongs to the node, not a round). *)
      match t.phase with
      | Stopped -> ()
      | phase ->
        (match phase with Down | Resyncing _ -> () | _ -> engage_recovery t ~attempt:k);
        Engine.at t.engine ~time:(float_of_int (k + 1) *. interval) (tick (k + 1))
    in
    Engine.at t.engine ~time:interval (tick 1)
  end;
  start_round t ~r:1

(* Population-engine entry points: a per-round materialized node is
   handed a clone of the canonical certified prefix and starts at the
   round after its tip, instead of replaying from genesis. *)
let adopt_chain (t : t) (chain : Chain.t) : unit =
  match t.phase with
  | Idle -> t.chain <- chain
  | _ -> invalid_arg "Node.adopt_chain: node not idle"

let start_from_tip (t : t) : unit =
  let tip = Chain.tip t.chain in
  if tip.height >= t.config.max_round then transition t Stopped
  else start_round t ~r:(tip.height + 1)

let recoveries_completed (t : t) : int = t.recoveries_completed

let set_on_round_complete (t : t) f : unit = t.on_round_complete <- Some f

(* Adaptive corruption (Wang, "Another Look at ALGORAND"): the
   adversary turns a node byzantine *mid-run*, after its VRF proof has
   revealed it as a committee member. Only future sends are affected:
   votes already broadcast were signed and sent, and the section 11
   ephemeral-key discipline means the step key behind them is erased,
   so corruption cannot retro-equivocate a past step - which is exactly
   the race this hook lets the harness model. *)
let set_byzantine (t : t) (b : byzantine option) : unit =
  t.config <- { t.config with byzantine = b }

(* Submit a transaction at this node (entering its pool and the gossip
   network), as a wallet would. *)
let submit_tx (t : t) (tx : Transaction.t) : unit =
  match t.phase with
  | Down -> ()
  | _ -> if Txpool.add t.txpool tx then broadcast t (Message.Tx tx)

(* ------------------------------------------------------------------ *)
(* Crash and restart.                                                  *)
(* ------------------------------------------------------------------ *)

(* A crash is total: every in-memory structure is dropped, exactly as a
   killed process would lose them. Only [store_dir] (and the node's
   keys, which real deployments keep on disk too) survives. The
   incarnation bump makes every armed timer and queued CPU delivery
   from this life a no-op. *)
let crash (t : t) : unit =
  match t.phase with
  | Down -> ()
  | _ ->
    transition t Down;
    t.crash_count <- t.crash_count + 1;
    drop_round t;
    Hashtbl.reset t.pending;
    Hashtbl.reset t.certificates;
    Hashtbl.reset t.final_certificates;
    t.chain <- Chain.create t.genesis;
    t.txpool <- Txpool.create ();
    t.cpu_free_at <- 0.0;
    t.last_checkpoint <- 0;
    Metrics.record_crash t.metrics;
    Log.debug (fun m -> m "node %d crashed at %.2fs" t.index (Engine.now t.engine))

(* Restart: reload the durable checkpoint (never trusted - every
   certificate is re-validated by History.replay, and a corrupt or
   truncated tail costs only the tail), then rejoin through live
   catch-up. *)
let restart (t : t) : unit =
  match t.phase with
  | Down ->
    transition t Idle;
    t.incarnation <- t.incarnation + 1;
    t.cpu_free_at <- Engine.now t.engine;
    Metrics.record_restart t.metrics;
    (match t.config.store_dir with
    | None -> ()
    | Some dir ->
      let items, err = Disk_store.load dir in
      (match err with
      | Some e ->
        Log.debug (fun m ->
            m "node %d: store truncated: %a" t.index Disk_store.pp_load_error e)
      | None -> ());
      (* Replay what validates; on a failure, retry with the prefix
         below the offending round so a bad tail costs only the tail. *)
      let rec replay_prefix items =
        if items = [] then ()
        else begin
          match
            History.replay ~params:t.config.params ~sig_scheme:t.config.sig_scheme
              ~vrf_scheme:t.config.vrf_scheme ~genesis:t.genesis items
          with
          | Ok chain ->
            t.chain <- chain;
            List.iter
              (fun ({ block; certificate } : History.item) ->
                Hashtbl.replace t.certificates (Block.round block) certificate)
              items;
            t.last_checkpoint <- (Chain.tip chain).height
          | Error e ->
            Log.warn (fun m ->
                m "node %d: checkpoint replay: %a" t.index History.pp_error e);
            let bad =
              match e with
              | `Round (r, _) | `Chain (r, _) | `Hash_mismatch r -> r
              | `Final_certificate _ -> 0
            in
            replay_prefix
              (List.filter
                 (fun ({ block; _ } : History.item) -> Block.round block < bad)
                 items)
        end
      in
      replay_prefix items);
    Log.debug (fun m ->
        m "node %d restarted at %.2fs with %d durable rounds" t.index
          (Engine.now t.engine)
          (Chain.tip t.chain).height);
    if t.config.resync_enabled then begin_resync t
    else start_from_tip t
  | _ -> ()

let crash_count (t : t) : int = t.crash_count
let incarnation (t : t) : int = t.incarnation
