(* Experiment harness: builds a complete simulated deployment - users
   with stakes, genesis, WAN topology, gossip overlay, workload,
   adversary - runs it for a number of rounds, and checks the safety
   property across all users (section 3: no two honest users accept
   conflicting blocks; no two different final blocks per round).

   This is the module every experiment in section 10 goes through. *)

module Params = Algorand_ba.Params
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Rng = Algorand_sim.Rng
module Topology = Algorand_netsim.Topology
module Network = Algorand_netsim.Network
module Gossip = Algorand_netsim.Gossip
module Adversary = Algorand_netsim.Adversary
module Trace = Algorand_obs.Trace
module Registry = Algorand_obs.Registry
module Transaction = Algorand_ledger.Transaction
module Genesis = Algorand_ledger.Genesis
module Chain = Algorand_ledger.Chain
module Block = Algorand_ledger.Block
module Balances = Algorand_ledger.Balances
module Workload = Algorand_ledger.Workload

type crypto = Deployment.crypto = Real_crypto | Sim_crypto

(* Crash-restart fault injection: who goes down, when, for how long. *)
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
      (** one mass outage: a random fraction all crash (and later
          restart) together - the rack/AZ failure shape *)

type attack =
  | Equivocate  (** section 10.4: malicious proposers + double-voting committee *)
  | Partition of { from_ : float; until : float }
      (** network split into two halves (weak synchrony) *)
  | Targeted_dos of { fraction : float; from_ : float; until : float }
      (** drop all traffic of a random user fraction *)
  | Delay_votes of { delay : float; from_ : float; until : float }
      (** the section 7.4 scheduling flavor: BinaryBA* votes are held
          past the step timeout, so steps resolve by timeout and the
          groups' next votes are steered by what trickled in; the
          common coin must get the network unstuck once delivery
          resumes *)
  | Crash_churn of crash_plan
      (** crash-restart fault injection: victims lose all in-memory
          state, reload their durable checkpoint, and rejoin via live
          catch-up while the rest of the network keeps going *)
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
          sortition-valid - and unserviceable for the step it was for
          (stale deliveries across period boundaries) *)
  | Adaptive_corrupt of { fraction : float; from_ : float; until : float }
      (** Wang's adaptive corruption: the moment a node's VRF proof
          reveals it as a committee member (its vote crosses the wire),
          the adversary corrupts it - but only future steps equivocate,
          because the revealing step's ephemeral key is already erased
          (section 11); up to [fraction] of users, permanently *)

(* Workload shaping for the transaction stream: accounts are the
   deployment's own users (synthetic extra accounts would dilute
   sortition stake), so the profile only picks skew, mix and bursts. *)
type tx_profile = {
  tx_zipf_s : float;
  tx_mix : Workload.mix;
  tx_burst : Workload.burst option;
}

let hostile_profile =
  { tx_zipf_s = 1.1; tx_mix = Workload.hostile; tx_burst = None }

(* Wire mode: [`Typed] ships OCaml values through the simulated WAN
   (the fast path); [`Bytes] encodes every message via Codec at the
   sender and decodes it at each receiving hop - the hostile-wire
   configuration where corruption and garbage are survivable events
   rather than type errors. *)
type wire = [ `Typed | `Bytes ]

type config = {
  users : int;
  stake_distribution : [ `Equal | `Linear ];
      (** [`Equal] matches the paper's setup (it maximizes message
          count); [`Linear] gives user i stake proportional to i+1,
          exercising weighted sortition and weighted peer selection. *)
  params : Params.t;
  block_bytes : int;
  rounds : int;
  rng_seed : int;
  crypto : crypto;
  bandwidth_bps : float;
  fanout : int;
  malicious_fraction : float;  (** fraction of users (hence stake) that is malicious *)
  attacks : attack list;
      (** every attack is wired through the same entrypoint, so the
          swarm can run churn x loss x flood x corrupt x byzantine in
          one deployment. Order matters for tie-breaking adversary
          verdicts (first non-Deliver wins) and for the per-attack RNG
          labels, which are keyed by position. *)
  tx_rate_per_s : float;
  tx_profile : tx_profile option;
      (** hostile workload shaping (Zipf skew, invalid/duplicate/
          self-pay mixes, bursts) layered on [tx_rate_per_s]; [None]
          keeps the legacy uniform all-valid Poisson stream, so
          committed artifacts of profile-less runs replay unchanged *)
  max_sim_time : float;
  cpu_vote_verify_s : float;
  cpu_block_verify_s : float;
  recovery_enabled : bool;  (** run the section 8.2 recovery protocol on clock ticks *)
  storage_shards : int;  (** section 8.3 sharded block/certificate serving *)
  pipeline_final : bool;  (** overlap final-step classification with the next round *)
  loss : float;  (** uniform message-loss probability, composed with any attack *)
  duplication : float;  (** uniform message-duplication probability *)
  store_root : string option;
      (** root directory for per-node durable checkpoints; [None] means
          no persistence, except under [Crash_churn], which creates (and
          owns) a temporary root so restarts have something to reload *)
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

let default =
  {
    users = 50;
    stake_distribution = `Equal;
    params = Params.paper;
    block_bytes = 1_000_000;
    rounds = 3;
    rng_seed = 42;
    crypto = Sim_crypto;
    bandwidth_bps = 20e6;
    fanout = 4;
    malicious_fraction = 0.0;
    attacks = [];
    tx_rate_per_s = 2.0;
    tx_profile = None;
    max_sim_time = 3_600.0;
    cpu_vote_verify_s = 0.0002;
    cpu_block_verify_s = 0.005;
    recovery_enabled = false;
    storage_shards = 1;
    pipeline_final = false;
    loss = 0.0;
    duplication = 0.0;
    store_root = None;
    trace = None;
    wire = `Typed;
    gossip_limits = None;
    deterministic_ts = false;
  }

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
  mutable workload : Workload.t option;
      (** the profile-driven generator, when [tx_profile] is set *)
  mutable legacy_submitted : int;
      (** transactions injected by the profile-less legacy stream *)
}

type safety_report = {
  agreement_rounds : int;  (** rounds on which every user agrees *)
  forked_rounds : int list;  (** rounds with conflicting blocks across users *)
  double_final : int list;  (** rounds with two different *final* blocks: must be [] *)
}

(* Post-run accounting of the crash-restart machinery. Meaningful for
   any run (all zeros without churn). *)
type churn_report = {
  crashes : int;
  restarts : int;
  rejoins : int;  (** completed live catch-ups *)
  mean_rejoin_s : float;
  max_rejoin_s : float;
  retries : int;  (** re-issued catch-up / block-fetch requests *)
  divergent_restarted : int list;
      (** restarted nodes whose chain disagrees with the majority chain
          at some height they both cover: must be [] *)
  unfinished : int list;
      (** nodes still down, resyncing, hung, or mid-round at quiescence:
          must be [] when every crash gets a restart *)
}

(* Post-run accounting of the hostile-wire machinery: what the ingress
   pipeline dropped and who got disconnected for it. All zeros on a
   clean typed run. *)
type wire_report = {
  decode_failures : int;
  quota_drops : int;
  banned_links : int;
  banned_nodes : int list;  (** nodes banned by at least one peer *)
  invalid_dropped : int;
  duplicates_dropped : int;
}

(* Transaction-path accounting: what the workload injected and what the
   canonical chain actually committed. [conservation_ok] re-checks the
   money-supply invariant on the tip balances - the self-payment
   inflation bug is the kind of error only this audit catches. *)
type tx_report = {
  submitted : int;
  submitted_invalid : int;
  submitted_duplicate : int;
  submitted_self_pay : int;
  committed : int;  (** transactions in node 0's canonical chain *)
  committed_self_pay : int;
  conservation_ok : bool;  (** tip balances sum to the genesis total *)
}

type result = {
  harness : t;
  sim_time : float;
  events : int;
  safety : safety_report;
  completion : Algorand_sim.Stats.summary;  (** per-user round completion times *)
  final_rounds : int;  (** rounds that reached final consensus somewhere *)
  tentative_rounds : int;
  churn : churn_report;
  wire : wire_report;
  txs : tx_report;
}

let schemes = Deployment.schemes

(* Distinct auto store roots even for identical configs run twice in
   one process (torture tests sweep hundreds of seeds). *)
let store_instance = ref 0

let rec rm_rf (path : string) : unit =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let build (config : config) : t =
  (* All wiring below - byzantine flags, durable stores, flood
     defense, in-flight adversaries, fault scheduling - iterates this
     list, so a composed run behaves exactly like each attack alone,
     superposed. *)
  let attacks = config.attacks in
  let deployment =
    Deployment.make ~crypto:config.crypto ~stake_law:config.stake_distribution ~seed:config.rng_seed ~users:config.users
      ~params:config.params ~block_bytes:config.block_bytes ~rounds:config.rounds ()
  in
  let identities, genesis = Deployment.roster deployment in
  let engine = Engine.create () in
  let trace = match config.trace with Some tr -> tr | None -> Trace.create () in
  let registry = Registry.create () in
  let metrics = Metrics.create ~registry ~trace ~users:config.users () in
  let rng = Rng.create config.rng_seed in
  let topology = Topology.create ~nodes:config.users (Rng.split rng "topology") in
  let network =
    Network.create ~bandwidth_bps:config.bandwidth_bps
      ~on_send:(fun ~src ~bytes -> Metrics.record_bytes_sent metrics ~user:src bytes)
      ~on_receive:(fun ~dst ~bytes -> Metrics.record_bytes_received metrics ~user:dst bytes)
      ~engine ~topology ()
  in
  let malicious_count =
    int_of_float (Float.round (config.malicious_fraction *. float_of_int config.users))
  in
  let malicious =
    (* Random subset so city assignment does not correlate with behavior. *)
    let l = Rng.sample_indices (Rng.split rng "malicious") ~n:config.users ~k:malicious_count in
    let s = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace s i ()) l;
    s
  in
  (* Durable checkpoints: explicit root, or a temp root owned by this
     harness when churn needs one. *)
  let store_root, owns_store =
    match
      ( config.store_root,
        List.exists (function Crash_churn _ -> true | _ -> false) attacks )
    with
    | Some root, _ -> (Some root, false)
    | None, true ->
      incr store_instance;
      let root =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "algorand-churn-%d-%d-%d" (Unix.getpid ())
             config.rng_seed !store_instance)
      in
      (Some root, true)
    | None, false -> (None, false)
  in
  (match store_root with Some root -> Disk_store.mkdir_p root | None -> ());
  let base_config = Deployment.node_config deployment in
  let node_config i : Node.config =
    {
      base_config with
      byzantine =
        (if Hashtbl.mem malicious i && List.mem Equivocate attacks then
           Some { Node.equivocate_proposal = true; double_vote = true }
         else None);
      cpu_vote_verify_s = config.cpu_vote_verify_s;
      cpu_block_verify_s = config.cpu_block_verify_s;
      recovery_enabled = config.recovery_enabled;
      storage_shards = config.storage_shards;
      pipeline_final = config.pipeline_final;
      store_dir =
        Option.map
          (fun root -> Filename.concat root (Printf.sprintf "node-%03d" i))
          store_root;
      deterministic_ts = config.deterministic_ts;
    }
  in
  let nodes =
    Array.init config.users (fun i ->
        Node.create ~index:i ~identity:identities.(i) ~config:(node_config i) ~engine
          ~metrics ~rng:(Deployment.node_rng rng i) ~genesis ())
  in
  let weights =
    Array.init config.users (fun i -> float_of_int (Deployment.stake deployment i))
  in
  let gossip_config : Message.t Gossip.config =
    {
      msg_id = Message.id;
      validate = (fun node msg -> Node.gossip_validate nodes.(node) msg);
      deliver = (fun node ~src msg -> Node.deliver nodes.(node) ~src msg);
      fanout = config.fanout;
      point_to_point = Message.point_to_point;
    }
  in
  (* Hostile-wire mode: every message crosses the WAN as Codec bytes,
     decoded under limits derived from this experiment's own
     parameters. The decoder closure is what every receiving hop runs
     on untrusted ingress. *)
  let codec_limits = Codec.limits_of_params ~block_bytes:config.block_bytes config.params in
  let codec : Message.t Gossip.codec option =
    match config.wire with
    | `Typed -> None
    | `Bytes ->
      Some { Gossip.enc = Codec.encode; dec = Codec.decode ~limits:codec_limits }
  in
  (* Flood runs get the defense on by default; explicit limits win.
     Honest relay traffic grows with the deployment (every message
     crosses every link, bursting at step boundaries), so the
     auto-enabled quota and drain scale with the user count - a flat
     quota at 50 users has honest peers banning each other. Garbage
     floods are still caught immediately by the decode-fail score. *)
  let gossip_limits =
    match
      ( config.gossip_limits,
        List.exists (function Flood _ -> true | _ -> false) attacks )
    with
    | (Some _ as l), _ -> l
    | None, true ->
      Some
        {
          Gossip.default_limits with
          quota_msgs = max Gossip.default_limits.quota_msgs (20 * config.users);
          drain_per_s =
            Float.max Gossip.default_limits.drain_per_s
              (100.0 *. float_of_int config.users);
        }
    | None, false -> None
  in
  let gossip =
    Gossip.create ~registry ~trace ?codec ?limits:gossip_limits ~net:network
      ~rng:(Rng.split rng "gossip") ~weights gossip_config
  in
  Array.iter (fun n -> Node.set_gossip n gossip) nodes;
  (* Replace gossip peers each round (section 8.4), keyed off node 0's
     progress as the round clock. *)
  Node.set_on_round_complete nodes.(0) (fun _ ~round:_ ~final:_ ->
      Gossip.redraw gossip ~weights);
  (* Network adversary: the configured attack composed with the uniform
     loss and duplication faults (first non-Deliver verdict wins). *)
  (* The in-flight adversaries now see packets; content-directed ones
     (Delay_votes) peek inside, decoding Raw frames the same way a
     receiver would. *)
  let msg_of_packet : Message.t Gossip.packet -> Message.t option = function
    | Gossip.Plain m -> Some m
    | Gossip.Raw s -> Codec.decode ~limits:codec_limits s
  in
  (* Per-attack Rng split labels: the first attack keeps the bare
     label and later ones get a "-<idx>" suffix. [Rng.split] is stateless
     (derived from parent state + label), so the extra splits never
     perturb any existing stream. *)
  let lbl idx base = if idx = 0 then base else Printf.sprintf "%s-%d" base idx in
  let adversary_of idx (a : attack) :
      Message.t Gossip.packet Network.adversary option =
    match a with
    | Equivocate | Crash_churn _ | Flood _ -> None
    | Corrupt { p; from_; until } ->
      let corrupt = Adversary.corrupt ~rng:(Rng.split rng (lbl idx "corrupt")) ~p in
      Some
        (fun ~now ~src ~dst pkt ->
          if now >= from_ && now < until then corrupt ~now ~src ~dst pkt
          else Network.Deliver)
    | Delay_votes { delay; from_; until } ->
      Some
        (fun ~now ~src:_ ~dst:_ pkt ->
          if now < from_ || now >= until then Network.Deliver
          else
            match msg_of_packet pkt with
            | Some (Message.Ba_vote { step = Algorand_ba.Vote.Bin _; _ }) ->
              Network.Delay delay
            | _ -> Network.Deliver)
    | Partition { from_; until } ->
      let group_of i = if i < config.users / 2 then 0 else 1 in
      Some
        (fun ~now ~src ~dst msg ->
          if now >= from_ then Adversary.partition ~group_of ~until ~now ~src ~dst msg
          else Network.Deliver)
    | Targeted_dos { fraction; from_; until } ->
      let k = int_of_float (fraction *. float_of_int config.users) in
      let targets = Hashtbl.create 16 in
      List.iter
        (fun i -> Hashtbl.replace targets i ())
        (Rng.sample_indices (Rng.split rng (lbl idx "dos")) ~n:config.users ~k);
      Some
        (Adversary.target_nodes
           ~targeted:(fun i -> Hashtbl.mem targets i)
           ~active:(fun now -> now >= from_ && now < until))
    | Undecidable { fraction; from_; until } ->
      (* Conti et al.'s undecidable messages: protocol traffic to the
         chosen laggards is held just past the step horizon. Every
         delivery is still signed and sortition-valid - it is merely
         for a step the receiver has already timed out of, so honest
         nodes must absorb streams of valid-but-unserviceable votes
         and blocks across period boundaries without wedging. *)
      let k =
        min (config.users - 1)
          (max 1 (int_of_float (Float.round (fraction *. float_of_int config.users))))
      in
      let laggards = Hashtbl.create 16 in
      List.iter
        (fun i -> Hashtbl.replace laggards i ())
        (Rng.sample_indices (Rng.split rng (lbl idx "undecidable")) ~n:config.users ~k);
      let stale_delay = config.params.lambda_step *. 1.5 in
      Some
        (fun ~now ~src:_ ~dst pkt ->
          if now < from_ || now >= until || not (Hashtbl.mem laggards dst) then
            Network.Deliver
          else
            match msg_of_packet pkt with
            | Some (Message.Ba_vote _ | Message.Block_gossip _ | Message.Priority _)
              ->
              Network.Delay stale_delay
            | _ -> Network.Deliver)
    | Adaptive_corrupt { fraction; from_; until } ->
      (* Wang-style adaptive corruption: an observing adversary watches
         the wire and corrupts a committee member the moment its vote
         (hence its VRF proof) reveals it. The corruption only flips
         the node's byzantine flags for *future* sends -
         [Node.set_byzantine] cannot retro-sign the revealing step,
         which is exactly the section 11 guarantee: the ephemeral key
         for that step is erased before the adversary can use it. *)
      let index_of_pk = Hashtbl.create config.users in
      Array.iteri
        (fun i (id : Identity.t) -> Hashtbl.replace index_of_pk id.Identity.pk i)
        identities;
      let budget =
        ref (int_of_float (Float.round (fraction *. float_of_int config.users)))
      in
      let corrupted = Hashtbl.create 8 in
      Some
        (fun ~now ~src:_ ~dst:_ pkt ->
          (if now >= from_ && now < until && !budget > 0 then
             match msg_of_packet pkt with
             | Some (Message.Ba_vote v) -> (
               match Hashtbl.find_opt index_of_pk v.Algorand_ba.Vote.voter_pk with
               | Some i when not (Hashtbl.mem corrupted i) ->
                 Hashtbl.replace corrupted i ();
                 decr budget;
                 Node.set_byzantine nodes.(i)
                   (Some { Node.equivocate_proposal = true; double_vote = true })
               | _ -> ())
             | _ -> ());
          Network.Deliver)
  in
  let attack_adversaries =
    List.concat
      (List.mapi (fun idx a -> Option.to_list (adversary_of idx a)) attacks)
  in
  let faults =
    (if config.loss > 0.0 then
       [ Adversary.uniform_loss ~rng:(Rng.split rng "loss") ~p:config.loss ]
     else [])
    @
    if config.duplication > 0.0 then
      [
        Adversary.duplicate ~rng:(Rng.split rng "dup") ~p:config.duplication
          ~window:0.05;
      ]
    else []
  in
  (match attack_adversaries @ faults with
  | [] -> ()
  | [ a ] -> Network.set_adversary network a
  | many -> Network.set_adversary network (Adversary.compose many));
  (* Flood attack: a random subset of users starts pumping garbage
     frames at its peers for the window. Flooders keep running the
     protocol normally otherwise - the worst case for detection, since
     their honest traffic is interleaved with the garbage. *)
  let flooders =
    List.mapi
      (fun idx a ->
        match a with
        | Flood { flooders; rate_per_s; frame_bytes; from_; until } ->
          let k =
            min (config.users - 1)
              (max 1
                 (int_of_float (Float.round (flooders *. float_of_int config.users))))
          in
          let chosen =
            Rng.sample_indices (Rng.split rng (lbl idx "flooders")) ~n:config.users ~k
          in
          let flood_rng = Rng.split rng (lbl idx "flood") in
          Engine.at engine ~time:from_ (fun () ->
              List.iter
                (fun node ->
                  Adversary.flood ~engine
                    ~rng:(Rng.split flood_rng (string_of_int node))
                    ~gossip ~node ~rate_per_s ~bytes:frame_bytes ~until)
                chosen);
          chosen
        | _ -> [])
      attacks
    |> List.concat |> List.sort_uniq compare
  in
  (* Crash-restart churn: crash takes the node's network interface down
     too (in-flight packets to it are lost); restart re-links the node
     into the gossip overlay with fresh peers before it resyncs. *)
  List.iteri
    (fun idx a ->
      match a with
      | Crash_churn plan ->
        let churn_rng = Rng.split rng (lbl idx "churn") in
        let crash_one ~down_for i =
          match Node.status nodes.(i) with
          | Down | Stopped -> ()
          | Idle | Running | Hung | Recovering | Resyncing ->
            Node.crash nodes.(i);
            Network.set_up network i false;
            Engine.schedule engine ~delay:down_for (fun () ->
                Network.set_up network i true;
                Gossip.relink gossip ~node:i ~weights;
                Node.restart nodes.(i))
        in
        let pick fraction =
          let k =
            int_of_float (Float.round (fraction *. float_of_int config.users))
          in
          let k = min (max 1 k) (config.users - 1) in
          Rng.sample_indices churn_rng ~n:config.users ~k
        in
        (match plan with
        | One_shot { at; victims; down_for } ->
          Engine.at engine ~time:at (fun () ->
              List.iter
                (fun i -> if i >= 0 && i < config.users then crash_one ~down_for i)
                victims)
        | Correlated { at; fraction; down_for } ->
          Engine.at engine ~time:at (fun () ->
              List.iter (crash_one ~down_for) (pick fraction))
        | Periodic { start; period; fraction; down_for; until } ->
          let rec tick time () =
            if time <= until && not (Array.for_all (fun n -> Node.status n = Stopped) nodes) then begin
              if Trace.enabled trace then
                Trace.instant trace ~ts:time ~cat:"harness" ~name:"churn.tick" ();
              List.iter (crash_one ~down_for) (pick fraction);
              Engine.at engine ~time:(time +. period) (tick (time +. period))
            end
          in
          Engine.at engine ~time:start (tick start))
      | _ -> ())
    attacks;
  {
    config;
    engine;
    metrics;
    identities;
    nodes;
    gossip;
    network;
    genesis;
    store_root;
    owns_store;
    flooders;
    workload = None;
    legacy_submitted = 0;
  }

(* Remove the temp checkpoint root, when this harness created one. *)
let cleanup_stores (t : t) : unit =
  match t.store_root with
  | Some root when t.owns_store -> rm_rf root
  | _ -> ()

(* Transaction workload, two flavors sharing the submit-at-origin shape
   (each transaction enters at its sender's node, as a wallet would):

   - legacy (no [tx_profile]): uniform all-valid Poisson stream with
     nonces tracked inline - kept bit-compatible so committed artifacts
     of profile-less runs (FIG7 and friends) replay unchanged;
   - profiled: the [Workload] generator over the deployment's own
     identities, with Zipf skew, hostile mixes and bursts, its
     interarrival clock burst-modulated by the same generator. *)
let install_workload (t : t) : unit =
  if t.config.tx_rate_per_s > 0.0 then begin
    match t.config.tx_profile with
    | None ->
      let rng = Rng.create (t.config.rng_seed + 7919) in
      let nonces = Array.make t.config.users 0 in
      let rec arrival () =
        let all_stopped = Array.for_all (fun n -> Node.round n = 0) t.nodes in
        if not all_stopped then begin
          let payer = Rng.int rng t.config.users in
          let payee = (payer + 1 + Rng.int rng (t.config.users - 1)) mod t.config.users in
          let tx =
            Transaction.make ~signer:t.identities.(payer).signer
              ~sender:t.identities.(payer).pk ~recipient:t.identities.(payee).pk ~amount:1
              ~nonce:nonces.(payer)
          in
          nonces.(payer) <- nonces.(payer) + 1;
          t.legacy_submitted <- t.legacy_submitted + 1;
          Node.submit_tx t.nodes.(payer) tx;
          Engine.schedule t.engine
            ~delay:(Rng.exponential rng ~mean:(1.0 /. t.config.tx_rate_per_s))
            arrival
        end
      in
      Engine.schedule t.engine ~delay:0.5 arrival
    | Some profile ->
      let wl =
        Workload.create
          {
            Workload.accounts =
              Workload.Provided
                {
                  pks = Array.map (fun (id : Identity.t) -> id.pk) t.identities;
                  signers =
                    Array.map (fun (id : Identity.t) -> id.signer) t.identities;
                };
            zipf_s = profile.tx_zipf_s;
            mix = profile.tx_mix;
            burst = profile.tx_burst;
            amount = 1;
            seed = t.config.rng_seed + 7919;
          }
      in
      t.workload <- Some wl;
      let rec arrival () =
        let all_stopped = Array.for_all (fun n -> Node.round n = 0) t.nodes in
        if not all_stopped then begin
          let tx, origin = Workload.next wl in
          Node.submit_tx t.nodes.(origin) tx;
          Engine.schedule t.engine
            ~delay:
              (Workload.interarrival wl ~now:(Engine.now t.engine)
                 ~rate_per_s:t.config.tx_rate_per_s)
            arrival
        end
      in
      Engine.schedule t.engine ~delay:0.5 arrival
  end

(* Every node's chain as one column per height, the shape of the
   shared tally: [(by_height t).(h - 1).(i)] is node [i]'s (hash, final)
   at height [h], or [None] above its tip. *)
let by_height (t : t) : (string * bool) option array array =
  let paths =
    Array.map
      (fun node ->
        let chain = Node.chain node in
        Chain.ancestry chain (Chain.tip chain).hash)
      t.nodes
  in
  let top =
    Array.fold_left
      (fun acc path -> match path with (e : Chain.entry) :: _ -> max acc e.height | [] -> acc)
      0 paths
  in
  let columns = Array.init top (fun _ -> Array.make (Array.length t.nodes) None) in
  Array.iteri
    (fun i path ->
      List.iter
        (fun (e : Chain.entry) ->
          if e.height > 0 then columns.(e.height - 1).(i) <- Some (e.hash, e.final))
        path)
    paths;
  columns

(* Cross-user safety audit over the final chains. *)
let safety_of (tallies : Verdict.tally array) : safety_report =
  let heights p =
    List.filter_map
      (fun h -> if p tallies.(h - 1) then Some h else None)
      (List.init (Array.length tallies) (fun k -> k + 1))
  in
  let forked_rounds = heights (fun tl -> List.length tl.hashes > 1) in
  {
    agreement_rounds = Array.length tallies - List.length forked_rounds;
    forked_rounds;
    double_final = heights (fun tl -> List.length tl.finals > 1);
  }

let audit_safety (t : t) : safety_report =
  safety_of (Array.map Verdict.tally (by_height t))

(* Churn accounting: retry/rejoin metrics plus two per-node audits -
   every restarted node's chain must match the strict-majority chain at
   every height both cover, and at quiescence no node may be left down,
   resyncing, hung, or short of the last round. *)
let churn_of (t : t) (columns : (string * bool) option array array)
    (tallies : Verdict.tally array) : churn_report =
  let n = Array.length t.nodes in
  let majority =
    Array.map
      (fun (tl : Verdict.tally) ->
        List.find_map (fun (hash, held) -> if 2 * held > n then Some hash else None) tl.hashes)
      tallies
  in
  let diverges i =
    Node.crash_count t.nodes.(i) > 0
    && Array.exists2
         (fun column maj ->
           match (column.(i), maj) with
           | Some (mine, _), Some maj -> not (String.equal mine maj)
           | _ -> false)
         columns majority
  in
  let nodes p = List.filter p (List.init n Fun.id) in
  let m = t.metrics in
  let lat = Metrics.rejoin_latencies m in
  let rejoins = List.length lat in
  {
    crashes = Metrics.crashes m;
    restarts = Metrics.restarts m;
    rejoins;
    mean_rejoin_s =
      (if rejoins = 0 then 0.0
       else List.fold_left ( +. ) 0.0 lat /. float_of_int rejoins);
    max_rejoin_s = List.fold_left Float.max 0.0 lat;
    retries = Metrics.retry_attempts m;
    divergent_restarted = nodes diverges;
    unfinished = nodes (fun i -> Node.status t.nodes.(i) <> Stopped);
  }

(* Hostile-wire accounting: ingress drops and who got banned.
   [banned_nodes] inverts the per-node ban lists - a node appears if
   any peer disconnected it. *)
let audit_wire (t : t) : wire_report =
  let banned = Hashtbl.create 8 in
  Array.iteri
    (fun node _ ->
      List.iter (fun p -> Hashtbl.replace banned p ()) (Gossip.banned_by t.gossip node))
    t.nodes;
  {
    decode_failures = Gossip.decode_failures t.gossip;
    quota_drops = Gossip.quota_drops t.gossip;
    banned_links = Gossip.banned_links t.gossip;
    banned_nodes = Hashtbl.fold (fun p () acc -> p :: acc) banned [] |> List.sort compare;
    invalid_dropped = Gossip.invalid_dropped t.gossip;
    duplicates_dropped = Gossip.duplicates_dropped t.gossip;
  }

(* Transaction accounting over node 0's canonical chain, plus the
   money-supply audit: whatever traffic was injected, the tip balances
   must sum to the genesis total with no negative account. *)
let audit_txs (t : t) : tx_report =
  let chain = Node.chain t.nodes.(0) in
  let tip = Chain.tip chain in
  let committed = ref 0 and committed_self_pay = ref 0 in
  List.iter
    (fun (e : Chain.entry) ->
      if e.height > 0 then
        List.iter
          (fun (tx : Transaction.t) ->
            incr committed;
            if String.equal tx.sender tx.recipient then incr committed_self_pay)
          e.block.txs)
    (Chain.ancestry chain tip.hash);
  let conservation_ok =
    Balances.invariant tip.balances_after
    && Balances.total tip.balances_after = Balances.total t.genesis.balances
  in
  let submitted, inv, dup, selfp =
    match t.workload with
    | Some wl ->
      let s = Workload.stats wl in
      (s.generated, s.invalid, s.duplicate, s.self_pay)
    | None -> (t.legacy_submitted, 0, 0, 0)
  in
  {
    submitted;
    submitted_invalid = inv;
    submitted_duplicate = dup;
    submitted_self_pay = selfp;
    committed = !committed;
    committed_self_pay = !committed_self_pay;
    conservation_ok;
  }

let drive (t : t) : result =
  let config = t.config in
  install_workload t;
  let trace = Metrics.trace t.metrics in
  if Trace.enabled trace then
    Trace.instant trace ~ts:0.0 ~cat:"harness" ~name:"run.start"
      ~detail:
        [
          ("users", string_of_int config.users);
          ("rounds", string_of_int config.rounds);
          ("seed", string_of_int config.rng_seed);
        ]
      ();
  Array.iter Node.start t.nodes;
  let events = Engine.run t.engine ~until:config.max_sim_time () in
  let registry = Metrics.registry t.metrics in
  Registry.set (Registry.gauge registry "sim.time_s") (Engine.now t.engine);
  Registry.set (Registry.gauge registry "sim.events") (float_of_int events);
  Registry.set (Registry.gauge registry "sim.population") (float_of_int config.users);
  Registry.set (Registry.gauge registry "sim.events_live")
    (float_of_int (Engine.pending t.engine));
  Registry.set (Registry.gauge registry "sim.heap_peak")
    (float_of_int (Engine.peak_pending t.engine));
  if Trace.enabled trace then
    Trace.span trace ~start_ts:0.0 ~ts:(Engine.now t.engine) ~cat:"harness"
      ~name:"run"
      ~detail:[ ("events", string_of_int events) ]
      ();
  let columns = by_height t in
  let tallies = Array.map Verdict.tally columns in
  let completion =
    Algorand_sim.Stats.summarize (Metrics.all_round_completion_times t.metrics)
  in
  let final_rounds =
    List.length
      (List.filter
         (fun r -> r <= Array.length tallies && tallies.(r - 1).finals <> [])
         (List.init config.rounds (fun k -> k + 1)))
  in
  {
    harness = t;
    sim_time = Engine.now t.engine;
    events;
    safety = safety_of tallies;
    completion;
    final_rounds;
    tentative_rounds = config.rounds - final_rounds;
    churn = churn_of t columns tallies;
    wire = audit_wire t;
    txs = audit_txs t;
  }

let run (config : config) : result = drive (build config)

(* ----------------------------- verdict ----------------------------- *)

(* The paper's guarantees assume more than 2/3 of the weight honest and
   online. [faulty_fraction] adds up what a run's own attacks take
   away: the equivocators, the adaptively corrupted, and each crash
   plan's victims. Runs past 1/3 still audit safety - agreement held in
   every such run seen so far - but an unfinished node there is the
   expected outcome, not a violation. *)
let faulty_fraction (c : config) : float =
  List.fold_left
    (fun acc a ->
      match a with
      | Equivocate -> acc +. c.malicious_fraction
      | Adaptive_corrupt { fraction; _ }
      | Crash_churn (Periodic { fraction; _ } | Correlated { fraction; _ }) ->
        acc +. fraction
      | Crash_churn (One_shot { victims; _ }) ->
        acc +. (float_of_int (List.length victims) /. float_of_int c.users)
      | Partition _ | Targeted_dos _ | Delay_votes _ | Flood _ | Corrupt _
      | Undecidable _ ->
        acc)
    0.0 c.attacks

(* The run's invariants, in the order that fixes which one a shrink
   preserves. Flooders are exempt from convergence and a flood from
   liveness: peers ban a flooder by design (section 8.4 gossip limits),
   and a banned node can neither finish nor catch up. Any other banned
   node stays audited, so an honest node banned by mistake still shows
   up. Forks are the expected outcome of weak synchrony (section 8.2),
   so agreement is required only of a run with no attack and a
   lossless network. *)
let violations (r : result) : Verdict.violation list =
  let t = r.harness in
  let c = t.config in
  let has p = List.exists p c.attacks in
  let flood = has (function Flood _ -> true | _ -> false) in
  let corrupt = has (function Corrupt _ -> true | _ -> false) in
  let in_envelope = faulty_fraction c < 1.0 /. 3.0 in
  let ints l = String.concat "," (List.map string_of_int l) in
  let divergent =
    List.filter (fun i -> not (List.mem i t.flooders)) r.churn.divergent_restarted
  in
  let node_state i =
    let n = t.nodes.(i) in
    Printf.sprintf "n%d(status=%s round=%d tip=%d)" i
      (Node.status_to_string (Node.status n))
      (Node.round n)
      (Chain.tip (Node.chain n)).height
  in
  List.filter_map
    (fun (violated, invariant, detail) ->
      if violated then Some { Verdict.invariant; detail } else None)
    [
      ( r.safety.double_final <> [],
        "final-uniqueness",
        Printf.sprintf "double-final rounds [%s]" (ints r.safety.double_final) );
      ( not r.txs.conservation_ok,
        "conservation",
        Printf.sprintf "money supply changed (%d txs committed)" r.txs.committed );
      ( in_envelope && divergent <> [],
        "convergence",
        Printf.sprintf "divergent restarted nodes [%s]" (ints divergent) );
      ( in_envelope && (not flood) && r.churn.unfinished <> [],
        "liveness",
        Printf.sprintf "unfinished at quiescence: %s"
          (String.concat "," (List.map node_state r.churn.unfinished)) );
      ( c.wire = `Bytes && (not flood) && (not corrupt) && r.wire.decode_failures > 0,
        "decode",
        Printf.sprintf "%d decode failures on a clean bytes wire" r.wire.decode_failures );
      ( c.attacks = [] && c.loss = 0.0 && c.duplication = 0.0 && r.safety.forked_rounds <> [],
        "agreement",
        Printf.sprintf "forked rounds [%s]" (ints r.safety.forked_rounds) );
    ]
