(* Million-user population engine (section 10.1 at full scale).

   The paper's headline figures run 5,000-500,000 users, but per round
   only ~tau_proposer + a few committees' worth of them ever send a
   message. This engine exploits that: the full population exists only
   as one unboxed word per user (its sim-VRF key, [Vrf.sim_key]), the
   deployment's stake law, and the genesis balances, built once in the
   same pass as one flat table ([Balances.of_genesis]) that every
   materialized node's chain shares; each round materializes full
   [Node.t] state machines *only* for the users cryptographic sortition
   actually selects for that round's role window. The materialized
   nodes share one table of Algorithm 6 verdicts a round, so each
   distinct vote is checked once rather than once per listener; the
   CPU cost every listener pays is still charged in sim time
   ([cpu_vote_verify_s]). The sweep costs one 64-bit mix per (user,
   role), and the genesis pass two key hashes per user, one insert into
   the flat genesis table per account (no map node) and the seed_0 hash
   over every pk. The passive population is an aggregate - weighted
   sortition draws evaluated over the flat words, gossip fan-out
   statistics (bytes/user modeled as fanout uplink copies of every
   originated message), and relay-hop latency sampled from a
   population model (uniform 1..ceil(log_fanout N) hops, WAN-shaped
   per-hop delay).

   Faithfulness: identities, stakes, genesis and node configs are
   derived by {!Deployment}, the same builder Harness and the daemon
   use, and seeds and sortition use the same role strings, so a user is
   materialized iff it would have sent a message in the fully
   materialized run. With zero transaction traffic and deterministic
   (round-number) block timestamps, the certified block content is
   independent of message timing, so the abstracted run certifies
   bit-identical blocks to [Harness.run] at the same seed - the
   equivalence audit in test/test_population.ml proves this per seed.

   Constraints inherited from that argument (checked at [run]): sim
   crypto only (eligibility must be computable from the public key
   alone), no transaction workload, no adversary, no crash churn.

   The committee window covers BinaryBA* steps bin-1..bin-[bin_window].
   Deciders at step s also carry their vote forward to steps s+1..s+3
   (section 9), so a round is exactly covered when max(bin steps) + 3
   <= bin_window; rounds that overrun are counted in
   [window_exceeded_rounds] (never in a clean run - the common case
   decides at bin-1). *)

open Algorand_crypto
module Params = Algorand_ba.Params
module Vote = Algorand_ba.Vote
module Sortition = Algorand_sortition.Sortition
module Binomial = Algorand_sortition.Binomial
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Rng = Algorand_sim.Rng
module Registry = Algorand_obs.Registry
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Block = Algorand_ledger.Block

type config = {
  users : int;
  stake_per_user : int;
  stake_distribution : [ `Equal | `Linear ];
  params : Params.t;
  block_bytes : int;
  rounds : int;
  rng_seed : int;
  fanout : int;
  bandwidth_bps : float;
  bin_window : int;
  registry : Registry.t option;
}

let default : config =
  {
    users = 10_000;
    stake_per_user = 1_000;
    stake_distribution = `Equal;
    params = Params.scaled ~factor:0.01;
    block_bytes = 1_000_000;
    rounds = 3;
    rng_seed = 42;
    fanout = 4;
    bandwidth_bps = 20e6;
    (* Ten bins of recovery room: at sweep-sized committees
       (tau_step ~ 20) a single step misses its vote threshold a few
       percent of the time, and the round must be able to ride out a
       weak stretch inside the materialized window (500k users at seed
       2017 decide round 1 at bin 8). *)
    bin_window = 10;
    registry = None;
  }

type round_stat = {
  round : int;
  block_hash : string;
  final : bool;
  eligible : int;  (** users selected for any window role - the materialized set *)
  proposers : int;
  latency_s : float;  (** round start to the last materialized node's completion *)
  events : int;
  modeled_bytes_per_user : float;
  max_bin_steps : int;
}

type result = {
  config : config;
  round_stats : round_stat list;  (** oldest first *)
  block_hashes : string list;  (** certified block hash per round, oldest first *)
  sim_time : float;
  total_events : int;
  peak_pending : int;  (** event-queue live-heap high-water mark *)
  max_materialized : int;
  window_exceeded_rounds : int;
  agreement : bool;  (** every materialized node certified the same block each round *)
}

(* The committee roles whose members may speak during a round:
   reduction, the BinaryBA* window, and the final step. *)
let window_steps (bin_window : int) : Vote.step list =
  (Vote.Reduction_one :: Vote.Reduction_two
   :: List.init bin_window (fun i -> Vote.Bin (i + 1)))
  @ [ Vote.Final ]

(* ---- The passive population: flat per-user words. --------------- *)

type flat = {
  deployment : Deployment.t;
  keys : (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** each user's sim-VRF key word, unboxed; the composite pk
          strings live on only inside the genesis balance table *)
  total_weight : int;
  max_stake : int;
}

(* The flat words and the genesis, in one pass over the users. *)
let build (config : config) : flat * Genesis.t =
  let n = config.users in
  let deployment =
    Deployment.make ~stake_per_user:config.stake_per_user
      ~stake_law:config.stake_distribution ~seed:config.rng_seed ~users:n
      ~params:config.params ~block_bytes:config.block_bytes ~rounds:config.rounds ()
  in
  let keys = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout n in
  let genesis =
    Deployment.genesis deployment (fun i ->
        let pk = (Deployment.identity deployment i).pk in
        keys.{i} <- Vrf.sim_key (Identity.vrf_pk pk);
        pk)
  in
  let total_weight = ref 0 and max_stake = ref 0 in
  for i = 0 to n - 1 do
    let w = Deployment.stake deployment i in
    total_weight := !total_weight + w;
    max_stake := max !max_stake w
  done;
  ({ deployment; keys; total_weight = !total_weight; max_stake = !max_stake }, genesis)

(* Evaluate one role for every user, calling [select] on each selected
   one in index order. This is the engine's hot loop, [Vrf.sim_sweep]:
   one mix of a user's key word with the role input's key (hashed once
   per role) per evaluation, and the fraction read off the mixed word,
   with no allocation. A fraction below P(j = 0) at the largest stake
   selects nobody, since every user's own P(j = 0) is at least that,
   and [Binomial.cdf] rounds it no higher than [Binomial.select_j]'s
   first interval; only the users above that floor pay for the CDF
   inversion. A floor below the smallest nonzero fraction could only
   skip a zero fraction, which [select_j]'s heavy-selection regime may
   still select, so it is dropped. The selection is therefore exactly
   [select_j] over every user's [Vrf.sim] output. *)
let sweep (pop : flat) ~(seed : string) ~(role : string) ~(tau : float)
    (select : int -> unit) : unit =
  let prob = tau /. float_of_int pop.total_weight in
  let p0 = Binomial.cdf ~k:0 ~n:pop.max_stake ~p:prob in
  Vrf.sim_sweep pop.keys ~input:(Sortition.vrf_input ~seed ~role)
    ~floor:(if p0 >= 0x1p-56 then p0 else 0.0)
    (fun u frac ->
      if Binomial.select_j ~frac ~w:(Deployment.stake pop.deployment u) ~p:prob > 0 then
        select u)

let eligible (config : config) : seed:string -> role:string -> tau:float -> int list =
  let pop, _ = build config in
  fun ~seed ~role ~tau ->
    let chosen = ref [] in
    sweep pop ~seed ~role ~tau (fun u -> chosen := u :: !chosen);
    List.rev !chosen

let run (config : config) : result =
  if config.users < 4 then invalid_arg "Population.run: need at least 4 users";
  if config.rounds < 1 then invalid_arg "Population.run: need at least 1 round";
  if config.bin_window < 4 then
    (* deciders carry votes three steps past a bin-1 decision *)
    invalid_arg "Population.run: bin_window must be >= 4";
  let n = config.users in
  let p = config.params in
  let pop, genesis = build config in
  let deployment = pop.deployment in
  let rng = Rng.create config.rng_seed in
  let net_rng = Rng.split rng "population-net" in
  let engine = Engine.create () in
  let registry =
    match config.registry with Some r -> r | None -> Registry.create ()
  in
  let metrics = Metrics.create ~registry ~users:n () in
  let canonical = Chain.create genesis in
  (* Interned identities: a user selected in several rounds is
     regenerated once. *)
  let identity_cache : (int, Identity.t) Hashtbl.t = Hashtbl.create 256 in
  let identity u =
    match Hashtbl.find_opt identity_cache u with
    | Some id -> id
    | None ->
      let id = Deployment.identity deployment u in
      Hashtbl.replace identity_cache u id;
      id
  in
  (* ---- Population network model. -------------------------------- *)
  let overlay_hops =
    max 1
      (int_of_float
         (Float.ceil (log (float_of_int n) /. log (float_of_int (max 2 config.fanout)))))
  in
  let sample_delay (bytes : int) : float =
    let tx = 8.0 *. float_of_int bytes /. config.bandwidth_bps in
    let hops = 1 + Rng.int net_rng overlay_hops in
    let d = ref tx in
    for _ = 1 to hops do
      d := !d +. tx +. 0.02 +. Rng.exponential net_rng ~mean:0.03
    done;
    !d
  in
  (* ---- Per-round eligibility sweep over the flat words. ---------- *)
  let selected = Array.make n false in
  let sweep_role ~seed ~role ~tau : int =
    let count = ref 0 in
    sweep pop ~seed ~role ~tau (fun u ->
        incr count;
        selected.(u) <- true);
    !count
  in
  (* ---- Drive the rounds. ---------------------------------------- *)
  let round_stats = ref [] in
  let agreement = ref true in
  let window_exceeded = ref 0 in
  let max_materialized = ref 0 in
  let round_ceiling = 3_600.0 in
  let r = ref 1 in
  let ok = ref true in
  while !ok && !r <= config.rounds do
    let round = !r in
    let tip = Chain.tip canonical in
    assert (tip.height = round - 1);
    let ncfg =
      {
        (Deployment.node_config deployment) with
        max_round = round;
        resync_enabled = false;
        deterministic_ts = true;
      }
    in
    (* The round context every materialized node derives: its seed and
       step thresholds drive the sweep. *)
    let vctx =
      History.context ~params:p ~sig_scheme:ncfg.sig_scheme ~vrf_scheme:ncfg.vrf_scheme
        canonical ~parent:tip
    in
    let seed = vctx.seed in
    (* Weight look-back: with zero transaction traffic balances never
       move, so the genesis stakes are the weight vector at every
       height - identical to what each node reads from its own chain. *)
    Array.fill selected 0 n false;
    let proposers = sweep_role ~seed ~role:(Vote.proposer_role ~round) ~tau:p.tau_proposer in
    List.iter
      (fun step ->
        ignore
          (sweep_role ~seed ~role:(Vote.committee_role ~round ~step)
             ~tau:(vctx.tau_of_step step)))
      (window_steps config.bin_window);
    let chosen = ref [] in
    for u = n - 1 downto 0 do
      if selected.(u) then chosen := u :: !chosen
    done;
    let chosen = !chosen in
    let eligible = List.length chosen in
    max_materialized := max !max_materialized eligible;
    (* Materialize: full Node.t state machines for the selected users,
       each on a structure-sharing clone of the canonical prefix. *)
    let verdicts = Node.verdicts () in
    let roster =
      Array.of_list
        (List.map
           (fun u ->
             let node =
               Node.create ~index:u ~identity:(identity u) ~config:ncfg ~engine
                 ~metrics
                 ~rng:(Deployment.node_rng rng u)
                 ~verdicts ~genesis ()
             in
             Node.adopt_chain node (Chain.clone canonical);
             (u, node))
           chosen)
    in
    let m = Array.length roster in
    (* Global user id -> roster position, for [net_send_to]. *)
    let position = Hashtbl.create (2 * m) in
    Array.iteri (fun i (u, _) -> Hashtbl.replace position u i) roster;
    let round_bytes = ref 0.0 in
    (* Per-(src,dst) FIFO: a pair's deliveries never reorder, like a
       real connection. Without this a proposer's block can overtake
       its own priority message and be discarded by the section 6
       priority filter - the gossip overlay absorbs such inversions via
       redundant relay paths, but direct delivery gets one shot. The
       last arrival time per pair sits in a flat unboxed float array
       indexed by roster positions (m^2 words, one round's life). *)
    let last_arrival = Array.make (m * m) neg_infinity in
    (* [now] and [bytes] are the sender's clock and the message size,
       read once per broadcast rather than once per destination. *)
    let deliver_later ~(now : float) ~(bytes : int) ~(src_i : int) ~(dst_i : int)
        (msg : Message.t) : unit =
      let src, _ = roster.(src_i) and _, dst_node = roster.(dst_i) in
      let delay = sample_delay bytes in
      let k = (src_i * m) + dst_i in
      let arrival = now +. delay in
      let arrival = if last_arrival.(k) > arrival then last_arrival.(k) else arrival in
      last_arrival.(k) <- arrival;
      Engine.at engine ~time:arrival (fun () ->
          if Node.gossip_validate dst_node msg then Node.deliver dst_node ~src msg)
    in
    Array.iteri
      (fun i (u, node) ->
        Node.set_net node
          {
            Node.net_broadcast =
              (fun msg ->
                let now = Engine.now engine and bytes = Message.size_bytes msg in
                round_bytes := !round_bytes +. float_of_int bytes;
                for j = 0 to m - 1 do
                  if j <> i then deliver_later ~now ~bytes ~src_i:i ~dst_i:j msg
                done);
            net_send_to =
              (fun ~dst msg ->
                match Hashtbl.find_opt position dst with
                | Some j ->
                  deliver_later ~now:(Engine.now engine) ~bytes:(Message.size_bytes msg)
                    ~src_i:i ~dst_i:j msg
                | None -> ());
            net_peers =
              (fun () ->
                Array.fold_right
                  (fun (v, _) acc -> if v <> u then v :: acc else acc)
                  roster []);
            net_mark_seen = (fun _ -> ());
          })
      roster;
    let t0 = Engine.now engine in
    let events_before = Engine.events_processed engine in
    Array.iter (fun (_, node) -> Node.start_from_tip node) roster;
    ignore (Engine.run engine ~until:(t0 +. round_ceiling) ());
    let events = Engine.events_processed engine - events_before in
    let all_stopped = Array.for_all (fun (_, node) -> Node.status node = Stopped) roster in
    (* Audit: every materialized node must have certified the same
       block at this height. *)
    let entries =
      Array.map
        (fun (_, node) ->
          let chain = Node.chain node in
          Chain.ancestor_at chain ~hash:(Chain.tip chain).hash ~height:round)
        roster
    in
    let tally =
      Verdict.tally
        (Array.map (Option.map (fun (e : Chain.entry) -> (e.hash, e.final))) entries)
    in
    let max_bin_steps =
      List.fold_left
        (fun acc (rec_ : Metrics.round_record) ->
          if rec_.round = round then max acc rec_.steps_taken else acc)
        0 (Metrics.records metrics)
    in
    let round_ok = all_stopped && tally.missing = 0 && List.length tally.hashes = 1 in
    if not round_ok then begin
      (* Say why on stderr: a failed audit at 500k users is otherwise
         undebuggable. *)
      let unstopped =
        Array.fold_left
          (fun acc (_, node) -> if Node.status node = Stopped then acc else acc + 1)
          0 roster
      in
      Printf.eprintf
        "population: round %d audit failed: %d/%d nodes unstopped, %d missing height-%d \
         entries, %d distinct hashes, %d pending events, max bin steps %d\n%!"
        round unstopped (Array.length roster) tally.missing round
        (List.length tally.hashes)
        (Engine.pending engine) max_bin_steps;
      agreement := false;
      ok := false
    end
    else begin
      let entry = Option.get entries.(0) in
      let final =
        Array.exists
          (fun (_, node) -> Node.final_certificate node ~round <> None)
          roster
      in
      (match Chain.add canonical entry.block with
      | Ok e ->
        Chain.set_tip canonical e.hash;
        if final then Chain.mark_final canonical e.hash
      | Error `Duplicate -> ()
      | Error (`Unknown_parent | `Wrong_round _ | `Invalid_tx _) ->
        agreement := false;
        ok := false);
      let latency_s =
        List.fold_left Float.max 0.0 (Metrics.round_completion_times metrics ~round)
      in
      if max_bin_steps + 3 > config.bin_window then incr window_exceeded;
      round_stats :=
        {
          round;
          block_hash = entry.hash;
          final;
          eligible;
          proposers;
          latency_s;
          events;
          modeled_bytes_per_user = !round_bytes *. float_of_int config.fanout;
          max_bin_steps;
        }
        :: !round_stats
    end;
    Registry.set (Registry.gauge registry "sim.population") (float_of_int n);
    Registry.set (Registry.gauge registry "sim.events_live")
      (float_of_int (Engine.pending engine));
    Registry.set (Registry.gauge registry "sim.heap_peak")
      (float_of_int (Engine.peak_pending engine));
    incr r
  done;
  let round_stats = List.rev !round_stats in
  {
    config;
    round_stats;
    block_hashes = List.map (fun s -> s.block_hash) round_stats;
    sim_time = Engine.now engine;
    total_events = Engine.events_processed engine;
    peak_pending = Engine.peak_pending engine;
    max_materialized = !max_materialized;
    window_exceeded_rounds = !window_exceeded;
    agreement = !agreement;
  }
