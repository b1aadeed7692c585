(* Million-user population engine (section 10.1 at full scale).

   The paper's headline figures run 5,000-500,000 users, but per round
   only ~tau_proposer + a few committees' worth of them ever send a
   message; everyone else just validates and counts. This engine
   exploits that: the full population exists only as three flat
   per-user facts (VRF public key, stake, and the genesis balance map
   they share with every run of the same seed), and each round
   materializes full [Node.t] state machines *only* for the users
   cryptographic sortition actually selects for that round's role
   window. The passive population is an aggregate - weighted sortition
   draws evaluated over the flat arrays, gossip fan-out statistics
   (bytes/user modeled as fanout uplink copies of every originated
   message), and relay-hop latency sampled from a population model
   (uniform 1..ceil(log_fanout N) hops, WAN-shaped per-hop delay).

   Faithfulness: identities, genesis, seeds and sortition are computed
   exactly as [Harness] computes them (same "user-<seed>-<i>" identity
   derivation, same genesis, same role strings), so a user is
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

let node_config (config : config) ~sig_scheme ~vrf_scheme ~(max_round : int) :
    Node.config =
  {
    params = config.params;
    sig_scheme;
    vrf_scheme;
    block_target_bytes = config.block_bytes;
    max_round;
    byzantine = None;
    cpu_vote_verify_s = 0.0002;
    cpu_block_verify_s = 0.005;
    recovery_enabled = false;
    storage_shards = 1;
    pipeline_final = false;
    resync_enabled = false;
    store_dir = None;
    checkpoint_every = 0;
    retry =
      {
        base_delay = Float.max 0.5 config.params.lambda_priority;
        multiplier = 2.0;
        max_delay = Float.max 5.0 config.params.lambda_step;
        jitter = 0.2;
        max_attempts = 0;
      };
    verify_tx_sigs = true;
    txpool_retention_rounds = 8;
    deterministic_ts = true;
  }

let run (config : config) : result =
  if config.users < 4 then invalid_arg "Population.run: need at least 4 users";
  if config.rounds < 1 then invalid_arg "Population.run: need at least 1 round";
  if config.bin_window < 4 then
    (* deciders carry votes three steps past a bin-1 decision *)
    invalid_arg "Population.run: bin_window must be >= 4";
  let sig_scheme = Signature_scheme.sim and vrf_scheme = Vrf.sim in
  let n = config.users in
  let p = config.params in
  (* ---- The passive population: flat per-user facts. ------------- *)
  let stakes =
    Array.init n (fun i ->
        match config.stake_distribution with
        | `Equal -> config.stake_per_user
        | `Linear -> config.stake_per_user * (i + 1))
  in
  let total_weight = Array.fold_left ( + ) 0 stakes in
  (* Same identity derivation as Harness.build; only the 32-byte VRF
     public key is retained per user (the composite pk strings live on
     inside the genesis balance map, shared, not duplicated here). *)
  let vrf_pks = Array.make n "" in
  let genesis =
    let allocs = ref [] in
    for i = n - 1 downto 0 do
      let id =
        Identity.generate ~sig_scheme ~vrf_scheme
          ~seed:(Printf.sprintf "user-%d-%d" config.rng_seed i)
      in
      vrf_pks.(i) <- Identity.vrf_pk id.pk;
      allocs := (id.pk, stakes.(i)) :: !allocs
    done;
    Genesis.make !allocs
  in
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
      let id =
        Identity.generate ~sig_scheme ~vrf_scheme
          ~seed:(Printf.sprintf "user-%d-%d" config.rng_seed u)
      in
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
  (* ---- Per-round eligibility sweep over the flat arrays. --------- *)
  let selected = Array.make n false in
  let equal_w =
    match config.stake_distribution with
    | `Equal -> Some config.stake_per_user
    | `Linear -> None
  in
  (* Evaluate one role for every user; returns how many are selected.
     This is the engine's hot loop: one sim-VRF evaluation per (user,
     role) via its public-key path, a 64-bit mix of the user's pk with
     the role input's key (hashed once per role, then cached inside
     [Vrf.sim]), then the equal-stake fast path compares the hash
     fraction against the precomputed P(j = 0) before paying for the
     CDF inversion. *)
  let sweep_role ~(seed : string) ~(role : string) ~(tau : float) : int =
    let input = Sortition.vrf_input ~seed ~role in
    let prob = tau /. float_of_int total_weight in
    let c0 =
      match equal_w with
      | Some w -> Binomial.cdf ~k:0 ~n:w ~p:prob
      | None -> 0.0
    in
    let count = ref 0 in
    for u = 0 to n - 1 do
      match vrf_scheme.verify ~pk:vrf_pks.(u) ~input ~proof:"" with
      | None -> assert false (* sim VRF accepts every empty proof *)
      | Some h ->
        let frac = Sortition.hash_fraction h in
        let j =
          if equal_w <> None && frac < c0 then 0
          else Binomial.select_j ~frac ~w:stakes.(u) ~p:prob
        in
        if j > 0 then begin
          incr count;
          selected.(u) <- true
        end
    done;
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
    let seed_height = max 0 (round - 1 - (round mod p.seed_refresh_interval)) in
    let seed =
      match Chain.ancestor_at canonical ~hash:tip.hash ~height:seed_height with
      | Some e -> e.seed
      | None -> (Chain.genesis_entry canonical).seed
    in
    (* Weight look-back: with zero transaction traffic balances never
       move, so the stakes array is the weight vector at every height -
       identical to what each node reads from its own chain. *)
    Array.fill selected 0 n false;
    let proposers = sweep_role ~seed ~role:(Vote.proposer_role ~round) ~tau:p.tau_proposer in
    List.iter
      (fun step ->
        let tau = match step with Vote.Final -> p.tau_final | _ -> p.tau_step in
        ignore (sweep_role ~seed ~role:(Vote.committee_role ~round ~step) ~tau))
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
    let ncfg = node_config config ~sig_scheme ~vrf_scheme ~max_round:round in
    let roster =
      Array.of_list
        (List.map
           (fun u ->
             let node =
               Node.create ~index:u ~identity:(identity u) ~config:ncfg ~engine
                 ~metrics
                 ~rng:(Rng.split rng (Printf.sprintf "node-%d" u))
                 ~genesis ()
             in
             Node.adopt_chain node (Chain.clone canonical);
             (u, node))
           chosen)
    in
    let by_id = Hashtbl.create (2 * Array.length roster) in
    Array.iter (fun (u, node) -> Hashtbl.replace by_id u node) roster;
    let round_bytes = ref 0.0 in
    (* Per-(src,dst) FIFO: a pair's deliveries never reorder, like a
       real connection. Without this a proposer's block can overtake
       its own priority message and be discarded by the section 6
       priority filter - the gossip overlay absorbs such inversions via
       redundant relay paths, but direct delivery gets one shot. *)
    let last_arrival : (int, float) Hashtbl.t = Hashtbl.create 1024 in
    let deliver_later ~(src : int) ~(dst : int) ~(dst_node : Node.t)
        (msg : Message.t) : unit =
      let delay = sample_delay (Message.size_bytes msg) in
      let arrival = Engine.now engine +. delay in
      let key = (src * n) + dst in
      let arrival =
        match Hashtbl.find_opt last_arrival key with
        | Some t when t > arrival -> t
        | _ -> arrival
      in
      Hashtbl.replace last_arrival key arrival;
      Engine.at engine ~time:arrival (fun () ->
          if Node.gossip_validate dst_node msg then Node.deliver dst_node ~src msg)
    in
    Array.iter
      (fun (u, node) ->
        let peers =
          Array.to_list roster |> List.filter_map (fun (v, _) -> if v <> u then Some v else None)
        in
        Node.set_net node
          {
            Node.net_broadcast =
              (fun msg ->
                round_bytes := !round_bytes +. float_of_int (Message.size_bytes msg);
                Array.iter
                  (fun (v, dst_node) ->
                    if v <> u then deliver_later ~src:u ~dst:v ~dst_node msg)
                  roster);
            net_send_to =
              (fun ~dst msg ->
                match Hashtbl.find_opt by_id dst with
                | Some dst_node -> deliver_later ~src:u ~dst ~dst_node msg
                | None -> ());
            net_peers = (fun () -> peers);
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
    let hashes =
      Array.map
        (fun (_, node) ->
          let chain = Node.chain node in
          match
            Chain.ancestor_at chain ~hash:(Chain.tip chain).hash ~height:round
          with
          | Some e -> Some (e.hash, e)
          | None -> None)
        roster
    in
    let round_ok =
      all_stopped
      && Array.length hashes > 0
      && Array.for_all Option.is_some hashes
      &&
      match hashes.(0) with
      | Some (h0, _) ->
        Array.for_all (function Some (h, _) -> String.equal h h0 | None -> false) hashes
      | None -> false
    in
    if not round_ok then begin
      (* Say why on stderr: a failed audit at 500k users is otherwise
         undebuggable. *)
      let unstopped =
        Array.fold_left
          (fun acc (_, node) -> if Node.status node = Stopped then acc else acc + 1)
          0 roster
      in
      let missing = Array.fold_left (fun acc h -> if h = None then acc + 1 else acc) 0 hashes in
      let distinct =
        Array.fold_left
          (fun acc -> function Some (h, _) -> if List.mem h acc then acc else h :: acc | None -> acc)
          [] hashes
        |> List.length
      in
      let max_steps =
        List.fold_left
          (fun acc (rec_ : Metrics.round_record) ->
            if rec_.round = round then max acc rec_.steps_taken else acc)
          0 (Metrics.records metrics)
      in
      Printf.eprintf
        "population: round %d audit failed: %d/%d nodes unstopped, %d missing height-%d \
         entries, %d distinct hashes, %d pending events, max bin steps %d\n%!"
        round unstopped (Array.length roster) missing round distinct
        (Engine.pending engine) max_steps;
      agreement := false;
      ok := false
    end
    else begin
      let _, entry = Option.get hashes.(0) in
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
      let max_bin_steps =
        List.fold_left
          (fun acc (rec_ : Metrics.round_record) ->
            if rec_.round = round then max acc rec_.steps_taken else acc)
          0 (Metrics.records metrics)
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
