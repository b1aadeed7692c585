(* Population-engine equivalence audit and unboxed event-queue tests.

   The audit is the load-bearing proof behind the million-user engine:
   at small N, a population run (only sortition-selected users
   materialized, direct-delivery network model) must certify
   bit-identical blocks, round for round, to a fully materialized
   Harness run of the same seed. The event-queue tests check the
   unboxed parallel-array heap against a naive sorted-list oracle. *)

module Harness = Algorand_core.Harness
module Population = Algorand_core.Population
module Node = Algorand_core.Node
module Chain = Algorand_ledger.Chain
module Params = Algorand_ba.Params
module Event_queue = Algorand_sim.Event_queue
module Engine = Algorand_sim.Engine

let small_params = Params.scaled ~factor:0.01
let audit_users = 24
let audit_rounds = 2

let harness_config ~seed : Harness.config =
  {
    Harness.default with
    users = audit_users;
    rounds = audit_rounds;
    params = small_params;
    block_bytes = 20_000;
    rng_seed = seed;
    crypto = Sim_crypto;
    tx_rate_per_s = 0.0;
    deterministic_ts = true;
  }

let population_config ~seed : Population.config =
  {
    Population.default with
    users = audit_users;
    rounds = audit_rounds;
    params = small_params;
    block_bytes = 20_000;
    rng_seed = seed;
  }

(* Certified block hashes of the fully materialized run, read off node
   0's chain (the safety audit guarantees all nodes agree). *)
let harness_hashes (result : Harness.result) : string list =
  let chain = Node.chain result.harness.nodes.(0) in
  let tip = Chain.tip chain in
  List.init audit_rounds (fun i ->
      match Chain.ancestor_at chain ~hash:tip.hash ~height:(i + 1) with
      | Some e -> e.hash
      | None -> Alcotest.failf "harness chain missing height %d" (i + 1))

let test_equivalence_audit () =
  (* >= 20 seeds: same seed -> identical certified blocks, with the
     population engine materializing only the selected minority. *)
  for seed = 101 to 120 do
    let h = Harness.run (harness_config ~seed) in
    Alcotest.(check (list int))
      (Printf.sprintf "seed %d: harness forks" seed)
      [] h.safety.forked_rounds;
    let p = Population.run (population_config ~seed) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: population agreement" seed)
      true p.agreement;
    Alcotest.(check int)
      (Printf.sprintf "seed %d: round count" seed)
      audit_rounds
      (List.length p.block_hashes);
    List.iteri
      (fun i (hh, ph) ->
        if not (String.equal hh ph) then
          Alcotest.failf "seed %d round %d: harness %s <> population %s" seed
            (i + 1)
            (String.sub hh 0 8 |> String.to_seq |> Seq.map Char.code
            |> Seq.map (Printf.sprintf "%02x")
            |> List.of_seq |> String.concat "")
            (String.sub ph 0 8 |> String.to_seq |> Seq.map Char.code
            |> Seq.map (Printf.sprintf "%02x")
            |> List.of_seq |> String.concat ""))
      (List.combine (harness_hashes h) p.block_hashes);
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: materialized bounded" seed)
      true
      (p.max_materialized <= audit_users)
  done

let test_abstraction_materializes_minority () =
  (* At tiny N every user lands in some committee, so the minority
     property only shows at scale. A user escapes a role of expected
     size tau with probability B(0; w, tau/W), independently across the
     window's roles (proposer, both reductions, [bin_window] bins,
     final) and across users, so the materialized count is binomial
     with a mean computed from [params]: about 15 % of 2,048 users. *)
  let cfg = { (population_config ~seed:11) with users = 2_048; rounds = 1 } in
  let p = cfg.params in
  let total = cfg.users * cfg.stake_per_user in
  let escape tau =
    Algorand_sortition.Binomial.cdf ~k:0 ~n:cfg.stake_per_user ~p:(tau /. float_of_int total)
  in
  let roles =
    (p.tau_proposer :: p.tau_final :: List.init (2 + cfg.bin_window) (fun _ -> p.tau_step))
  in
  let q = 1.0 -. List.fold_left (fun acc tau -> acc *. escape tau) 1.0 roles in
  let n = float_of_int cfg.users in
  let mean = n *. q and sd = sqrt (n *. q *. (1.0 -. q)) in
  let r = Population.run cfg in
  Alcotest.(check bool) "agreement" true r.agreement;
  let m = float_of_int r.max_materialized in
  Alcotest.(check bool)
    (Printf.sprintf "materialized %d < 1/3 of %d" r.max_materialized cfg.users)
    true
    (m < n /. 3.0);
  Alcotest.(check bool)
    (Printf.sprintf "materialized %d within 4 sd of %.1f (sd %.1f)" r.max_materialized mean sd)
    true
    (Float.abs (m -. mean) <= 4.0 *. sd)

let test_population_determinism () =
  let a = Population.run (population_config ~seed:7) in
  let b = Population.run (population_config ~seed:7) in
  Alcotest.(check bool) "agreement" true (a.agreement && b.agreement);
  Alcotest.(check (list string)) "same seed, same blocks" a.block_hashes b.block_hashes;
  Alcotest.(check int) "same event count" a.total_events b.total_events;
  let c = Population.run (population_config ~seed:8) in
  Alcotest.(check bool)
    "different seed, different blocks" true
    (c.block_hashes <> a.block_hashes)

(* Exact counts of one fixed run, recorded before the materialized
   nodes shared their vote verdicts. Sharing removes repeated
   validation work only, so events, the event-queue peak, the
   materialized set and the certified blocks must not move. *)
let test_population_pinned_counts () =
  let r = Population.run { (population_config ~seed:11) with users = 2_000 } in
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check int) "total events" 218_867 r.total_events;
  Alcotest.(check int) "peak pending" 50_483 r.peak_pending;
  Alcotest.(check int) "max materialized" 343 r.max_materialized;
  Alcotest.(check (list string)) "block hashes"
    [
      "a0c298441c1899223177f34b854c891bd794e4c4fb423787b23f83a4bf45422a";
      "ff83da32289957f6fafd008f5f4badcbf5320617b8a3a28a009e6082e7e1a85f";
    ]
    (List.map Algorand_crypto.Hex.of_string r.block_hashes)

(* The engine's flat sweep against the per-user path a node takes:
   [Vrf.sim.verify] on the user's VRF pk, [Sortition.hash_fraction],
   then [Binomial.select_j] at the user's stake. Same selected set,
   role by role, under both stake laws. *)
let test_sweep_matches_per_user_path () =
  let module Vote = Algorand_ba.Vote in
  let module Sortition = Algorand_sortition.Sortition in
  let module Binomial = Algorand_sortition.Binomial in
  let users = 2_000 in
  List.iter
    (fun law ->
      List.iter
        (fun seed ->
          let cfg =
            {
              (population_config ~seed) with
              users;
              rounds = 1;
              stake_distribution = law;
            }
          in
          let p = cfg.params in
          let d =
            Algorand_core.Deployment.make ~stake_per_user:cfg.stake_per_user ~stake_law:law
              ~seed ~users ~params:p ~block_bytes:cfg.block_bytes ~rounds:cfg.rounds ()
          in
          let identities, genesis = Algorand_core.Deployment.roster d in
          let stake = Algorand_core.Deployment.stake d in
          let total = List.fold_left ( + ) 0 (List.init users stake) in
          let eligible = Population.eligible cfg in
          let roles =
            (Vote.proposer_role ~round:1, p.tau_proposer)
            :: List.map
                 (fun step ->
                   ( Vote.committee_role ~round:1 ~step,
                     match step with Vote.Final -> p.tau_final | _ -> p.tau_step ))
                 ((Vote.Reduction_one :: Vote.Reduction_two
                  :: List.init cfg.bin_window (fun i -> Vote.Bin (i + 1)))
                 @ [ Vote.Final ])
          in
          Alcotest.(check int) "14 roles" 14 (List.length roles);
          List.iter
            (fun (role, tau) ->
              let seed0 = genesis.seed0 in
              let input = Sortition.vrf_input ~seed:seed0 ~role in
              let prob = tau /. float_of_int total in
              let expected =
                List.filter
                  (fun u ->
                    match
                      Algorand_crypto.Vrf.sim.verify
                        ~pk:(Algorand_core.Identity.vrf_pk identities.(u).pk)
                        ~input ~proof:""
                    with
                    | Some h ->
                      Binomial.select_j ~frac:(Sortition.hash_fraction h) ~w:(stake u)
                        ~p:prob
                      > 0
                    | None -> Alcotest.fail "sim verify rejected an empty proof")
                  (List.init users Fun.id)
              in
              if expected = [] then Alcotest.failf "seed %d %s: nobody selected" seed role;
              Alcotest.(check (list int))
                (Printf.sprintf "seed %d %s" seed role)
                expected
                (eligible ~seed:seed0 ~role ~tau))
            roles)
        [ 11; 12; 13 ])
    [ `Equal; `Linear ]

let test_population_stats () =
  let r = Population.run (population_config ~seed:3) in
  Alcotest.(check bool) "agreement" true r.agreement;
  Alcotest.(check int) "window never exceeded" 0 r.window_exceeded_rounds;
  List.iter
    (fun (s : Population.round_stat) ->
      Alcotest.(check bool) "proposer selected" true (s.proposers >= 1);
      Alcotest.(check bool) "eligible bounded" true
        (s.eligible >= 1 && s.eligible <= audit_users);
      Alcotest.(check bool) "latency positive" true (s.latency_s > 0.0);
      Alcotest.(check bool) "events counted" true (s.events > 0);
      Alcotest.(check bool) "bytes modeled" true (s.modeled_bytes_per_user > 0.0))
    r.round_stats;
  Alcotest.(check bool) "peak pending tracked" true (r.peak_pending > 0)

let contains ~(affix : string) (s : string) : bool =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) affix || go (i + 1)) in
  n = 0 || go 0

let test_population_gauges () =
  let registry = Algorand_obs.Registry.create () in
  let cfg = { (population_config ~seed:5) with registry = Some registry } in
  let r = Population.run cfg in
  Alcotest.(check bool) "agreement" true r.agreement;
  let json = Algorand_obs.Registry.to_json registry in
  List.iter
    (fun gauge ->
      Alcotest.(check bool)
        (Printf.sprintf "%s exported" gauge)
        true
        (contains ~affix:gauge json))
    [ "sim.population"; "sim.events_live"; "sim.heap_peak" ]

(* ---- Unboxed event-queue vs sorted-list oracle. ------------------- *)

(* The oracle: (time, arrival index, value) sorted by time then
   arrival - the FIFO tie-break contract. *)
module Oracle = struct
  type 'a t = { mutable items : (float * int * 'a) list; mutable next : int }

  let create () = { items = []; next = 0 }

  let push t ~time v =
    t.items <- (time, t.next, v) :: t.items;
    t.next <- t.next + 1

  let pop t =
    match
      List.sort
        (fun (t1, s1, _) (t2, s2, _) ->
          match compare t1 t2 with 0 -> compare s1 s2 | c -> c)
        t.items
    with
    | [] -> None
    | ((time, _, v) as hd) :: _ ->
      t.items <- List.filter (fun x -> x != hd) t.items;
      Some (time, v)
end

(* The queue's earliest entry as (time, payload), cross-checked against
   [min_time] and [due]; [None] when empty. *)
let queue_pop q =
  if Event_queue.length q = 0 then begin
    Alcotest.(check bool) "empty min_time" true (Event_queue.min_time q = infinity);
    Alcotest.(check bool) "empty is never due" false (Event_queue.due q infinity);
    None
  end
  else begin
    let earliest = Event_queue.min_time q in
    Alcotest.(check bool) "due at min_time" true (Event_queue.due q earliest);
    Alcotest.(check bool) "not due before min_time" false
      (Event_queue.due q (Float.pred earliest));
    let clock = [| nan |] in
    let v = Event_queue.take q ~clock in
    Alcotest.(check (float 0.0)) "take reports min_time" earliest clock.(0);
    Some (clock.(0), v)
  end

let test_queue_ordering () =
  let q = Event_queue.create () in
  let o = Oracle.create () in
  List.iteri
    (fun i time ->
      Event_queue.push q ~time i;
      Oracle.push o ~time i)
    [ 5.0; 1.0; 3.0; 1.0; 0.0; 3.0; 2.5 ];
  let rec drain acc =
    match (queue_pop q, Oracle.pop o) with
    | None, None -> List.rev acc
    | Some (t1, v1), Some (t2, v2) ->
      Alcotest.(check (float 0.0)) "time matches oracle" t2 t1;
      Alcotest.(check int) "value matches oracle" v2 v1;
      drain (v1 :: acc)
    | _ -> Alcotest.fail "queue and oracle disagree on length"
  in
  (* Ties at 1.0 and 3.0 must come out in push order. *)
  Alcotest.(check (list int)) "drain order" [ 4; 1; 3; 6; 2; 5; 0 ] (drain [])

let test_queue_random_interleaving () =
  let rng = Algorand_sim.Rng.create 99 in
  let q = Event_queue.create () in
  let o = Oracle.create () in
  for _ = 1 to 2_000 do
    if Algorand_sim.Rng.float rng 1.0 < 0.6 || Event_queue.length q = 0 then begin
      (* coarse times force plenty of FIFO ties *)
      let time = float_of_int (Algorand_sim.Rng.int rng 50) in
      let v = Algorand_sim.Rng.int rng 1_000_000 in
      Event_queue.push q ~time v;
      Oracle.push o ~time v
    end
    else begin
      match (queue_pop q, Oracle.pop o) with
      | Some (t1, v1), Some (t2, v2) ->
        Alcotest.(check (float 0.0)) "time" t2 t1;
        Alcotest.(check int) "value" v2 v1
      | _ -> Alcotest.fail "length mismatch"
    end;
    Alcotest.(check int) "length agrees" (List.length o.items) (Event_queue.length q)
  done;
  while not (Event_queue.length q = 0) do
    match (queue_pop q, Oracle.pop o) with
    | Some (t1, v1), Some (t2, v2) ->
      Alcotest.(check (float 0.0)) "time" t2 t1;
      Alcotest.(check int) "value" v2 v1
    | _ -> Alcotest.fail "length mismatch at drain"
  done;
  Alcotest.(check bool) "oracle drained" true (o.items = [])

(* Long-lived entries sit in their slots while thousands of others
   cycle through freed ones, a burst grows the columns mid-stream with
   the free list non-empty, and only four distinct timestamps keep FIFO
   ties on nearly every comparison. *)
let test_queue_slot_reuse_growth_ties () =
  let rng = Algorand_sim.Rng.create 7 in
  let q = Event_queue.create () in
  let o = Oracle.create () in
  let push time v =
    Event_queue.push q ~time v;
    Oracle.push o ~time v
  in
  let check_pop () =
    match (queue_pop q, Oracle.pop o) with
    | Some (t1, v1), Some (t2, v2) ->
      Alcotest.(check (float 0.0)) "time" t2 t1;
      Alcotest.(check int) "value" v2 v1
    | None, None -> ()
    | _ -> Alcotest.fail "length mismatch"
  in
  for k = 0 to 7 do
    push (if k < 4 then 1e6 else 1e6 +. float_of_int k) (-1 - k)
  done;
  for op = 1 to 6_000 do
    if op = 3_000 then
      for v = 1 to 700 do
        push (float_of_int (Algorand_sim.Rng.int rng 4)) (1_000_000 + v)
      done;
    if Algorand_sim.Rng.float rng 1.0 < 0.5 then
      push (float_of_int (Algorand_sim.Rng.int rng 4)) op
    else if Event_queue.length q > 8 then check_pop ();
    Alcotest.(check int) "length agrees" (List.length o.items) (Event_queue.length q)
  done;
  let long_lived = ref [] in
  while Event_queue.length q > 0 do
    (match (queue_pop q, Oracle.pop o) with
    | Some (t1, v1), Some (t2, v2) ->
      Alcotest.(check (float 0.0)) "time" t2 t1;
      Alcotest.(check int) "value" v2 v1;
      if v1 < 0 then long_lived := v1 :: !long_lived
    | _ -> Alcotest.fail "length mismatch at drain")
  done;
  Alcotest.(check (list int)) "long-lived entries last, FIFO within ties"
    [ -1; -2; -3; -4; -5; -6; -7; -8 ] (List.rev !long_lived);
  Alcotest.(check bool) "oracle drained" true (o.items = [])

(* A taken payload is collectable at once, pending ones stay alive,
   and a drained queue keeps nothing alive. *)
let test_queue_retention () =
  let q = Event_queue.create () in
  let weak = Weak.create 3 in
  let add i time =
    let payload = Bytes.make 64 (Char.chr (65 + i)) in
    Weak.set weak i (Some payload);
    Event_queue.push q ~time payload
  in
  add 0 1.0;
  add 1 2.0;
  add 2 3.0;
  let clock = [| 0.0 |] in
  Alcotest.(check char) "earliest taken" 'A' (Bytes.get (Event_queue.take q ~clock) 0);
  Gc.full_major ();
  Alcotest.(check bool) "taken payload collected" false (Weak.check weak 0);
  Alcotest.(check bool) "pending payloads alive" true (Weak.check weak 1 && Weak.check weak 2);
  ignore (Event_queue.take q ~clock);
  ignore (Event_queue.take q ~clock);
  Gc.full_major ();
  Alcotest.(check bool) "drained queue keeps nothing alive" false
    (Weak.check weak 1 || Weak.check weak 2);
  Alcotest.(check int) "queue still usable" 0 (Event_queue.length q)

let test_queue_peak () =
  let q = Event_queue.create () in
  Alcotest.(check int) "empty peak" 0 (Event_queue.peak q);
  for i = 1 to 100 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  for _ = 1 to 60 do
    ignore (queue_pop q)
  done;
  for i = 1 to 10 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "peak is high-water mark" 100 (Event_queue.peak q);
  Alcotest.(check int) "length is live count" 50 (Event_queue.length q)

let test_engine_batch_semantics () =
  (* Reorder-hook batches: events sharing a timestamp pop as one batch;
     events a batch schedules at the same virtual time form a later
     batch. The unboxed queue and scratch-buffer pop_batch must
     preserve these semantics. *)
  let engine = Engine.create () in
  let log = ref [] in
  let batches = ref [] in
  Engine.set_reorder_hook engine
    (Some
       (fun batch ->
         batches := Array.length batch :: !batches;
         batch));
  Engine.schedule engine ~delay:1.0 (fun () ->
      log := "a" :: !log;
      Engine.schedule engine ~delay:0.0 (fun () -> log := "d" :: !log));
  Engine.schedule engine ~delay:1.0 (fun () -> log := "b" :: !log);
  Engine.schedule engine ~delay:1.0 (fun () -> log := "c" :: !log);
  ignore (Engine.run engine ());
  Alcotest.(check (list string)) "FIFO within batch, spawn in next batch"
    [ "a"; "b"; "c"; "d" ] (List.rev !log);
  Alcotest.(check (list int)) "batch sizes" [ 3; 1 ] (List.rev !batches)

let test_engine_counters () =
  let engine = Engine.create () in
  for i = 1 to 5 do
    Engine.schedule engine ~delay:(float_of_int i) (fun () -> ())
  done;
  Alcotest.(check int) "pending" 5 (Engine.pending engine);
  Alcotest.(check int) "peak" 5 (Engine.peak_pending engine);
  ignore (Engine.run engine ());
  Alcotest.(check int) "drained" 0 (Engine.pending engine);
  Alcotest.(check int) "peak survives drain" 5 (Engine.peak_pending engine);
  Alcotest.(check int) "events processed" 5 (Engine.events_processed engine)

(* The dispatch loop's allocation is O(1), not O(events): thunks are
   built and scheduled before the measured run. *)
let test_engine_run_allocation () =
  let engine = Engine.create () in
  let n = 20_000 in
  let count = ref 0 in
  let thunks = Array.init n (fun _ () -> incr count) in
  Array.iteri (fun i f -> Engine.schedule engine ~delay:(float_of_int (i mod 97)) f) thunks;
  let before = Gc.minor_words () in
  let ran = Engine.run engine ~until:1e9 () in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "all events ran" n ran;
  Alcotest.(check int) "every thunk ran once" n !count;
  if words > 100.0 then
    Alcotest.failf "Engine.run allocated %.0f minor words for %d events" words n

let suite =
  [
    ( "population",
      [
        Alcotest.test_case "equivalence audit: 20 seeds vs harness" `Slow
          test_equivalence_audit;
        Alcotest.test_case "same seed, same blocks" `Quick test_population_determinism;
        Alcotest.test_case "pinned counts of one 2,000-user run" `Quick
          test_population_pinned_counts;
        Alcotest.test_case "flat sweep = per-user verify + select_j" `Quick
          test_sweep_matches_per_user_path;
        Alcotest.test_case "only a minority materialized at scale" `Quick
          test_abstraction_materializes_minority;
        Alcotest.test_case "round stats are sane" `Quick test_population_stats;
        Alcotest.test_case "obs gauges exported" `Quick test_population_gauges;
      ] );
    ( "event-queue-unboxed",
      [
        Alcotest.test_case "ordering and FIFO tie-break vs oracle" `Quick
          test_queue_ordering;
        Alcotest.test_case "2000-op random interleaving vs oracle" `Quick
          test_queue_random_interleaving;
        Alcotest.test_case "slot reuse, growth and ties vs oracle" `Quick
          test_queue_slot_reuse_growth_ties;
        Alcotest.test_case "taken payloads are not retained" `Quick test_queue_retention;
        Alcotest.test_case "peak high-water mark" `Quick test_queue_peak;
        Alcotest.test_case "engine batch semantics" `Quick test_engine_batch_semantics;
        Alcotest.test_case "engine counters" `Quick test_engine_counters;
        Alcotest.test_case "engine run allocates O(1)" `Quick test_engine_run_allocation;
      ] );
  ]
