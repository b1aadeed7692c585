(* Whole-network integration tests through the experiment harness:
   liveness and safety in the common case, transaction confirmation,
   byzantine equivocation, targeted DoS, and determinism. These run a
   real simulated deployment, so they are tagged slow. *)

module Harness = Algorand_core.Harness
module Deployment = Algorand_core.Deployment
module Genesis = Algorand_ledger.Genesis
module Hex = Algorand_crypto.Hex
module Node = Algorand_core.Node
module Chain = Algorand_ledger.Chain
module Block = Algorand_ledger.Block
module Transaction = Algorand_ledger.Transaction
module Balances = Algorand_ledger.Balances
module Metrics = Algorand_sim.Metrics

let ts name f = Alcotest.test_case name `Slow f

let base_config =
  {
    Harness.default with
    users = 16;
    rounds = 2;
    block_bytes = 50_000;
    tx_rate_per_s = 1.0;
    rng_seed = 1;
  }

let happy_network () =
  let r = Harness.run base_config in
  Expect.no_violations r;
  Alcotest.(check int) "both rounds final" 2 r.final_rounds;
  (* All users completed both rounds. *)
  Alcotest.(check int) "completions" (16 * 2) r.completion.count;
  (* Rounds complete within the paper's "about a minute". *)
  Alcotest.(check bool)
    (Printf.sprintf "median %.1fs < 60s" r.completion.median)
    true (r.completion.median < 60.0)

let transactions_confirm () =
  let r = Harness.run { base_config with tx_rate_per_s = 5.0; rounds = 3 } in
  Expect.no_violations r;
  (* Some submitted transactions must have landed in blocks and moved
     money on every node's chain identically. *)
  let committed (node : Node.t) =
    let chain = Node.chain node in
    List.concat_map
      (fun (e : Chain.entry) -> e.block.txs)
      (Chain.ancestry chain (Chain.tip chain).hash)
  in
  let txs0 = committed r.harness.nodes.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "committed %d txs" (List.length txs0))
    true
    (List.length txs0 > 0);
  Array.iter
    (fun n ->
      Alcotest.(check int) "same tx count everywhere" (List.length txs0)
        (List.length (committed n)))
    r.harness.nodes;
  (* Total stake is conserved on the final balances. *)
  let tip = Chain.tip (Node.chain r.harness.nodes.(0)) in
  Alcotest.(check int) "conservation" (Balances.total r.harness.genesis.balances)
    (Balances.total tip.balances_after)

let equivocation_attack_safe () =
  (* 20% byzantine stake equivocating (section 10.4's attack): safety
     must hold; liveness may degrade to empty blocks at worst. *)
  let r =
    Harness.run
      {
        base_config with
        users = 16;
        rounds = 2;
        malicious_fraction = 0.2;
        attacks = [ Harness.Equivocate ];
        rng_seed = 3;
      }
  in
  Expect.no_violations r;
  Alcotest.(check bool) "all users completed" true
    (r.completion.count = 16 * 2)

let targeted_dos_safe () =
  (* Disconnect 10% of users mid-run: the rest keep going; reconnected
     users are simply late. Safety must hold throughout. *)
  let r =
    Harness.run
      {
        base_config with
        rounds = 2;
        attacks = [ Harness.Targeted_dos { fraction = 0.1; from_ = 5.0; until = 30.0 } ];
        rng_seed = 4;
      }
  in
  Expect.no_violations r

(* A DoS window that outlasts the run keeps its targets offline to the
   end: they are not held to liveness, while every other node still
   is, and so are the targets once their window has closed. *)
let dos_outlasting_run () =
  let r =
    Harness.run
      {
        base_config with
        users = 10;
        attacks = [ Harness.Targeted_dos { fraction = 0.2; from_ = 0.0; until = 1e9 } ];
        max_sim_time = 600.0;
        rng_seed = 4;
      }
  in
  let targets = List.sort compare (List.concat_map fst r.harness.dos_targets) in
  Alcotest.(check int) "two targets" 2 (List.length targets);
  Alcotest.(check (list int)) "only targets unfinished" targets r.churn.unfinished;
  Expect.no_violations r;
  let names r =
    List.map (fun (v : Algorand_core.Verdict.violation) -> v.invariant) (Harness.violations r)
  in
  let other = List.find (fun i -> not (List.mem i targets)) [ 0; 1; 2; 3 ] in
  Alcotest.(check (list string)) "a stuck non-target" [ "liveness" ]
    (names { r with churn = { r.churn with unfinished = other :: r.churn.unfinished } });
  Alcotest.(check (list string)) "window closed in time" [ "liveness" ]
    (names
       {
         r with
         harness =
           { r.harness with dos_targets = [ (targets, r.sim_time -. 1.0) ] };
       })

(* The verdict's liveness rule: a run cut short by [max_sim_time]
   leaves every node unfinished and reports liveness, unless its own
   attacks put the faulty weight at 1/3 or more - there the paper
   promises no progress, so only safety is held. *)
let liveness_envelope () =
  let cut = { base_config with rounds = 2; max_sim_time = 5.0 } in
  let names config =
    List.map
      (fun (v : Algorand_core.Verdict.violation) -> v.invariant)
      (Harness.violations (Harness.run config))
  in
  Alcotest.(check (list string)) "cut short" [ "liveness" ] (names cut);
  let equivocate fraction =
    { cut with malicious_fraction = fraction; attacks = [ Harness.Equivocate ] }
  in
  Alcotest.(check (list string)) "below 1/3 equivocating" [ "liveness" ]
    (names (equivocate 0.3));
  Alcotest.(check (list string)) "1/3 equivocating" [] (names (equivocate (1.0 /. 3.0)))

let deterministic_runs () =
  let r1 = Harness.run { base_config with rounds = 1 } in
  let r2 = Harness.run { base_config with rounds = 1 } in
  Alcotest.(check (float 1e-9)) "same sim time" r1.sim_time r2.sim_time;
  Alcotest.(check int) "same events" r1.events r2.events;
  Alcotest.(check (float 1e-9)) "same median" r1.completion.median r2.completion.median;
  let r3 = Harness.run { base_config with rounds = 1; rng_seed = 99 } in
  Alcotest.(check bool) "different seed differs" true
    (r3.events <> r1.events || r3.sim_time <> r1.sim_time)

let deterministic_bit_identical () =
  (* The model checker's replay traces (lib/check) assume the whole
     deployment is a pure function of rng_seed: same seed must yield
     bit-identical chain hashes on every node and identical byte
     counters, not merely matching aggregates. *)
  let run () = Harness.run { base_config with rounds = 2; rng_seed = 11 } in
  let r1 = run () and r2 = run () in
  let chain_hashes (r : Harness.result) =
    Array.to_list r.harness.nodes
    |> List.concat_map (fun n ->
           let chain = Node.chain n in
           List.map
             (fun (e : Chain.entry) -> Printf.sprintf "%d:%s:%b" e.height e.hash e.final)
             (Chain.ancestry chain (Chain.tip chain).hash))
  in
  Alcotest.(check (list string)) "bit-identical chains" (chain_hashes r1)
    (chain_hashes r2);
  Alcotest.(check (list (float 0.0))) "bit-identical bytes sent"
    (Array.to_list (Metrics.bytes_sent r1.harness.metrics))
    (Array.to_list (Metrics.bytes_sent r2.harness.metrics));
  Alcotest.(check (list (float 0.0))) "bit-identical bytes received"
    (Array.to_list (Metrics.bytes_received r1.harness.metrics))
    (Array.to_list (Metrics.bytes_received r2.harness.metrics));
  Alcotest.(check int) "same event count" r1.events r2.events;
  Alcotest.(check (float 0.0)) "same sim time" r1.sim_time r2.sim_time

let all_chains_converge () =
  let r = Harness.run { base_config with rounds = 3; rng_seed = 5 } in
  Expect.no_violations r;
  let tip_hash n = (Chain.tip (Node.chain n)).hash in
  let h0 = tip_hash r.harness.nodes.(0) in
  Array.iter
    (fun n -> Alcotest.(check bool) "same tip" true (String.equal h0 (tip_hash n)))
    r.harness.nodes;
  (* Final blocks carry certificates on at least one node. *)
  let has_cert =
    Array.exists (fun n -> Node.certificate n ~round:1 <> None) r.harness.nodes
  in
  Alcotest.(check bool) "certificates assembled" true has_cert

let bandwidth_accounted () =
  let r = Harness.run { base_config with rounds = 1 } in
  let sent = Metrics.bytes_sent r.harness.metrics in
  let total = Array.fold_left ( +. ) 0.0 sent in
  Alcotest.(check bool) "bytes flowed" true (total > 100_000.0)

let partition_recovery () =
  (* Weak synchrony (section 8.2): a partition splits the network into
     halves, neither of which can cross the vote threshold; with a
     small MaxSteps every node hangs. After the network heals, the
     synchronized recovery protocol must restore liveness: fork
     proposal, BA* on the recovery block, and normal rounds resuming,
     with all users converging on one chain. *)
  let params =
    {
      Algorand_ba.Params.paper with
      lambda_priority = 1.0;
      lambda_stepvar = 1.0;
      lambda_block = 10.0;
      lambda_step = 5.0;
      max_steps = 6;
      recovery_interval = 150.0;
    }
  in
  let r =
    Harness.run
      {
        base_config with
        users = 16;
        rounds = 3;
        params;
        block_bytes = 20_000;
        tx_rate_per_s = 0.0;
        attacks = [ Harness.Partition { from_ = 4.0; until = 100.0 } ];
        recovery_enabled = true;
        max_sim_time = 600.0;
        rng_seed = 8;
      }
  in
  Expect.no_violations r;
  let recoveries =
    Array.fold_left (fun acc n -> acc + Node.recoveries_completed n) 0 r.harness.nodes
  in
  Alcotest.(check bool)
    (Printf.sprintf "recoveries happened (%d)" recoveries)
    true (recoveries >= 16);
  (* Liveness restored: everyone reached the final round and converged. *)
  let tip_height n = (Chain.tip (Node.chain n)).height in
  Array.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "node reached round 3 (tip %d)" (tip_height n))
        true
        (tip_height n >= 3))
    r.harness.nodes;
  let tip0 = (Chain.tip (Node.chain r.harness.nodes.(0))).hash in
  Array.iter
    (fun n ->
      Alcotest.(check bool) "converged tips" true
        (String.equal tip0 (Chain.tip (Node.chain n)).hash))
    r.harness.nodes

let real_crypto_end_to_end () =
  (* A tiny deployment on the *real* cryptography (ed25519 Schnorr +
     ECVRF): every signature, sortition proof, seed proof and priority
     is actually verified. Committee sizes are scaled down so the run
     stays in seconds. *)
  let params =
    {
      Algorand_ba.Params.paper with
      tau_proposer = 4.0;
      tau_step = 12.0;
      tau_final = 16.0;
      lambda_priority = 1.0;
      lambda_stepvar = 1.0;
      lambda_block = 10.0;
      lambda_step = 5.0;
    }
  in
  let r =
    Harness.run
      {
        base_config with
        users = 5;
        rounds = 1;
        params;
        crypto = Harness.Real_crypto;
        block_bytes = 5_000;
        tx_rate_per_s = 1.0;
        rng_seed = 6;
      }
  in
  Expect.no_violations r;
  Alcotest.(check int) "everyone completed" 5 r.completion.count;
  Alcotest.(check bool) "round reached consensus" true
    (r.final_rounds + r.tentative_rounds >= 1)

let pipelining_works_and_helps () =
  (* Section 10.2: the final step can be pipelined with the next round.
     With pipelining on, rounds must still agree and be final, and the
     cadence (time to finish all rounds) must not be worse. *)
  let run pipeline_final =
    Harness.run { base_config with rounds = 4; pipeline_final; rng_seed = 17 }
  in
  let plain = run false and piped = run true in
  Expect.no_violations plain;
  Expect.no_violations piped;
  Alcotest.(check int) "piped all rounds final" 4 piped.final_rounds;
  (* Cadence: last completion timestamp across users. *)
  let last_done (r : Harness.result) =
    List.fold_left
      (fun acc (rec_ : Algorand_sim.Metrics.round_record) ->
        if Float.is_nan rec_.final_done then acc else Float.max acc rec_.final_done)
      0.0 (Algorand_sim.Metrics.records r.harness.metrics)
  in
  let t_plain = last_done plain and t_piped = last_done piped in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined cadence %.2fs <= plain %.2fs" t_piped t_plain)
    true
    (t_piped <= t_plain +. 0.001)

let vote_scheduling_attack () =
  (* Section 7.4's "getting unstuck" scenario: for a window, BinaryBA*
     votes arrive only after the step timeout, so every step resolves
     by timeout and the users' next votes are steered by stale
     information. Once delivery normalizes, the common coin aligns the
     groups and consensus lands - at the cost of extra steps, never of
     safety. *)
  let params =
    {
      Algorand_ba.Params.paper with
      lambda_priority = 1.0;
      lambda_stepvar = 1.0;
      lambda_block = 10.0;
      lambda_step = 4.0;
      max_steps = 60;
    }
  in
  let r =
    Harness.run
      {
        base_config with
        users = 16;
        rounds = 2;
        params;
        block_bytes = 10_000;
        tx_rate_per_s = 0.0;
        attacks = [ Harness.Delay_votes { delay = 4.5; from_ = 0.0; until = 35.0 } ];
        max_sim_time = 1_200.0;
        rng_seed = 23;
      }
  in
  Expect.no_violations r;
  (* Everyone still finished both rounds... *)
  Alcotest.(check int) "all completed" (16 * 2) r.completion.count;
  (* ...and the delayed half needed more than one BinaryBA* step. *)
  let max_steps_taken =
    List.fold_left
      (fun acc (rec_ : Algorand_sim.Metrics.round_record) -> max acc rec_.steps_taken)
      0 (Algorand_sim.Metrics.records r.harness.metrics)
  in
  Alcotest.(check bool)
    (Printf.sprintf "extra steps taken (max %d)" max_steps_taken)
    true (max_steps_taken > 1)

let unequal_stakes () =
  (* Linear stake distribution: weighted sortition and weighted peer
     selection both get exercised; consensus and safety must hold. *)
  let r =
    Harness.run
      { base_config with stake_distribution = `Linear; rounds = 2; rng_seed = 18 }
  in
  Expect.no_violations r;
  Alcotest.(check int) "all completed" (16 * 2) r.completion.count;
  (* Heavier users get selected (and thus vote) more: check the biggest
     staker produced at least one committee appearance via completion of
     consensus itself (indirect), and conservation of total stake. *)
  let tip = Chain.tip (Node.chain r.harness.nodes.(0)) in
  let expected_total = 1000 * (16 * 17 / 2) in
  Alcotest.(check int) "stake conserved" expected_total
    (Balances.total tip.balances_after)

let per_round_seed_refresh () =
  (* R = 1 refreshes the sortition seed every round (the paper uses
     R = 1000; small R stresses the seed-evolution machinery: every
     round reads the previous block's VRF-derived seed). *)
  let params = { Algorand_ba.Params.paper with seed_refresh_interval = 1 } in
  let r = Harness.run { base_config with params; rounds = 3; rng_seed = 19 } in
  Expect.no_violations r;
  Alcotest.(check int) "all three rounds final" 3 r.final_rounds;
  (* The per-round seeds must actually differ (they are VRF outputs
     chained through the blocks). *)
  let chain = Node.chain r.harness.nodes.(0) in
  let seeds =
    List.map
      (fun (e : Chain.entry) -> e.seed)
      (Chain.ancestry chain (Chain.tip chain).hash)
  in
  Alcotest.(check int) "all seeds distinct" (List.length seeds)
    (List.length (List.sort_uniq compare seeds))

(* The deployment derivation, pinned: user i of seed s is
   "user-<s>-<i>" and the stake law is `Equal or `Linear x 1,000. The
   literals were recorded before the harness, the population engine
   and the daemon shared one builder; a change to the seed string, the
   stake law or genesis construction moves them, and with them every
   committed artifact. Genesis.hash commits to the public keys (through
   seed0) but not to the stakes, so the stakes are pinned separately. *)
let deployment_pinned () =
  let deployment law =
    Deployment.make ~stake_law:law ~seed:7 ~users:4 ~params:Algorand_ba.Params.paper
      ~block_bytes:1_000_000 ~rounds:3 ()
  in
  let genesis_hash = "3607b10451b22e201e465226510e1b8b4a7775adeb9c8b1e74e4d615307ef6bd" in
  List.iter
    (fun (law, name, stakes) ->
      let d = deployment law in
      let identities, genesis = Deployment.roster d in
      Alcotest.(check string) (name ^ " genesis hash") genesis_hash
        (Hex.of_string (Genesis.hash genesis));
      Alcotest.(check (list int)) (name ^ " genesis stakes") stakes
        (Array.to_list
           (Array.map
              (fun (id : Algorand_core.Identity.t) ->
                Balances.balance genesis.Genesis.balances id.pk)
              identities));
      let h =
        Harness.build
          { Harness.default with users = 4; rng_seed = 7; stake_distribution = law }
      in
      Alcotest.(check string) (name ^ " harness genesis is the builder's")
        (Genesis.hash genesis) (Genesis.hash h.genesis))
    [
      (`Equal, "equal", [ 1_000; 1_000; 1_000; 1_000 ]);
      (`Linear, "linear", [ 1_000; 2_000; 3_000; 4_000 ]);
    ];
  let real =
    Deployment.make ~crypto:Real_crypto ~seed:7 ~users:4
      ~params:Algorand_ba.Params.paper ~block_bytes:1_000_000 ~rounds:3 ()
  in
  Alcotest.(check string) "real-crypto user 0 pk"
    "5c096d36088ddddd010dc6d2863ce373c8c99698409b4ae3a799d3dcae508083\
     fbe992a699db9d3621ee8c2f0ecc3df43273cca05c607222fad4e7b514d4c4a8"
    (Hex.of_string (Deployment.identity real 0).pk)

(* Three small runs pinned bit for bit, covering the node paths the
   FIG7 golden never reaches: section 8.2 recovery after a partition,
   the pipelined final step, and crash churn under packet loss (live
   catch-up with retries). The digest covers every node's chain
   (hash and finality of each block), its completed recoveries, the
   event count, the simulated time and the whole metrics registry. A
   refactor of the node must leave these digests unchanged; a change
   that moves event order on purpose re-records them and says so. *)
let run_digest (config : Harness.config) ~(reached : Harness.result -> bool) : string =
  let r = Harness.run config in
  Fun.protect
    ~finally:(fun () -> Harness.cleanup_stores r.harness)
    (fun () ->
      Expect.no_violations r;
      Alcotest.(check bool) "the pinned path ran" true (reached r);
      let buf = Buffer.create 4096 in
      Array.iteri
        (fun i n ->
          let chain = Node.chain n in
          Printf.bprintf buf "node %d recoveries %d\n" i (Node.recoveries_completed n);
          List.iter
            (fun (e : Chain.entry) ->
              Printf.bprintf buf "%d:%s:%b\n" e.height (Hex.of_string e.hash) e.final)
            (Chain.ancestry chain (Chain.tip chain).hash))
        r.harness.nodes;
      Printf.bprintf buf "events %d time %h\n" r.events r.sim_time;
      Buffer.add_string buf (Algorand_obs.Registry.to_json (Metrics.registry r.harness.metrics));
      Algorand_crypto.Sha256.digest_hex (Buffer.contents buf))

let node_paths_pinned () =
  let fast =
    {
      Algorand_ba.Params.paper with
      lambda_priority = 1.0;
      lambda_stepvar = 1.0;
      lambda_block = 10.0;
      lambda_step = 5.0;
    }
  in
  let recovery =
    {
      base_config with
      users = 10;
      rounds = 3;
      params = { fast with max_steps = 6; recovery_interval = 150.0 };
      block_bytes = 20_000;
      tx_rate_per_s = 0.0;
      attacks = [ Harness.Partition { from_ = 4.0; until = 100.0 } ];
      recovery_enabled = true;
      max_sim_time = 600.0;
      rng_seed = 8;
    }
  in
  let pipelined =
    { base_config with users = 10; rounds = 3; pipeline_final = true; rng_seed = 17 }
  in
  let churn =
    {
      base_config with
      users = 10;
      rounds = 3;
      params = { fast with max_steps = 8 };
      block_bytes = 10_000;
      tx_rate_per_s = 0.0;
      max_sim_time = 2_000.0;
      rng_seed = 303;
      loss = 0.05;
      attacks =
        [
          Harness.Crash_churn
            (Harness.Periodic
               { start = 5.0; period = 12.0; fraction = 0.3; down_for = 8.0; until = 80.0 });
        ];
    }
  in
  let recovered (r : Harness.result) =
    Array.exists (fun n -> Node.recoveries_completed n > 0) r.harness.nodes
  in
  List.iter
    (fun (name, config, reached, expected) ->
      Alcotest.(check string) (name ^ " digest") expected (run_digest config ~reached))
    [
      ( "partition + recovery",
        recovery,
        recovered,
        "792a2d7ce2b13b76d4b124914b5b56f9bdfd09fa73a320a9136c9fef39d9c39d" );
      ( "pipelined final step",
        pipelined,
        (fun r -> r.final_rounds = 3),
        "208b9de018fb1c2052cfa830d3873ac857a670e4523bf60b5de8b471cbbe7224" );
      ( "crash churn under loss",
        churn,
        (fun r -> r.churn.crashes > 0 && r.churn.retries > 0),
        "c2111b8dd294058387ab50858a657c3068065058c696dfd7ef8e824cfe640132" );
    ]

(* BlockOfHash (Algorithm 3): every round-1 block gossiped to node 0 is
   dropped, so when the committee agrees on a block node 0 holds only
   its hash and must fetch the block from its peers. A short
   lambda_block lets node 0 start BA* (on the empty block) while the
   others still vote in round 1, so it agrees on the hash itself rather
   than catching up later from certified history. It must end with the
   others' chain, the fetch must have run, and no node may have needed
   live catch-up. *)
let block_of_hash_fetch () =
  let victim = 0 in
  let params = { Algorand_ba.Params.paper with lambda_block = 2.0 } in
  let h = Harness.build { base_config with users = 10; rounds = 3; params; rng_seed = 41 } in
  Algorand_netsim.Network.set_adversary h.network (fun ~now:_ ~src:_ ~dst packet ->
      match packet with
      | Algorand_netsim.Gossip.Plain (Algorand_core.Message.Block_gossip b)
        when dst = victim && b.header.round = 1 ->
        Algorand_netsim.Network.Drop
      | _ -> Algorand_netsim.Network.Deliver);
  let r = Harness.drive h in
  Fun.protect
    ~finally:(fun () -> Harness.cleanup_stores h)
    (fun () ->
      Expect.no_violations r;
      let chain n =
        let c = Node.chain n in
        List.map (fun (e : Chain.entry) -> Hex.of_string e.hash) (Chain.ancestry c (Chain.tip c).hash)
      in
      Alcotest.(check int) "three rounds on the victim's chain" 4 (List.length (chain h.nodes.(victim)));
      Array.iter
        (fun n -> Alcotest.(check (list string)) "the victim's chain" (chain n) (chain h.nodes.(victim)))
        h.nodes;
      let registered name =
        Algorand_obs.Registry.counter_value (Metrics.registry h.metrics) name <> None
      in
      Alcotest.(check bool) "the block fetch ran" true (registered "retry.block_fetch.attempts");
      Alcotest.(check bool) "no node fell back on live catch-up" false
        (registered "retry.resync.attempts"))

let suite =
  [
    ( "harness",
      [
        Alcotest.test_case "deployment derivation pinned" `Quick deployment_pinned;
        ts "node paths pinned: recovery, pipelining, churn" node_paths_pinned;
        ts "BlockOfHash fetches a block gossip never delivered" block_of_hash_fetch;
        ts "real crypto end-to-end" real_crypto_end_to_end;
        ts "final-step pipelining" pipelining_works_and_helps;
        ts "look-back variant end-to-end" (fun () ->
            let params =
              { Algorand_ba.Params.paper with ba_variant = Algorand_ba.Params.Look_back }
            in
            let r = Harness.run { base_config with params; rng_seed = 25 } in
            Expect.no_violations r;
            Alcotest.(check int) "all rounds final" 2 r.final_rounds);
        ts "vote scheduling attack (common coin)" vote_scheduling_attack;
        ts "unequal stakes" unequal_stakes;
        ts "per-round seed refresh" per_round_seed_refresh;
        ts "happy network: final consensus" happy_network;
        ts "partition + recovery restores liveness" partition_recovery;
        ts "transactions confirm consistently" transactions_confirm;
        ts "equivocation attack preserves safety" equivocation_attack_safe;
        ts "targeted DoS preserves safety" targeted_dos_safe;
        ts "verdict: DoS outlasting the run" dos_outlasting_run;
        ts "verdict: liveness only inside the 1/3 envelope" liveness_envelope;
        ts "deterministic runs" deterministic_runs;
        ts "deterministic runs are bit-identical" deterministic_bit_identical;
        ts "all chains converge + certificates" all_chains_converge;
        ts "bandwidth accounted" bandwidth_accounted;
      ] );
  ]
