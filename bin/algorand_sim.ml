(* algorand-sim: command-line driver for the simulated Algorand
   deployment and its baselines.

     algorand-sim run --users 50 --rounds 3 --block-bytes 1000000
     algorand-sim run --attack equivocate --malicious 0.2
     algorand-sim run --attack partition --recovery
     algorand-sim committee --honest 0.8
     algorand-sim bitcoin --days 30 *)

open Cmdliner
module Harness = Algorand_core.Harness
module Figures = Algorand_core.Figures
module Node = Algorand_core.Node
module Chain = Algorand_ledger.Chain
module Params = Algorand_ba.Params
module Committee = Algorand_sortition.Committee
module Nakamoto = Algorand_baselines.Nakamoto
module Metrics = Algorand_sim.Metrics
module Trace = Algorand_obs.Trace
module Registry = Algorand_obs.Registry

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_cmd =
  let users =
    Arg.(value & opt int 50 & info [ "users" ] ~docv:"N" ~doc:"Number of simulated users.")
  in
  let rounds = Arg.(value & opt int 3 & info [ "rounds" ] ~doc:"Rounds to run.") in
  let block_bytes =
    Arg.(value & opt int 1_000_000 & info [ "block-bytes" ] ~doc:"Target block size.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic RNG seed.") in
  let attack =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", `None);
               ("equivocate", `Equivocate);
               ("partition", `Partition);
               ("dos", `Dos);
               ("delay-votes", `Delay_votes);
               ("churn", `Churn);
               ("flood", `Flood);
               ("corrupt", `Corrupt);
             ])
          `None
      & info [ "attack" ]
          ~doc:"Adversary: none, equivocate, partition, dos, delay-votes, churn, \
                flood or corrupt.")
  in
  let wire =
    Arg.(
      value
      & opt (enum [ ("typed", `Typed); ("bytes", `Bytes) ]) `Typed
      & info [ "wire" ]
          ~doc:"Transport: typed OCaml values, or bytes (every message runs \
                through the codec at each hop).")
  in
  let flood_rate =
    Arg.(value & opt float 200.0
         & info [ "flood-rate" ] ~doc:"Garbage frames/s per flooder (for flood).")
  in
  let flood_fraction =
    Arg.(value & opt float 0.1
         & info [ "flood-fraction" ] ~doc:"Fraction of users that turn flooder.")
  in
  let corrupt_p =
    Arg.(value & opt float 0.05
         & info [ "corrupt-p" ] ~doc:"Per-frame corruption probability (for corrupt).")
  in
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~doc:"Uniform message-loss probability.")
  in
  let churn_fraction =
    Arg.(value & opt float 0.3
         & info [ "churn-fraction" ] ~doc:"Fraction of nodes crashed per churn tick.")
  in
  let churn_period =
    Arg.(value & opt float 12.0 & info [ "churn-period" ] ~doc:"Seconds between churn ticks.")
  in
  let churn_down =
    Arg.(value & opt float 8.0 & info [ "churn-down" ] ~doc:"Seconds a crashed node stays down.")
  in
  let churn_until =
    Arg.(value & opt float 80.0 & info [ "churn-until" ] ~doc:"Sim-time when churn stops.")
  in
  let malicious =
    Arg.(value & opt float 0.2 & info [ "malicious" ] ~doc:"Malicious stake fraction (for equivocate).")
  in
  let bandwidth =
    Arg.(value & opt float 20e6 & info [ "bandwidth" ] ~doc:"Per-process uplink, bits/s.")
  in
  let fanout = Arg.(value & opt int 4 & info [ "fanout" ] ~doc:"Gossip connections initiated per user.") in
  let tx_rate = Arg.(value & opt float 2.0 & info [ "tx-rate" ] ~doc:"Transactions/s workload.") in
  let tx_skew =
    Arg.(value & opt float 0.0
         & info [ "tx-skew" ] ~doc:"Zipf hot-key skew exponent for the workload (0 = uniform).")
  in
  let tx_invalid =
    Arg.(value & opt float 0.0
         & info [ "tx-invalid" ] ~doc:"Fraction of workload transactions that are invalid (bad nonce / overdraft).")
  in
  let tx_dup =
    Arg.(value & opt float 0.0
         & info [ "tx-dup" ] ~doc:"Fraction of workload transactions that are byte-identical duplicates.")
  in
  let tx_selfpay =
    Arg.(value & opt float 0.0
         & info [ "tx-selfpay" ] ~doc:"Fraction of workload transactions that are self-payments.")
  in
  let tx_burst_period =
    Arg.(value & opt float 0.0
         & info [ "tx-burst-period" ] ~doc:"Square-wave burst period in seconds (0 = no bursts).")
  in
  let tx_burst_mult =
    Arg.(value & opt float 5.0
         & info [ "tx-burst-mult" ] ~doc:"Arrival-rate multiplier inside the burst window.")
  in
  let recovery = Arg.(value & flag & info [ "recovery" ] ~doc:"Enable the section 8.2 recovery protocol.") in
  let real_crypto =
    Arg.(value & flag & info [ "real-crypto" ] ~doc:"Use ed25519 + ECVRF instead of the simulation schemes (slow).")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.") in
  let save_dir =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"DIR"
             ~doc:"After the run, save the certified block history to DIR.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the structured event trace to FILE as JSONL (one event per line).")
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"After the run, write the metrics-registry snapshot to FILE as JSON.")
  in
  let run users rounds block_bytes seed attack malicious bandwidth fanout tx_rate
      recovery real_crypto verbose save_dir loss churn_fraction churn_period churn_down
      churn_until trace_out metrics_out wire flood_rate flood_fraction corrupt_p tx_skew
      tx_invalid tx_dup tx_selfpay tx_burst_period tx_burst_mult =
    setup_logs verbose;
    let tx_profile =
      if
        tx_skew > 0.0 || tx_invalid > 0.0 || tx_dup > 0.0 || tx_selfpay > 0.0
        || tx_burst_period > 0.0
      then
        Some
          {
            Harness.tx_zipf_s = tx_skew;
            tx_mix =
              {
                Algorand_ledger.Workload.invalid = tx_invalid;
                duplicate = tx_dup;
                self_pay = tx_selfpay;
              };
            tx_burst =
              (if tx_burst_period > 0.0 then
                 Some
                   {
                     Algorand_ledger.Workload.period_s = tx_burst_period;
                     duty = 0.25;
                     mult = tx_burst_mult;
                   }
               else None);
          }
      else None
    in
    let trace, trace_oc =
      match trace_out with
      | None -> (None, None)
      | Some path ->
        let tr = Trace.create () in
        Trace.enable tr;
        let oc = open_out path in
        Trace.add_jsonl tr oc;
        (Some tr, Some oc)
    in
    let params =
      if recovery || attack = `Churn || attack = `Flood || attack = `Corrupt then
        { Params.paper with
          lambda_priority = 1.0; lambda_stepvar = 1.0; lambda_block = 10.0;
          lambda_step = 5.0; max_steps = 6; recovery_interval = 150.0 }
      else Params.paper
    in
    let attack, malicious_fraction =
      match attack with
      | `None -> (Harness.No_attack, 0.0)
      | `Equivocate -> (Harness.Equivocate, malicious)
      | `Partition -> (Harness.Partition { from_ = 4.0; until = 100.0 }, 0.0)
      | `Dos -> (Harness.Targeted_dos { fraction = 0.1; from_ = 5.0; until = 60.0 }, 0.0)
      | `Delay_votes ->
        ( Harness.Delay_votes
            { delay = params.lambda_step *. 1.1; from_ = 0.0; until = 60.0 },
          0.0 )
      | `Churn ->
        ( Harness.Crash_churn
            (Harness.Periodic
               {
                 start = 5.0;
                 period = churn_period;
                 fraction = churn_fraction;
                 down_for = churn_down;
                 until = churn_until;
               }),
          0.0 )
      | `Flood ->
        ( Harness.Flood
            {
              flooders = flood_fraction;
              rate_per_s = flood_rate;
              frame_bytes = 512;
              from_ = 2.0;
              until = 1_000.0;
            },
          0.0 )
      | `Corrupt -> (Harness.Corrupt { p = corrupt_p; from_ = 0.0; until = 60.0 }, 0.0)
    in
    let config =
      {
        Harness.default with
        users;
        rounds;
        block_bytes;
        rng_seed = seed;
        attack;
        malicious_fraction;
        bandwidth_bps = bandwidth;
        fanout;
        tx_rate_per_s = tx_rate;
        tx_profile;
        recovery_enabled = recovery;
        params;
        crypto = (if real_crypto then Harness.Real_crypto else Harness.Sim_crypto);
        max_sim_time = 3_600.0;
        loss;
        trace;
        wire;
      }
    in
    let r = Harness.run config in
    (match trace_oc with
    | Some oc ->
      (match trace with Some tr -> Trace.flush tr | None -> ());
      close_out oc;
      Printf.printf "trace: wrote %s\n" (Option.get trace_out)
    | None -> ());
    (match metrics_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc (Registry.to_json (Metrics.registry r.harness.metrics));
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics: wrote %s\n" path);
    Printf.printf "simulated %.1fs of network time, %d events\n" r.sim_time r.events;
    Printf.printf "round completion: %s\n"
      (Format.asprintf "%a" Algorand_sim.Stats.pp_summary r.completion);
    Printf.printf "finality: %d final rounds, %d tentative\n" r.final_rounds
      r.tentative_rounds;
    if r.txs.submitted > 0 || r.txs.committed > 0 then
      Printf.printf
        "txs: %d submitted (%d invalid, %d dup, %d self-pay), %d committed (%d \
         self-pay), conservation %s\n"
        r.txs.submitted r.txs.submitted_invalid r.txs.submitted_duplicate
        r.txs.submitted_self_pay r.txs.committed r.txs.committed_self_pay
        (if r.txs.conservation_ok then "ok" else "VIOLATED");
    Printf.printf "safety: %d agreed rounds, forked=%s, double-final=%s\n"
      r.safety.agreement_rounds
      (String.concat "," (List.map string_of_int r.safety.forked_rounds))
      (String.concat "," (List.map string_of_int r.safety.double_final));
    if
      wire = `Bytes || r.wire.decode_failures > 0 || r.wire.quota_drops > 0
      || r.wire.banned_links > 0
    then
      Printf.printf "wire: %d decode failures, %d quota drops, %d banned links (nodes %s)\n"
        r.wire.decode_failures r.wire.quota_drops r.wire.banned_links
        (String.concat "," (List.map string_of_int r.wire.banned_nodes));
    let recoveries =
      Array.fold_left (fun a n -> a + Node.recoveries_completed n) 0 r.harness.nodes
    in
    if recoveries > 0 then Printf.printf "recoveries completed: %d\n" recoveries;
    let churn_failed =
      if r.churn.crashes > 0 then begin
        Printf.printf
          "churn: %d crashes, %d restarts, %d rejoins (mean %.1fs, max %.1fs), %d \
           retries\n"
          r.churn.crashes r.churn.restarts r.churn.rejoins r.churn.mean_rejoin_s
          r.churn.max_rejoin_s r.churn.retries;
        Array.iteri
          (fun i n ->
            if Node.status n <> Stopped then
              Printf.printf "churn: node %d unfinished: status=%s round=%d tip=%d crashes=%d\n"
                i
                (Node.status_to_string (Node.status n))
                (Node.round n)
                (Chain.tip (Node.chain n)).height (Node.crash_count n))
          r.harness.nodes;
        if r.churn.divergent_restarted <> [] then
          Printf.printf "churn: DIVERGENT restarted nodes: %s\n"
            (String.concat "," (List.map string_of_int r.churn.divergent_restarted));
        r.churn.divergent_restarted <> [] || r.churn.unfinished <> []
      end
      else false
    in
    Harness.cleanup_stores r.harness;
    let tip = Chain.tip (Node.chain r.harness.nodes.(0)) in
    Printf.printf "node 0 tip: height %d%s\n" tip.height (if tip.final then " [final]" else "");
    (match save_dir with
    | None -> ()
    | Some dir -> (
      match
        Array.to_list r.harness.nodes
        |> List.find_opt (fun n ->
               List.for_all
                 (fun round -> Algorand_core.Node.certificate n ~round <> None)
                 (List.init rounds (fun i -> i + 1)))
      with
      | None -> Printf.printf "no node holds certificates for every round; nothing saved\n"
      | Some node ->
        let items = Algorand_core.Catchup.collect node ~up_to_round:rounds in
        Algorand_core.Disk_store.save dir items;
        Printf.printf "saved %d certified blocks to %s (%d KB)\n" (List.length items)
          dir
          (Algorand_core.Disk_store.size_bytes dir / 1024)));
    if r.safety.double_final <> [] || churn_failed || not r.txs.conservation_ok then begin
      Printf.printf "SAFETY VIOLATION at seed %d\n" seed;
      let attack_name =
        match attack with
        | Harness.No_attack -> "none"
        | Harness.Equivocate -> "equivocate"
        | Harness.Partition _ -> "partition"
        | Harness.Targeted_dos _ -> "dos"
        | Harness.Delay_votes _ -> "delay-votes"
        | Harness.Crash_churn _ -> "churn"
        | Harness.Flood _ -> "flood"
        | Harness.Corrupt _ -> "corrupt"
        | Harness.Undecidable _ -> "undecidable"
        | Harness.Adaptive_corrupt _ -> "adaptive"
      in
      Printf.printf
        "REPRODUCE: algorand-sim run --users %d --rounds %d --seed %d --attack %s \
         --malicious %g --loss %g --churn-fraction %g --churn-period %g --churn-down \
         %g --churn-until %g --tx-rate %g --wire %s --flood-rate %g --flood-fraction \
         %g --corrupt-p %g%s\n"
        users rounds seed attack_name malicious loss churn_fraction churn_period
        churn_down churn_until tx_rate
        (match wire with `Typed -> "typed" | `Bytes -> "bytes")
        flood_rate flood_fraction corrupt_p
        (if recovery then " --recovery" else "");
      exit 1
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run a simulated Algorand deployment.")
    Term.(
      const run $ users $ rounds $ block_bytes $ seed $ attack $ malicious $ bandwidth
      $ fanout $ tx_rate $ recovery $ real_crypto $ verbose $ save_dir $ loss
      $ churn_fraction $ churn_period $ churn_down $ churn_until $ trace_out
      $ metrics_out $ wire $ flood_rate $ flood_fraction $ corrupt_p $ tx_skew
      $ tx_invalid $ tx_dup $ tx_selfpay $ tx_burst_period $ tx_burst_mult)

(* ------------------------------------------------------------------ *)
(* committee                                                           *)
(* ------------------------------------------------------------------ *)

let committee_cmd =
  let honest =
    Arg.(value & opt float 0.8 & info [ "honest" ] ~docv:"H" ~doc:"Honest stake fraction (> 2/3).")
  in
  let target =
    Arg.(value & opt float 5e-9 & info [ "target" ] ~doc:"Violation probability target.")
  in
  let go honest target =
    let tau, t = Committee.required_committee_size ~target ~h:honest () in
    Printf.printf "h=%.2f target=%.1e -> tau_step=%d T=%.3f (violation %.2e)\n" honest
      target tau t
      (Committee.violation_probability ~h:honest ~tau:(float_of_int tau) ~t)
  in
  Cmd.v
    (Cmd.info "committee" ~doc:"Committee size required for a safety target (Figure 3).")
    Term.(const go $ honest $ target)

(* ------------------------------------------------------------------ *)
(* bitcoin                                                             *)
(* ------------------------------------------------------------------ *)

let bitcoin_cmd =
  let days = Arg.(value & opt float 30.0 & info [ "days" ] ~doc:"Simulated days.") in
  let interval =
    Arg.(value & opt float 600.0 & info [ "interval" ] ~doc:"Mean block interval (s).")
  in
  let go days interval =
    let r =
      Nakamoto.run
        { Nakamoto.bitcoin_default with duration_s = days *. 86_400.0; mean_block_interval_s = interval }
    in
    Printf.printf "blocks found: %d  main chain: %d  orphan rate: %.2f%%\n" r.blocks_found
      r.main_chain_length (100.0 *. r.orphan_rate);
    Printf.printf "throughput: %.1f MB/hour  confirmation (6 deep): %.0f s\n"
      (r.throughput_bytes_per_hour /. 1e6)
      r.mean_confirmation_latency_s
  in
  Cmd.v (Cmd.info "bitcoin" ~doc:"Run the Nakamoto-consensus baseline.")
    Term.(const go $ days $ interval)

(* ------------------------------------------------------------------ *)
(* --figure: regenerate a section 10 figure artifact                   *)
(* ------------------------------------------------------------------ *)

(* Default command, so `algorand-sim --figure 7` works without a
   subcommand. Writes the Figure 7 latency breakdown regenerated from
   the metrics registry; deterministic per seed, NaN-free. *)
let figure_term =
  let figure =
    Arg.(value & opt (some int) None
         & info [ "figure" ] ~docv:"N"
             ~doc:"Regenerate the paper's figure N from a fresh deterministic run \
                   (currently only 7: the round-latency breakdown).")
  in
  let users = Arg.(value & opt int 50 & info [ "users" ] ~doc:"Simulated users.") in
  let rounds = Arg.(value & opt int 5 & info [ "rounds" ] ~doc:"Rounds to run.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic RNG seed.") in
  let block_bytes =
    Arg.(value & opt int 1_000_000 & info [ "block-bytes" ] ~doc:"Target block size.")
  in
  let out =
    Arg.(value & opt string "results/FIG7.json"
         & info [ "out" ] ~docv:"FILE" ~doc:"Output path for the figure artifact.")
  in
  let go figure users rounds seed block_bytes out =
    match figure with
    | None -> `Help (`Pager, None)
    | Some 7 ->
      let json = Figures.fig7_run ~users ~rounds ~seed ~block_bytes () in
      Figures.write ~path:out json;
      Printf.printf "figure 7: wrote %s\n" out;
      `Ok ()
    | Some n ->
      `Error (false, Printf.sprintf "figure %d not supported (only --figure 7)" n)
  in
  Term.(ret (const go $ figure $ users $ rounds $ seed $ block_bytes $ out))

let () =
  let doc = "Simulated Algorand (SOSP 2017) deployments and baselines" in
  exit
    (Cmd.eval
       (Cmd.group ~default:figure_term
          (Cmd.info "algorand-sim" ~doc)
          [ run_cmd; committee_cmd; bitcoin_cmd ]))
