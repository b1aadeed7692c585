(* The evaluation harness: regenerates every table and figure of the
   paper's section 10 (at simulation scale) plus microbenchmarks of the
   cryptographic and sortition primitives, and two ablations.

   Usage:
     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5 fig7    # selected experiments
     SCALE=2 dune exec bench/main.exe -- fig5 # 2x the simulated users

   Experiments: micro fig3 fig4 fig5 fig6 fig7 fig8 throughput
                related-work costs timeouts analysis ablation-committee
                ablation-pipeline ablation-fanout sim ledger check

   `micro`, `sim` and `ledger` record results/BENCH_*.json in the one
   schema of [Bench_snapshot]: each row is the median of [k] runs, with
   their spread. `check`, the one gate, asserts what the committed
   snapshots must show and re-measures a few rows with the functions
   that recorded them, as the median of [k] runs: a timing row fails
   past 2x, a count unless equal.

   The x-axes are scaled down from the paper's 1,000-VM deployment (see
   DESIGN.md section 2 and EXPERIMENTS.md): committee parameters stay at
   paper scale, user counts are simulation-sized. Expected *shapes*, not
   absolute values, are the reproduction target. *)

module Committee = Algorand_sortition.Committee
module Params = Algorand_ba.Params
module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Certificate = Algorand_core.Certificate
module Metrics = Algorand_sim.Metrics
module Stats = Algorand_sim.Stats
module Nakamoto = Algorand_baselines.Nakamoto
module Snap = Bench_snapshot
open Algorand_crypto

let scale =
  match Sys.getenv_opt "SCALE" with
  | Some s -> ( try max 1 (int_of_string s) with _ -> 1)
  | None -> 1

let header title =
  Printf.printf "\n=== %s ===\n%!" title

let pp_summary (s : Stats.summary) =
  Printf.sprintf "min=%6.2f p25=%6.2f med=%6.2f p75=%6.2f max=%6.2f (n=%d)" s.min s.p25
    s.median s.p75 s.max s.count

(* Each sweep also lands in results/<name>.csv for plotting. *)
let csv_dir = "results"

let csv_out (name : string) (header : string) (rows : string list) : unit =
  Algorand_core.Disk_store.write_file
    (Filename.concat csv_dir (name ^ ".csv"))
    (String.concat "\n" (header :: rows) ^ "\n")

(* Runs behind every recorded row: enough for a median and a spread. *)
let k = 3

(* [k] runs of one measurement, merged row by row. *)
let record (measure : unit -> Snap.row list) : Snap.row list =
  Snap.merge (List.init k (fun _ -> measure ()))

let save (path : string) (rows : Snap.row list) : unit =
  List.iter
    (fun (r : Snap.row) ->
      Printf.printf "  %-46s %14s %-9s spread %.3f\n" r.name (Snap.number r.value) r.unit
        r.spread)
    rows;
  Snap.write path rows;
  Printf.printf "  -> %s\n%!" path

let check_verdict name (r : Harness.result) =
  List.iter
    (Format.printf "!! VIOLATION in %s: %a@." name Algorand_core.Verdict.pp_violation)
    (Harness.violations r)

(* ------------------------------------------------------------------ *)
(* Microbenchmarks (Bechamel + manual loops for the heavy composites). *)
(* Emits results/BENCH_crypto.json.                                    *)
(* ------------------------------------------------------------------ *)

(* Bechamel OLS estimate (ns/op) for one closure. *)
let bechamel_ns (name : string) (f : unit -> 'a) : float =
  let open Bechamel in
  let open Toolkit in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let test = Test.make ~name (Staged.stage f) in
  let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
  let analyzed = Analyze.all ols instance results in
  let out = ref Float.nan in
  Hashtbl.iter
    (fun _ r -> match Analyze.OLS.estimates r with Some [ ns ] -> out := ns | _ -> ())
    analyzed;
  !out

(* Wall-clock ns/op for operations too slow to hand to Bechamel. *)
let manual_ns ?(warmup = 2) ~iters (f : unit -> 'a) : float =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9

(* A batch of distinct-key signatures for verify_batch benchmarks. *)
let signature_batch n =
  List.init n (fun i ->
      let sk = Ed25519.generate ~seed:(Printf.sprintf "batch-bench-%d" i) in
      let msg = Printf.sprintf "batch msg %d" i in
      (Ed25519.public_key sk, msg, Ed25519.sign sk msg))

(* A vote-validation context over ed25519 + ECVRF in which every voter
   has weight [w]. *)
let real_ctx ~seed ~total_weight ~w ~prev_hash ~tau : Algorand_ba.Vote.validation_ctx =
  {
    sig_scheme = Signature_scheme.ed25519;
    vrf_scheme = Vrf.ecvrf;
    sig_pk_of = Algorand_core.Identity.sig_pk;
    vrf_pk_of = Algorand_core.Identity.vrf_pk;
    seed;
    total_weight;
    weight_of = (fun _ -> w);
    last_block_hash = prev_hash;
    tau_of_step = (fun _ -> tau);
  }

(* A certificate of ~2000 real votes (ed25519 + ECVRF sortition) plus
   the context to validate it: the committee-scale workload that batch
   verification exists for. Expected weighted votes = tau; user count
   and weights are chosen so ~2000 distinct voters win a seat. *)
let certificate_workload () =
  let sig_scheme = Signature_scheme.ed25519 and vrf_scheme = Vrf.ecvrf in
  let n_users = 2500 and w = 20 in
  let tau = 3800.0 in
  let total_weight = n_users * w in
  let seed = "bench-cert-seed" in
  let prev_hash = String.make 32 'p' in
  let block_hash = String.make 32 'b' in
  let params = { Params.paper with tau_step = tau } in
  let votes =
    List.filter_map
      (fun i ->
        let id =
          Algorand_core.Identity.generate ~sig_scheme ~vrf_scheme
            ~seed:(Printf.sprintf "cert-bench-%d" i)
        in
        Algorand_ba.Vote.make ~signer:id.signer ~prover:id.prover ~pk:id.pk ~seed ~tau
          ~w ~total_weight ~round:1 ~step:(Algorand_ba.Vote.Bin 1) ~prev_hash
          ~value:block_hash)
      (List.init n_users Fun.id)
  in
  let cert =
    Certificate.make ~round:1 ~step:(Algorand_ba.Vote.Bin 1) ~block_hash ~votes
  in
  let ctx = real_ctx ~seed ~total_weight ~w ~prev_hash ~tau in
  (params, ctx, cert)

let crypto_json = Filename.concat csv_dir "BENCH_crypto.json"

(* Pre-engine numbers, measured on this codebase at the seed commit
   (naive double-and-add everywhere, one-by-one certificate
   verification). Kept in the snapshot so the speedup is always
   visible next to the current numbers; DESIGN.md section "Fast-path
   elliptic-curve engine" shows the same table. *)
let pre_engine_baselines =
  [
    ("baseline_ed25519_sign_ns", 1_156_050.0);
    ("baseline_ed25519_verify_ns", 2_998_969.0);
    ("baseline_ecvrf_prove_ns", 4_568_727.0);
    ("baseline_ecvrf_verify_ns", 5_071_770.0);
    ("baseline_certificate_validate_per_vote_ns", 7_840_000.0);
  ]

let ns_row (name : string) (measure : unit -> float) () : Snap.row =
  Snap.row ~name ~unit:"ns" (measure ())

let ed25519_verify_row =
  ns_row "ed25519_verify_ns" (fun () ->
      let ed = Ed25519.generate ~seed:"bench" in
      let msg = String.make 1024 'x' in
      let public = Ed25519.public_key ed and signature = Ed25519.sign ed msg in
      bechamel_ns "ed25519/verify" (fun () -> Ed25519.verify ~public ~msg ~signature))

(* Ed25519 verification under a fresh key on every call: a key's first
   sighting, which pays [decode_checked]'s subgroup check and runs the
   challenge off per-call odd multiples of the key. Each run signs with
   keys no earlier run used, up front. *)
let cold_key_runs = ref 0

let ed25519_verify_cold_key_row =
  ns_row "ed25519_verify_cold_key_ns" (fun () ->
      let iters = 100 and msg = String.make 1024 'x' in
      incr cold_key_runs;
      let keys =
        Array.init (iters + 2) (fun i ->
            let sk = Ed25519.generate ~seed:(Printf.sprintf "cold-key-%d-%d" !cold_key_runs i) in
            (Ed25519.public_key sk, Ed25519.sign sk msg))
      in
      let next = ref 0 in
      manual_ns ~iters (fun () ->
          let public, signature = keys.(!next) in
          incr next;
          if not (Ed25519.verify ~public ~msg ~signature) then failwith "signature must verify"))

(* ECVRF verification against a fresh input on every call, so each
   pays hash-to-curve and the input's table build: the cost of the first
   check of a committee step's proofs. The proofs are made up front; the
   VRF's input cache holds at most 64 inputs, so 64 further proofs
   evict every input before it is verified. *)
let ecvrf_verify_cold_row =
  ns_row "ecvrf_verify_cold_ns" (fun () ->
      let iters = 100 in
      let prover, pk = Vrf.ecvrf.generate ~seed:"bench-cold" in
      let input i = Printf.sprintf "cold-%d" i in
      let proofs = Array.init (iters + 2) (fun i -> snd (prover.prove (input i))) in
      for i = 1 to 64 do
        ignore (prover.prove (Printf.sprintf "evict-%d" i))
      done;
      let next = ref 0 in
      manual_ns ~iters (fun () ->
          let i = !next in
          incr next;
          if Vrf.ecvrf.verify ~pk ~input:(input i) ~proof:proofs.(i) = None then
            failwith "proof must verify"))

(* Which SHA-256 and field kernels this host runs: each pair differs
   several-fold, every crypto row hashes, and every curve operation
   multiplies field elements. *)
let print_kernels () =
  Printf.printf "  SHA-256 kernel: %s\n  field kernel: %s\n%!" Sha256.kernel Fe25519.kernel

let micro () =
  header "Microbenchmarks: crypto + sortition primitives";
  print_kernels ();
  let kb = String.make 1024 'x' in
  let ed = Ed25519.generate ~seed:"bench" in
  let ecvrf_prover, ecvrf_pk = Vrf.ecvrf.generate ~seed:"bench" in
  let _, ecvrf_proof = ecvrf_prover.prove "input" in
  let sim_prover, _ = Vrf.sim.generate ~seed:"bench" in
  let counter = ref 0 in
  let fresh () = incr counter; string_of_int !counter in
  let batch = signature_batch 64 in
  (* Composite consensus-path costs: one vote, then a whole certificate
     (where the per-vote signature cost collapses into the batch). The
     workload is built only once the primitives are measured, so that
     their loops do not run beside its large live heap. *)
  let workload =
    lazy
      (Printf.printf "  building ~2000-vote certificate workload...\n%!";
       certificate_workload ())
  in
  let n_votes (cert : Certificate.t) = float_of_int (List.length cert.votes) in
  let probes =
    [
      ns_row "sha256_1kib_ns" (fun () -> bechamel_ns "sha256/1KiB" (fun () -> Sha256.digest kb));
      ns_row "ed25519_sign_ns" (fun () ->
          bechamel_ns "ed25519/sign" (fun () -> Ed25519.sign ed (fresh ())));
      ed25519_verify_row;
      ed25519_verify_cold_key_row;
      ns_row "ed25519_verify_batch_per_sig_ns" (fun () ->
          manual_ns ~iters:10 (fun () ->
              if not (Ed25519.verify_batch batch) then failwith "batch must verify")
          /. 64.0);
      ns_row "ecvrf_prove_ns" (fun () ->
          bechamel_ns "ecvrf/prove" (fun () -> ecvrf_prover.prove (fresh ())));
      ns_row "ecvrf_verify_ns" (fun () ->
          bechamel_ns "ecvrf/verify" (fun () ->
              Vrf.ecvrf.verify ~pk:ecvrf_pk ~input:"input" ~proof:ecvrf_proof));
      ecvrf_verify_cold_row;
      ns_row "simvrf_prove_ns" (fun () ->
          bechamel_ns "simvrf/prove" (fun () -> sim_prover.prove (fresh ())));
      ns_row "sortition_select_j_ns" (fun () ->
          bechamel_ns "sortition/select_j" (fun () ->
              Algorand_sortition.Binomial.select_j ~frac:0.37 ~w:1000 ~p:0.125));
      ns_row "vote_validate_ns" (fun () ->
          let _, ctx, cert = Lazy.force workload in
          manual_ns ~iters:20 (fun () ->
              if Algorand_ba.Vote.validate ctx (List.hd cert.votes) = 0 then
                failwith "vote must validate"));
      (fun () ->
        let _, _, cert = Lazy.force workload in
        Snap.row ~name:"certificate_votes" ~unit:"count" (n_votes cert));
      ns_row "certificate_validate_per_vote_ns" (fun () ->
          let params, ctx, cert = Lazy.force workload in
          manual_ns ~warmup:1 ~iters:2 (fun () ->
              match Certificate.validate ~params ~ctx cert with
              | Ok () -> ()
              | Error e -> Format.kasprintf failwith "certificate invalid: %a" Certificate.pp_error e)
          /. n_votes cert);
    ]
  in
  save crypto_json
    (List.concat_map (fun probe -> record (fun () -> [ probe () ])) probes
    @ List.map (fun (name, v) -> Snap.row ~name ~unit:"ns" v) pre_engine_baselines)

(* ------------------------------------------------------------------ *)
(* Figure 3: committee size vs honest fraction.                        *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  header "Figure 3: committee size tau vs honest fraction h (violation <= 5e-9)";
  Printf.printf "  %-6s %-10s %-8s\n" "h" "tau_step" "T";
  List.iter
    (fun h ->
      let tau, t = Committee.required_committee_size ~h () in
      Printf.printf "  %-6.2f %-10d %-8.3f%s\n%!" h tau t
        (if h = 0.80 then "   <- paper's operating point (tau=2000, T=0.685)" else ""))
    [ 0.76; 0.78; 0.80; 0.82; 0.84; 0.86; 0.88; 0.90 ];
  let v = Committee.violation_probability ~h:0.8 ~tau:2000.0 ~t:0.685 in
  Printf.printf "  check: violation prob at (h=0.80, tau=2000, T=0.685) = %.2e\n" v

(* ------------------------------------------------------------------ *)
(* Figure 4: the implementation parameter table.                       *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  header "Figure 4: implementation parameters";
  let p = Params.paper in
  Printf.printf "  h            %.0f%%\n" (p.honest_fraction *. 100.0);
  Printf.printf "  R            %d rounds\n" p.seed_refresh_interval;
  Printf.printf "  tau_proposer %.0f\n" p.tau_proposer;
  Printf.printf "  tau_step     %.0f\n" p.tau_step;
  Printf.printf "  T_step       %.1f%%\n" (p.t_step *. 100.0);
  Printf.printf "  tau_final    %.0f\n" p.tau_final;
  Printf.printf "  T_final      %.0f%%\n" (p.t_final *. 100.0);
  Printf.printf "  MaxSteps     %d\n" p.max_steps;
  Printf.printf "  lambda_priority %.0f s\n" p.lambda_priority;
  Printf.printf "  lambda_block    %.0f s\n" p.lambda_block;
  Printf.printf "  lambda_step     %.0f s\n" p.lambda_step;
  Printf.printf "  lambda_stepvar  %.0f s\n" p.lambda_stepvar

(* ------------------------------------------------------------------ *)
(* Figures 5-8: simulated deployments.                                 *)
(* ------------------------------------------------------------------ *)

let base =
  {
    Harness.default with
    rounds = 3;
    block_bytes = 1_000_000;
    tx_rate_per_s = 1.0;
    rng_seed = 2017;
  }

let fig5 () =
  header "Figure 5: round latency vs number of users (1 MB blocks)";
  Printf.printf "  (paper: 5,000-50,000 users across 1,000 VMs; here: simulated processes)\n";
  Printf.printf "  %-8s %s\n" "users" "round completion time (s)";
  let rows =
    List.map
      (fun users ->
        let users = users * scale in
        let r = Harness.run { base with users } in
        check_verdict "fig5" r;
        Printf.printf "  %-8d %s\n%!" users (pp_summary r.completion);
        let c = r.completion in
        Printf.sprintf "%d,%.3f,%.3f,%.3f,%.3f,%.3f" users c.min c.p25 c.median c.p75
          c.max)
      [ 25; 50; 75; 100 ]
  in
  csv_out "fig5" "users,min,p25,median,p75,max" rows

let fig6 () =
  header "Figure 6: scaling with constrained per-process bandwidth";
  Printf.printf
    "  (paper: 500 users/VM, crypto replaced by sleeps, lambda_step = 1 min;\n";
  Printf.printf "   here: 2 Mbit/s per process and the same lambda_step bump)\n";
  let params = { Params.paper with lambda_step = 60.0 } in
  Printf.printf "  %-8s %s\n" "users" "round completion time (s)";
  let rows =
    List.map
      (fun users ->
        let users = users * scale in
        let r =
          Harness.run
            { base with users; rounds = 2; params; bandwidth_bps = 2e6; tx_rate_per_s = 0.5 }
        in
        check_verdict "fig6" r;
        Printf.printf "  %-8d %s\n%!" users (pp_summary r.completion);
        let c = r.completion in
        Printf.sprintf "%d,%.3f,%.3f,%.3f,%.3f,%.3f" users c.min c.p25 c.median c.p75
          c.max)
      [ 60; 120; 180; 240 ]
  in
  csv_out "fig6" "users,min,p25,median,p75,max" rows

let fig7 () =
  header "Figure 7: latency breakdown vs block size (50 users)";
  Printf.printf "  %-10s %-12s %-18s %-14s %-10s\n" "block" "proposal(s)" "BA* w/o final(s)"
    "final step(s)" "total(s)";
  let rows = ref [] in
  List.iter
    (fun block_bytes ->
      let r =
        Harness.run { base with users = 50 * scale; block_bytes; rounds = 2; tx_rate_per_s = 0.5 }
      in
      check_verdict "fig7" r;
      let mean phase = Stats.mean (Metrics.phase_times r.harness.metrics phase) in
      let proposal = mean Metrics.Block_proposal in
      let ba = mean Metrics.Ba_no_final in
      let final = mean Metrics.Ba_final in
      let label =
        if block_bytes >= 1_000_000 then Printf.sprintf "%dMB" (block_bytes / 1_000_000)
        else Printf.sprintf "%dKB" (block_bytes / 1_000)
      in
      Printf.printf "  %-10s %-12.2f %-18.2f %-14.2f %-10.2f\n%!" label proposal ba final
        (proposal +. ba +. final);
      rows :=
        Printf.sprintf "%d,%.3f,%.3f,%.3f" block_bytes proposal ba final :: !rows)
    [ 1_000; 10_000; 100_000; 1_000_000; 2_000_000; 10_000_000 ];
  csv_out "fig7" "block_bytes,proposal_s,ba_s,final_s" (List.rev !rows)

let fig8 () =
  header "Figure 8: latency vs fraction of malicious users (equivocation attack)";
  Printf.printf "  %-12s %-10s %s\n" "malicious" "final rds" "round completion time (s)";
  let rows = ref [] in
  List.iter
    (fun pct ->
      let r =
        Harness.run
          {
            base with
            users = 50 * scale;
            rounds = 5;
            block_bytes = 500_000;
            malicious_fraction = float_of_int pct /. 100.0;
            attacks = [ Harness.Equivocate ];
            rng_seed = 31 + pct;
          }
      in
      check_verdict "fig8" r;
      Printf.printf "  %-12s %-10d %s\n%!"
        (Printf.sprintf "%d%%" pct)
        r.final_rounds (pp_summary r.completion);
      let c = r.completion in
      rows :=
        Printf.sprintf "%d,%d,%.3f,%.3f,%.3f" pct r.final_rounds c.min c.median c.max
        :: !rows)
    [ 0; 5; 10; 15; 20 ];
  csv_out "fig8" "malicious_pct,final_rounds,min,median,max" (List.rev !rows)

(* ------------------------------------------------------------------ *)
(* Section 10.2: throughput vs the Bitcoin baseline.                   *)
(* ------------------------------------------------------------------ *)

let throughput () =
  header "Section 10.2: throughput (vs Bitcoin baseline)";
  let algorand block_bytes =
    let r =
      Harness.run { base with users = 50 * scale; block_bytes; rounds = 3; tx_rate_per_s = 0.5 }
    in
    check_verdict "throughput" r;
    let mb_per_hour =
      float_of_int block_bytes /. 1e6 *. (3600.0 /. r.completion.median)
    in
    (r.completion.median, mb_per_hour)
  in
  let lat1, tp1 = algorand 1_000_000 in
  let lat10, tp10 = algorand 10_000_000 in
  let btc = Nakamoto.run { Nakamoto.bitcoin_default with duration_s = 20.0 *. 86_400.0 } in
  let btc_tp = btc.throughput_bytes_per_hour /. 1e6 in
  Printf.printf "  Algorand  1 MB blocks: %6.1f s/round  -> %8.1f MB/hour\n" lat1 tp1;
  Printf.printf "  Algorand 10 MB blocks: %6.1f s/round  -> %8.1f MB/hour\n" lat10 tp10;
  Printf.printf "  Bitcoin   1 MB /10min: %6.0f s confirm -> %8.1f MB/hour\n"
    btc.mean_confirmation_latency_s btc_tp;
  Printf.printf "  speedup (10 MB Algorand vs Bitcoin): %.0fx   (paper: 125x)\n"
    (tp10 /. btc_tp)

(* ------------------------------------------------------------------ *)
(* Section 2: related-work comparison table.                           *)
(* ------------------------------------------------------------------ *)

let related_work () =
  header "Section 2: Algorand vs fixed-server BFT vs Nakamoto";
  let module F = Algorand_baselines.Fixed_bft in
  let alg =
    Harness.run { base with users = 50 * scale; block_bytes = 10_000_000; rounds = 2; tx_rate_per_s = 0.5 }
  in
  check_verdict "related-work" alg;
  let hb = F.run F.honey_badger_default in
  let btc = Nakamoto.run { Nakamoto.bitcoin_default with duration_s = 20.0 *. 86_400.0 } in
  Printf.printf "  %-28s %-14s %-16s %s\n" "system" "latency" "throughput" "notes";
  Printf.printf "  %-28s %-14s %-16s %s\n" "Algorand (10 MB blocks)"
    (Printf.sprintf "%.0f s" alg.completion.median)
    (Printf.sprintf "%.0f MB/h"
       (10.0 *. (3600.0 /. alg.completion.median)))
    "open membership, fresh committee per step";
  Printf.printf "  %-28s %-14s %-16s %s\n" "HoneyBadger-style fixed BFT"
    (Printf.sprintf "%.0f s" hb.mean_round_latency_s)
    (Printf.sprintf "%.0f MB/h" (hb.throughput_bytes_per_hour /. 1e6))
    "104 fixed servers (paper: ~5 min, ~200 KB/s)";
  Printf.printf "  %-28s %-14s %-16s %s\n" "Bitcoin (Nakamoto)"
    (Printf.sprintf "%.0f s" btc.mean_confirmation_latency_s)
    (Printf.sprintf "%.1f MB/h" (btc.throughput_bytes_per_hour /. 1e6))
    "6-block confirmation";
  (* The targeted-DoS contrast: fixed servers halt; Algorand degrades
     gracefully (fresh, secret committees). *)
  let hb_dosed = F.run { F.honey_badger_default with dos_servers = 36 } in
  let alg_dosed =
    Harness.run
      {
        base with
        users = 50 * scale;
        rounds = 2;
        block_bytes = 500_000;
        attacks = [ Harness.Targeted_dos { fraction = 0.3; from_ = 0.0; until = 1e9 } ];
        tx_rate_per_s = 0.0;
      }
  in
  check_verdict "related-work-dos" alg_dosed;
  Printf.printf "  under a 1/3 targeted DoS: fixed BFT halted=%b; Algorand committed %d/%d rounds\n"
    hb_dosed.halted
    (alg_dosed.final_rounds + alg_dosed.tentative_rounds)
    2

(* ------------------------------------------------------------------ *)
(* Section 10.3: CPU, bandwidth and storage costs.                     *)
(* ------------------------------------------------------------------ *)

let costs () =
  header "Section 10.3: costs of running Algorand";
  let r = Harness.run { base with users = 50 * scale; rounds = 2 } in
  check_verdict "costs" r;
  let m = r.harness.metrics in
  let n = Array.length (Metrics.bytes_sent m) in
  let mean a = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
  let mbps a = mean a *. 8.0 /. r.sim_time /. 1e6 in
  Printf.printf "  bandwidth: %.2f Mbit/s sent, %.2f Mbit/s received per user (paper: ~10 Mbit/s)\n"
    (mbps (Metrics.bytes_sent m)) (mbps (Metrics.bytes_received m));
  (* Certificate sizes: measured (sim VRF) and projected at paper scale
     with ECVRF proof sizes. *)
  (match
     Array.to_list r.harness.nodes
     |> List.filter_map (fun node -> Node.certificate node ~round:1)
     |> fun l -> List.nth_opt l 0
   with
  | Some c ->
    Printf.printf "  certificate (measured, %d votes at sim scale): %d KB\n"
      (List.length c.votes)
      (Certificate.size_bytes c / 1024)
  | None -> Printf.printf "  certificate: none assembled\n");
  let quorum = Params.certificate_quorum Params.paper in
  let ecvrf_vote_bytes = 16 + 64 + 32 + Vrf.ecvrf.proof_length + 32 + 32 + 64 in
  Printf.printf
    "  certificate (projected at paper scale: %d votes x %d B): %d KB (paper: ~300 KB)\n"
    quorum ecvrf_vote_bytes
    (quorum * ecvrf_vote_bytes / 1024);
  Printf.printf "  storage per 1 MB block, certificate included, sharded 10 ways: %.0f KB\n"
    (Algorand_ledger.Storage.per_block_cost_bytes ~shards:10 ~block_bytes:1_000_000
       ~certificate_bytes:(quorum * ecvrf_vote_bytes)
    /. 1024.0);
  (* CPU: time one vote validation with the real crypto, in steady
     state: the voter's first checks decode its keys and build their
     tables (a key gets its table at its second check), so three
     warm-up calls come before the 20 timed ones. *)
  let sig_scheme = Signature_scheme.ed25519 and vrf_scheme = Vrf.ecvrf in
  let id = Algorand_core.Identity.generate ~sig_scheme ~vrf_scheme ~seed:"cost" in
  let vctx =
    real_ctx ~seed:"s" ~total_weight:1000 ~w:1000 ~prev_hash:(String.make 32 'p') ~tau:2000.0
  in
  (match
     Algorand_ba.Vote.make ~signer:id.signer ~prover:id.prover ~pk:id.pk ~seed:"s"
       ~tau:2000.0 ~w:1000 ~total_weight:1000 ~round:1 ~step:(Algorand_ba.Vote.Bin 1)
       ~prev_hash:(String.make 32 'p') ~value:"v"
   with
  | Some v ->
    Printf.printf "  CPU: one vote validation (ed25519 + ECVRF, field kernel %s): %.2f ms\n"
      Fe25519.kernel
      (manual_ns ~warmup:3 ~iters:20 (fun () -> Algorand_ba.Vote.validate vctx v) /. 1e6)
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Section 10.5: timeout parameter validation.                         *)
(* ------------------------------------------------------------------ *)

let timeouts () =
  header "Section 10.5: timeout parameters vs observed times";
  let r = Harness.run { base with users = 50 * scale; rounds = 3 } in
  check_verdict "timeouts" r;
  let m = r.harness.metrics in
  let steps = Stats.summarize (Metrics.step_durations m) in
  let prio = Stats.summarize (Metrics.priority_gossip_times m) in
  let p = base.params in
  Printf.printf "  BA* step durations:        %s\n" (pp_summary steps);
  Printf.printf "    -> lambda_step = %.0fs bound holds: %b; p75-p25 = %.2fs vs lambda_stepvar = %.0fs\n"
    p.lambda_step
    (steps.p75 < p.lambda_step)
    (steps.p75 -. steps.p25) p.lambda_stepvar;
  Printf.printf "  priority gossip times:     %s\n" (pp_summary prio);
  Printf.printf "    -> lambda_priority = %.0fs bound holds: %b (paper measures ~1s)\n"
    p.lambda_priority
    (prio.max < p.lambda_priority +. p.lambda_stepvar)

(* ------------------------------------------------------------------ *)
(* Technical-report appendix analyses.                                 *)
(* ------------------------------------------------------------------ *)

let analysis () =
  header "Appendix analyses (technical report A, B.1, C.3 + section 8.3)";
  let module A = Algorand_ba.Analysis in
  Printf.printf "  B.1 proposers at tau=26: P(none) = %.2e, P(>70) = %.2e (paper: ~1e-11)\n"
    (A.no_proposer_probability ~tau:26.0)
    (A.too_many_proposers_probability ~tau:26.0 ~bound:70);
  Printf.printf "  C.3 steps: common case %d; worst-case expected %.1f (paper: 4 and 13)\n"
    A.common_case_steps
    (A.expected_worst_case_steps ~h:0.8);
  Printf.printf "  C.3 P(exceed MaxSteps=150) = %.2e\n"
    (A.max_steps_overflow_probability ~h:0.8 ~max_steps:150);
  Printf.printf "  A   blocks for an honest seed at F=1e-9: %d (logarithmic in 1/F)\n"
    (A.blocks_for_honest_seed ~h:0.8 ~failure:1e-9);
  Printf.printf
    "  8.3 certificate forgery per step at tau=2000: < 2^%.0f (paper: < 2^-166)\n"
    (A.log2_certificate_attack_per_step ~h:0.8 ~tau:2000.0 ~t:0.685)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4).                                    *)
(* ------------------------------------------------------------------ *)

let ablation_committee () =
  header "Ablation: committee size tau_step (latency vs violation probability)";
  Printf.printf "  %-10s %-14s %-14s %s\n" "tau_step" "viol. prob" "median lat(s)" "(threshold fixed at 0.685)";
  List.iter
    (fun tau ->
      let params = { Params.paper with tau_step = tau; tau_final = 2.0 *. tau } in
      let v = Committee.violation_probability ~h:0.8 ~tau ~t:0.685 in
      let r =
        Harness.run
          { base with users = 50 * scale; rounds = 2; params; block_bytes = 100_000; tx_rate_per_s = 0.0 }
      in
      check_verdict "ablation-committee" r;
      Printf.printf "  %-10.0f %-14.2e %-14.2f\n%!" tau v r.completion.median)
    [ 100.0; 500.0; 2000.0; 4000.0 ]

let ablation_pipeline () =
  header "Ablation: final-step pipelining (section 10.2)";
  Printf.printf "  %-12s %-18s %-14s\n" "pipelining" "all-rounds done(s)" "final rounds";
  List.iter
    (fun pipeline_final ->
      let rounds = 4 in
      let r =
        Harness.run
          { base with users = 50 * scale; rounds; pipeline_final; block_bytes = 1_000_000 }
      in
      check_verdict "ablation-pipeline" r;
      let last_done =
        List.fold_left
          (fun acc (rec_ : Metrics.round_record) ->
            if Float.is_nan rec_.final_done then acc else Float.max acc rec_.final_done)
          0.0 (Metrics.records r.harness.metrics)
      in
      Printf.printf "  %-12s %-18.2f %-14d\n%!"
        (if pipeline_final then "on" else "off")
        last_done r.final_rounds)
    [ false; true ]

let ablation_fanout () =
  header "Ablation: gossip fanout (dissemination vs bandwidth)";
  Printf.printf "  %-8s %-16s %-16s\n" "fanout" "median lat(s)" "MB sent/user";
  List.iter
    (fun fanout ->
      let r =
        Harness.run { base with users = 50 * scale; rounds = 2; fanout; block_bytes = 500_000 }
      in
      check_verdict "ablation-fanout" r;
      let m = r.harness.metrics in
      let n = Array.length (Metrics.bytes_sent m) in
      let mb = Array.fold_left ( +. ) 0.0 (Metrics.bytes_sent m) /. float_of_int n /. 1e6 in
      Printf.printf "  %-8d %-16.2f %-16.1f\n%!" fanout r.completion.median mb)
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Figures 5-6 at paper-scale user counts: the population engine.      *)
(* ------------------------------------------------------------------ *)

let sim_json = Filename.concat csv_dir "BENCH_sim.json"

(* Fixed committee parameters for the sweep: committee sizes stay
   constant while the population grows - the paper's core scaling claim
   (section 10.1). Scaled-down taus keep the materialized set (and the
   O(committee^2) direct-delivery traffic) small so the population
   sweep is sortition-bound, which is the cost that actually grows with
   the user count. *)
let sim_params = Params.scaled ~factor:0.01

(* The two sweeps: Figure 5 at 20 Mbit/s over three rounds, Figure 6
   at 2 Mbit/s with lambda_step = 1 min over two. *)
let sim_fig_config ~(fig : string) ~(users : int) : Algorand_core.Population.config =
  let cfg =
    {
      Algorand_core.Population.default with
      users;
      rounds = 3;
      params = sim_params;
      block_bytes = 1_000_000;
      rng_seed = 2017;
    }
  in
  match fig with
  | "fig5" -> cfg
  | "fig6" ->
    {
      cfg with
      rounds = 2;
      bandwidth_bps = 2e6;
      params = { sim_params with lambda_step = 60.0 };
    }
  | _ -> invalid_arg ("sim: unknown figure " ^ fig)

let sim_row_name ~(fig : string) ~(users : int) (field : string) : string =
  if fig = "fig5" then Printf.sprintf "sim_users_%d_%s" users field
  else Printf.sprintf "sim_%s_users_%d_%s" fig users field

(* One run of one sweep point, audited: it must keep agreement and
   complete every round. Latencies are simulated seconds, so they are
   as deterministic as the event counts. *)
let sim_point ~(fig : string) ~(users : int) : Snap.row list =
  let cfg = sim_fig_config ~fig ~users in
  let t0 = Unix.gettimeofday () in
  let r = Algorand_core.Population.run cfg in
  let wall = Unix.gettimeofday () -. t0 in
  if not r.agreement then
    failwith (Printf.sprintf "%s point at %d users failed its agreement audit" fig users);
  if List.length r.block_hashes <> cfg.rounds then
    failwith
      (Printf.sprintf "%s point at %d users completed %d/%d rounds" fig users
         (List.length r.block_hashes) cfg.rounds);
  let stats = r.round_stats in
  let mean f = List.fold_left (fun a s -> a +. f s) 0.0 stats /. float_of_int (List.length stats) in
  let latencies = List.map (fun (s : Algorand_core.Population.round_stat) -> s.latency_s) stats in
  let latency = mean (fun (s : Algorand_core.Population.round_stat) -> s.latency_s) in
  let bytes_per_user =
    mean (fun (s : Algorand_core.Population.round_stat) -> s.modeled_bytes_per_user)
  in
  let rounds_per_s = float_of_int cfg.rounds /. wall in
  (* RSS proxy: the OCaml heap high-water mark. It is process-global
     and never falls, so each point runs in a fresh process
     ([sim_point_in_child]). Even so it measures that whole child
     process - its start-up and everything this executable allocates
     as well as the engine - not the engine alone: a change elsewhere
     in the bench can move it with every engine count unchanged. *)
  let top_heap_mb = float_of_int (Gc.quick_stat ()).top_heap_words *. 8e-6 in
  Printf.printf
    "  %-9d lat=%6.2fs materialized=%-6d peak_ev=%-8d %8.0f B/user  %6.2f rounds/s  heap=%.0f MB\n%!"
    users latency r.max_materialized r.peak_pending bytes_per_user rounds_per_s
    top_heap_mb;
  let row field unit v = Snap.row ~name:(sim_row_name ~fig ~users field) ~unit v in
  [
    row "rounds_per_s" "rounds/s" rounds_per_s;
    row "latency_s" "sim_s" latency;
    row "lat_min_s" "sim_s" (List.fold_left Float.min infinity latencies);
    row "lat_max_s" "sim_s" (List.fold_left Float.max 0.0 latencies);
    row "events" "count" (float_of_int r.total_events);
    row "peak_events" "count" (float_of_int r.peak_pending);
    row "materialized" "count" (float_of_int r.max_materialized);
    row "bytes_per_user" "B" bytes_per_user;
    row "top_heap_mb" "MB" top_heap_mb;
  ]

(* Each point runs in a fresh process of this executable
   ([sim-point fig users]), one at a time, so its top_heap_mb is its
   own high-water mark and not that of every point before it. The
   child prints its rows as "@<row>" lines. *)
let sim_point_in_child ~(fig : string) ~(users : int) : Snap.row list =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "sim-point"; fig; string_of_int users |] in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.starts_with ~prefix:"@" line then
         rows := String.sub line 1 (String.length line - 1) :: !rows
       else print_endline line
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !rows) with
  | Unix.WEXITED 0, _ :: _ ->
    List.rev_map
      (fun line -> match Snap.row_of_string line with Ok r -> r | Error e -> failwith e)
      !rows
  | _ -> failwith (Printf.sprintf "%s point at %d users did not complete" fig users)

let sim_csv_header = "users,lat_min,lat_mean,lat_max,materialized,peak_events,bytes_per_user,top_heap_mb"

let sim () =
  header "Figures 5-6 at paper scale: population-engine user sweep";
  Printf.printf
    "  (committee params fixed at tau_proposer=%.0f tau_step=%.0f tau_final=%.0f;\n"
    sim_params.tau_proposer sim_params.tau_step sim_params.tau_final;
  Printf.printf "   only sortition-selected users are materialized per round;\n";
  Printf.printf "   each point runs %d times)\n%!" k;
  let sweep fig users =
    let points =
      List.map (fun users -> (users, record (fun () -> sim_point_in_child ~fig ~users))) users
    in
    let csv_row (users, rows) =
      let v field =
        (List.find (fun (r : Snap.row) -> r.name = sim_row_name ~fig ~users field) rows).value
      in
      (* Figure 6's rows have always left bytes per user at 0. *)
      Printf.sprintf "%d,%.3f,%.3f,%.3f,%.0f,%.0f,%.0f,%.1f" users (v "lat_min_s")
        (v "latency_s") (v "lat_max_s") (v "materialized") (v "peak_events")
        (if fig = "fig5" then v "bytes_per_user" else 0.0)
        (v "top_heap_mb")
    in
    csv_out (fig ^ "_scale") sim_csv_header (List.map csv_row points);
    List.concat_map snd points
  in
  Printf.printf "  Figure 5 (scale): latency vs users, 20 Mbit/s\n%!";
  let fig5 = sweep "fig5" [ 5_000; 50_000; 100_000; 500_000; 1_000_000 ] in
  Printf.printf "  Figure 6 (scale): latency vs users, 2 Mbit/s, lambda_step = 1 min\n%!";
  let fig6 = sweep "fig6" [ 5_000; 50_000; 100_000; 500_000 ] in
  let count name v = Snap.row ~name ~unit:"count" v in
  save sim_json
    (fig5 @ fig6
    @ [
        count "sim_max_users" 1_000_000.0;
        count "sim_sweep_rounds" 3.0;
        count "sim_tau_step" sim_params.tau_step;
        count "sim_tau_final" sim_params.tau_final;
      ])

(* ------------------------------------------------------------------ *)
(* Sustained-TPS ledger benchmark: the sharded balance map under the   *)
(* hostile workload generator (million-account population, Zipf        *)
(* hot-key skew, invalid/duplicate/self-pay mixes), batch signature    *)
(* checking of block transactions, and light-client proof serving.     *)
(* Emits results/BENCH_ledger.json.                                    *)
(* ------------------------------------------------------------------ *)

module Balances = Algorand_ledger.Balances
module Workload = Algorand_ledger.Workload
module Transaction = Algorand_ledger.Transaction
module Lblock = Algorand_ledger.Block
module Lightclient = Algorand_core.Lightclient

let ledger_json = Filename.concat csv_dir "BENCH_ledger.json"

(* A pre-generated workload stream: same (seed, mix, skew) - and hence
   the same transactions - for every shard count it is replayed
   against. *)
let ledger_stream ~(accounts : int) ~(zipf : float) ~(mix : Workload.mix)
    ~(n_txs : int) : Workload.t * Transaction.t array =
  let wl =
    Workload.create
      {
        Workload.accounts = Workload.Synthetic { n = accounts; scheme = Signature_scheme.sim };
        zipf_s = zipf;
        mix;
        burst = None;
        amount = 1;
        seed = 1009;
      }
  in
  (wl, Array.init n_txs (fun _ -> fst (Workload.next wl)))

(* One (shards, stream) point, both halves of the block path, as rows
   named [key field]:
   - assembly: sequential per-transaction apply over the raw stream,
     filtering what does not apply (the proposer's dry run) and
     chunking survivors into blocks; its rate counts raw stream txs;
   - validation: [apply_block] over those blocks (per-shard
     conservative pass with exact fallback), which must reproduce the
     assembly-side final state; its rate counts committed txs. *)
let ledger_point ~(key : string -> string) ~(wl : Workload.t) ~(shards : int)
    ~(block_txs : int) (stream : Transaction.t array) : Snap.row list =
  let b0 = Workload.initial_balances wl ~stake:1_000 ~shards in
  let blocks = ref [] and cur = ref [] and cur_n = ref 0 in
  let t0 = Unix.gettimeofday () in
  let st = ref b0 and applied = ref 0 and rejected = ref 0 in
  Array.iter
    (fun tx ->
      match Balances.apply_tx !st tx with
      | Ok st' ->
        st := st';
        incr applied;
        cur := tx :: !cur;
        incr cur_n;
        if !cur_n = block_txs then begin
          blocks := List.rev !cur :: !blocks;
          cur := [];
          cur_n := 0
        end
      | Error _ -> incr rejected)
    stream;
  if !cur <> [] then blocks := List.rev !cur :: !blocks;
  let assembly_wall = Unix.gettimeofday () -. t0 in
  let blocks = List.rev !blocks in
  let t1 = Unix.gettimeofday () in
  let st_v =
    List.fold_left
      (fun acc b ->
        match Balances.apply_block acc b with
        | Ok acc' -> acc'
        | Error e ->
          Format.kasprintf failwith "filtered block must apply: %a" Balances.pp_tx_error e)
      b0 blocks
  in
  let validate_wall = Unix.gettimeofday () -. t1 in
  (* The money-supply audit on both final states: catching an inflation
     bug here is the whole point of running self-pays through. *)
  if not (Balances.invariant !st) || not (Balances.invariant st_v) then
    failwith "ledger bench: balance invariant violated";
  if Balances.total st_v <> Balances.total b0 then
    failwith "ledger bench: money supply changed";
  let row field unit v = Snap.row ~name:(key field) ~unit v in
  [
    row "tps_assembly" "tx/s" (float_of_int (Array.length stream) /. assembly_wall);
    row "tps_validate" "tx/s" (float_of_int !applied /. validate_wall);
    row "block_ms" "ms"
      (if blocks = [] then 0.0 else validate_wall /. float_of_int (List.length blocks) *. 1e3);
    row "applied" "count" (float_of_int !applied);
    row "rejected" "count" (float_of_int !rejected);
  ]

(* Batch signature verification of a block's transactions (ed25519):
   the per-signature cost of one verify_batch equation vs one verify
   call per transaction, plus the bisection filter with a corruption. *)
let ledger_sig_rows () : Snap.row list =
  let scheme = Signature_scheme.ed25519 in
  let n_signers = 64 and n_txs = 256 in
  let signers =
    Array.init n_signers (fun i ->
        scheme.Signature_scheme.generate ~seed:(Printf.sprintf "ledger-sig-%d" i))
  in
  let txs =
    List.init n_txs (fun i ->
        let s = i mod n_signers in
        let signer, pk = signers.(s) in
        let _, recipient = signers.((s + 1) mod n_signers) in
        Transaction.make ~signer ~sender:pk ~recipient ~amount:1 ~nonce:(i / n_signers))
  in
  let per_tx_ns =
    manual_ns ~iters:5 (fun () ->
        List.iter
          (fun tx ->
            if not (Transaction.verify_signature ~scheme tx) then
              failwith "tx must verify")
          txs)
    /. float_of_int n_txs
  in
  let batch_ns =
    manual_ns ~iters:5 (fun () ->
        if not (Transaction.verify_batch ~scheme txs) then failwith "batch must verify")
    /. float_of_int n_txs
  in
  (* One corrupt transaction: the filter must reject exactly it. *)
  let corrupt = { (List.nth txs 37) with signature = String.make 64 '\000' } in
  let mixed = List.mapi (fun i tx -> if i = 37 then corrupt else tx) txs in
  let valid, rejected = Transaction.filter_valid_batch ~scheme mixed in
  if List.length valid <> n_txs - 1 || List.length rejected <> 1 then
    failwith "filter_valid_batch must isolate the corruption";
  [
    Snap.row ~name:"ledger_sig_per_tx_verify_ns" ~unit:"ns" per_tx_ns;
    Snap.row ~name:"ledger_sig_batch_per_tx_ns" ~unit:"ns" batch_ns;
    Snap.row ~name:"ledger_sig_batch_speedup_x" ~unit:"x" (per_tx_ns /. batch_ns);
  ]

(* Light-client proof serving under load: k proofs over one hot block,
   naive per-request tree rebuild vs the caching server. *)
let ledger_lightclient_rows () : Snap.row list =
  let signer, pk = Signature_scheme.sim.Signature_scheme.generate ~seed:"lc-bench" in
  let txs =
    List.init 4096 (fun i ->
        Transaction.make ~signer ~sender:pk ~recipient:pk ~amount:1 ~nonce:i)
  in
  let block = { (Lblock.empty ~round:1 ~prev_hash:(String.make 32 'p')) with txs } in
  let ids = Array.of_list (List.map Transaction.id txs) in
  let n_queries = 200 in
  let query i = ids.((i * 17) mod Array.length ids) in
  let naive_s =
    manual_ns ~warmup:1 ~iters:1 (fun () ->
        for i = 0 to n_queries - 1 do
          if Lblock.prove_tx block ~tx_id:(query i) = None then failwith "must prove"
        done)
    /. 1e9
  in
  let server = Lightclient.create_server () in
  let served_s =
    manual_ns ~warmup:1 ~iters:1 (fun () ->
        for i = 0 to n_queries - 1 do
          match Lightclient.serve_proof server ~block ~tx_id:(query i) with
          | Some (s, proof) ->
            if not (Lblock.summary_contains s ~tx_id:(query i) proof) then
              failwith "served proof must verify"
          | None -> failwith "must serve"
        done)
    /. 1e9
  in
  [
    Snap.row ~name:"lightclient_naive_proofs_per_s" ~unit:"proofs/s"
      (float_of_int n_queries /. naive_s);
    Snap.row ~name:"lightclient_server_proofs_per_s" ~unit:"proofs/s"
      (float_of_int n_queries /. served_s);
  ]

(* The gate-scale point (100k accounts, 30k hostile txs, 8 shards),
   recorded by `ledger` and re-measured by `check`. *)
let ledger_gate () : Snap.row list =
  let wl, stream =
    ledger_stream ~accounts:100_000 ~zipf:1.1 ~mix:Workload.hostile ~n_txs:30_000
  in
  ledger_point ~key:(fun field -> "ledger_check_" ^ field) ~wl ~shards:8 ~block_txs:1_024 stream

let ledger () =
  header "Sustained-TPS ledger: sharded accounts under the hostile workload";
  let accounts = 1_000_000 and n_txs = 200_000 and block_txs = 1_024 in
  let zipf = 1.1 in
  Printf.printf
    "  (%d accounts, %d-tx stream, Zipf %.1f hot-key skew, %d-tx blocks; %d runs a point)\n%!"
    accounts n_txs zipf block_txs k;
  let points =
    List.concat_map
      (fun (mix_name, mix) ->
        Printf.printf "  generating %s stream...\n%!" mix_name;
        let wl, stream = ledger_stream ~accounts ~zipf ~mix ~n_txs in
        List.map
          (fun shards ->
            let key field = Printf.sprintf "ledger_%s_shards%d_%s" field shards mix_name in
            let rows = record (fun () -> ledger_point ~key ~wl ~shards ~block_txs stream) in
            let v field = (List.find (fun (r : Snap.row) -> r.name = key field) rows).value in
            let csv =
              Printf.sprintf "%s,%d,%d,%.0f,%.0f,%.3f,%.0f,%.0f" mix_name shards accounts
                (v "tps_assembly") (v "tps_validate") (v "block_ms") (v "applied")
                (v "rejected")
            in
            Printf.printf "  %s\n%!" csv;
            (rows, csv))
          [ 1; 8; 64 ])
      [ ("clean", Workload.clean); ("hostile", Workload.hostile) ]
  in
  csv_out "ledger_tps" "mix,shards,accounts,assembly_tps,validate_tps,block_ms,applied,rejected"
    (List.map snd points);
  let count name v = Snap.row ~name ~unit:"count" v in
  save ledger_json
    (List.concat_map fst points
    @ record ledger_sig_rows
    @ record ledger_lightclient_rows
    @ record ledger_gate
    @ [
        count "ledger_accounts" (float_of_int accounts);
        count "ledger_stream_txs" (float_of_int n_txs);
        count "ledger_block_txs" (float_of_int block_txs);
        Snap.row ~name:"ledger_zipf_s" ~unit:"exponent" zipf;
      ])

(* ------------------------------------------------------------------ *)
(* The one bench gate.                                                 *)
(* ------------------------------------------------------------------ *)

(* What a committed snapshot must show, and the rows [check]
   re-measures, each with the function that recorded it and, like the
   recording, as the median of [k] runs. *)
type gate =
  | At_least of string * float
  | Positive of string
  | Less of string * string  (** the first row's value is below the second's *)
  | Rerun of (unit -> Snap.row list)

let gates : (string * gate list) list =
  [
    ( crypto_json,
      [
        Rerun
          (fun () ->
            [ ed25519_verify_row (); ed25519_verify_cold_key_row (); ecvrf_verify_cold_row () ]);
      ] );
    ( sim_json,
      [
        At_least ("sim_max_users", 500_000.0);
        (* The population engine's million-user target. *)
        At_least ("sim_users_1000000_rounds_per_s", 0.5);
        Positive "sim_users_100000_rounds_per_s";
        Positive "sim_users_500000_rounds_per_s";
        Positive "sim_users_500000_materialized";
        Positive "sim_users_100000_latency_s";
        (* The Figure 5 point at 100k users: 2x on rounds/s, and
           its event, peak-event and materialized counts exactly, so a
           change that reorders the population's events fails here
           unless BENCH_sim.json is re-recorded with it. *)
        Rerun (fun () -> sim_point_in_child ~fig:"fig5" ~users:100_000);
      ] );
    ( ledger_json,
      [
        At_least ("ledger_accounts", 1_000_000.0);
        Positive "ledger_tps_validate_shards8_hostile";
        Positive "ledger_check_tps_validate";
        Less ("ledger_sig_batch_per_tx_ns", "ledger_sig_per_tx_verify_ns");
        Less ("lightclient_naive_proofs_per_s", "lightclient_server_proofs_per_s");
        (* Re-runs the conservation and invariant audits too. *)
        Rerun ledger_gate;
      ] );
  ]

let check () =
  header "Bench check: committed snapshots and re-measured rows";
  print_kernels ();
  let failures = ref 0 in
  let verdict ok fmt =
    Printf.ksprintf
      (fun line ->
        if not ok then incr failures;
        Printf.printf "  %-4s %s\n%!" (if ok then "ok" else "FAIL") line)
      fmt
  in
  List.iter
    (fun (path, gates) ->
      match Snap.read path with
      | Error e -> verdict false "%s" e
      | Ok rows ->
        let row name =
          match List.find_opt (fun (r : Snap.row) -> r.name = name) rows with
          | Some r -> r
          | None -> failwith (Printf.sprintf "%s: no row %s" path name)
        in
        let v name = (row name).value in
        List.iter
          (fun gate ->
            try
              match gate with
              | At_least (a, x) -> verdict (v a >= x) "%s = %s >= %s" a (Snap.number (v a)) (Snap.number x)
              | Positive a -> verdict (v a > 0.0) "%s = %s > 0" a (Snap.number (v a))
              | Less (a, b) ->
                verdict (v a < v b) "%s = %s < %s = %s" a (Snap.number (v a)) b (Snap.number (v b))
              | Rerun measure ->
                List.iter
                  (fun (m : Snap.row) ->
                    let c = row m.name in
                    verdict (Snap.holds ~committed:c m) "%s: committed %s, measured %s %s" m.name
                      (Snap.number c.value) (Snap.number m.value) m.unit)
                  (record measure)
            with Failure e | Invalid_argument e -> verdict false "%s" e)
          gates)
    gates;
  if !failures > 0 then begin
    Printf.printf "  %d check(s) failed\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("micro", micro);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("throughput", throughput);
    ("related-work", related_work);
    ("costs", costs);
    ("timeouts", timeouts);
    ("analysis", analysis);
    ("ablation-committee", ablation_committee);
    ("ablation-pipeline", ablation_pipeline);
    ("ablation-fanout", ablation_fanout);
    ("sim", sim);
    ("ledger", ledger);
    ("check", check);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _; "sim-point"; fig; users ] ->
    List.iter
      (fun r -> print_endline ("@" ^ Snap.row_to_string r))
      (sim_point ~fig ~users:(int_of_string users))
  | argv ->
    let requested =
      match argv with
      | _ :: (_ :: _ as names) -> names
      | _ -> List.map fst experiments
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.printf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments)))
      requested;
    Printf.printf "\n(total wall time: %.1f s)\n" (Unix.gettimeofday () -. t0)
