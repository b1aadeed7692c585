(* Section 10 figure regeneration. Figure 7 is the paper's latency
   story: where a round's time goes (block proposal, BA* without the
   final step, the final step), plotted as min/p25/median/p75/max
   across users. Here it is rebuilt from the round records of a
   finished run and emitted as a committed JSON artifact, so the
   repo carries a reproducible perf trajectory for the consensus path
   (results/FIG7.json) next to the crypto microbenches.

   Output discipline: deterministic for a given config and seed - the
   sim is deterministic, floats are printed with fixed precision, and
   no wall-clock or environment data enters the document - and free of
   NaN tokens: empty summaries serialize as zeros with "count":0, and
   records that skipped phases (catch-up grafts) are excluded and
   counted rather than allowed to poison the decomposition. *)

module Metrics = Algorand_sim.Metrics
module Stats = Algorand_sim.Stats

let num (v : float) : string =
  if Float.is_nan v then "0.000000" else Printf.sprintf "%.6f" v

let summary_json (s : Stats.summary) : string =
  Printf.sprintf
    "{\"count\":%d,\"min\":%s,\"p25\":%s,\"median\":%s,\"p75\":%s,\"max\":%s,\"mean\":%s}"
    s.count (num s.min) (num s.p25) (num s.median) (num s.p75) (num s.max) (num s.mean)

let fig7_json (r : Harness.result) : string =
  let m = r.harness.Harness.metrics in
  let c = r.harness.Harness.config in
  let phase p = Stats.summarize (Metrics.phase_times m p) in
  let proposal = phase Metrics.Block_proposal in
  let ba = phase Metrics.Ba_no_final in
  let final = phase Metrics.Ba_final in
  let total = Stats.summarize (Metrics.all_round_completion_times m) in
  let nans_dropped = proposal.nans + ba.nans + final.nans + total.nans in
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"figure\": 7,\n";
  Buffer.add_string b "  \"description\": \"round latency split: block proposal / BA* w/o final step / final step (seconds)\",\n";
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" c.Harness.rng_seed);
  Buffer.add_string b (Printf.sprintf "  \"users\": %d,\n" c.Harness.users);
  Buffer.add_string b (Printf.sprintf "  \"rounds\": %d,\n" c.Harness.rounds);
  Buffer.add_string b (Printf.sprintf "  \"block_bytes\": %d,\n" c.Harness.block_bytes);
  Buffer.add_string b (Printf.sprintf "  \"sim_time_s\": %s,\n" (num r.Harness.sim_time));
  Buffer.add_string b (Printf.sprintf "  \"completed_records\": %d,\n" (Metrics.completed_rounds m));
  Buffer.add_string b
    (Printf.sprintf "  \"skipped_incomplete_records\": %d,\n" (Metrics.incomplete_phase_records m));
  Buffer.add_string b (Printf.sprintf "  \"nan_values_dropped\": %d,\n" nans_dropped);
  Buffer.add_string b (Printf.sprintf "  \"final_rounds\": %d,\n" r.Harness.final_rounds);
  Buffer.add_string b (Printf.sprintf "  \"tentative_rounds\": %d,\n" r.Harness.tentative_rounds);
  Buffer.add_string b "  \"phases\": {\n";
  Buffer.add_string b (Printf.sprintf "    \"block_proposal\": %s,\n" (summary_json proposal));
  Buffer.add_string b (Printf.sprintf "    \"ba_no_final\": %s,\n" (summary_json ba));
  Buffer.add_string b (Printf.sprintf "    \"ba_final\": %s,\n" (summary_json final));
  Buffer.add_string b (Printf.sprintf "    \"round_total\": %s\n" (summary_json total));
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let fig7_run ?(users = 50) ?(rounds = 5) ?(seed = 42) ?(block_bytes = 1_000_000) () :
    string =
  let r =
    Harness.run
      { Harness.default with users; rounds; rng_seed = seed; block_bytes }
  in
  fig7_json r

let write ~(path : string) (doc : string) : unit =
  Disk_store.mkdir_p (Filename.dirname path);
  let oc = open_out path in
  output_string oc doc;
  close_out oc
