(* The discrete-event engine, RNG, event queue, and statistics. *)

open Algorand_sim

let t name f = Alcotest.test_case name `Quick f

(* The earliest entry as (time, payload), or [None] when empty. *)
let pop q =
  if Event_queue.length q = 0 then None
  else
    let clock = [| nan |] in
    let v = Event_queue.take q ~clock in
    Some (clock.(0), v)

let queue_orders_by_time () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3.0 "c";
  Event_queue.push q ~time:1.0 "a";
  Event_queue.push q ~time:2.0 "b";
  let pops = List.init 3 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] pops;
  Alcotest.(check int) "empty" 0 (Event_queue.length q)

let queue_fifo_on_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    Event_queue.push q ~time:1.0 i
  done;
  let pops = List.init 10 (fun _ -> snd (Option.get (pop q))) in
  Alcotest.(check (list int)) "insertion order" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] pops

let queue_stress () =
  let q = Event_queue.create () in
  let rng = Rng.create 99 in
  for _ = 1 to 2000 do
    Event_queue.push q ~time:(Rng.float rng 100.0) ()
  done;
  let prev = ref neg_infinity in
  let rec drain n =
    match pop q with
    | None -> n
    | Some (time, ()) ->
      if time < !prev then Alcotest.fail "heap order violated";
      prev := time;
      drain (n + 1)
  in
  Alcotest.(check int) "drained all" 2000 (drain 0)

let engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "late" :: !log);
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "early" :: !log;
      (* Handlers can schedule more events. *)
      Engine.schedule e ~delay:0.5 (fun () -> log := "nested" :: !log));
  let n = Engine.run e () in
  Alcotest.(check int) "three events" 3 n;
  Alcotest.(check (list string)) "order" [ "late"; "nested"; "early" ] !log;
  Alcotest.(check (float 1e-9)) "clock at last event" 2.0 (Engine.now e)

let engine_until () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1.0 (fun () -> incr fired);
  Engine.schedule e ~delay:10.0 (fun () -> incr fired);
  ignore (Engine.run e ~until:5.0 ());
  Alcotest.(check int) "only the early event" 1 !fired;
  Alcotest.(check int) "one pending" 1 (Engine.pending e)

let rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys;
  let c = Rng.split (Rng.create 7) "label" in
  let zs = List.init 20 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "split differs" true (xs <> zs)

let rng_ranges () =
  let r = Rng.create 11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    if v < 0 || v >= 13 then Alcotest.fail "int out of range";
    let f = Rng.float r 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.fail "float out of range"
  done

let rng_exponential_mean () =
  let r = Rng.create 5 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "mean %.2f near 3" mean) true
    (mean > 2.8 && mean < 3.2)

let rng_weighted () =
  let r = Rng.create 17 in
  let counts = Array.make 3 0 in
  for _ = 1 to 10_000 do
    let i = Rng.weighted_index r [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "proportions roughly 1:2:7" true
    (counts.(0) > 500 && counts.(0) < 1500 && counts.(2) > 6300 && counts.(2) < 7700)

let rng_sample_indices () =
  let r = Rng.create 23 in
  let s = Rng.sample_indices r ~n:10 ~k:5 in
  Alcotest.(check int) "five distinct" 5 (List.length (List.sort_uniq compare s));
  List.iter (fun i -> if i < 0 || i >= 10 then Alcotest.fail "index range") s

let stats_summary () =
  let s = Stats.summarize [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.max;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.median;
  Alcotest.(check (float 1e-9)) "p25" 2.0 s.p25;
  Alcotest.(check (float 1e-9)) "p75" 4.0 s.p75;
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.mean;
  Alcotest.(check int) "count" 5 s.count;
  Alcotest.(check bool) "empty gives nan" true (Float.is_nan (Stats.summarize []).median)

let metrics_phases () =
  let m = Metrics.create ~users:2 () in
  let r = Metrics.start_round m ~user:0 ~round:1 ~now:10.0 in
  r.proposal_done <- 12.0;
  r.ba_done <- 15.0;
  r.final_done <- 16.0;
  Alcotest.(check (list (float 1e-9))) "proposal" [ 2.0 ] (Metrics.phase_times m Block_proposal);
  Alcotest.(check (list (float 1e-9))) "ba" [ 3.0 ] (Metrics.phase_times m Ba_no_final);
  Alcotest.(check (list (float 1e-9))) "final" [ 1.0 ] (Metrics.phase_times m Ba_final);
  Alcotest.(check (list (float 1e-9))) "completion" [ 6.0 ]
    (Metrics.round_completion_times m ~round:1);
  Alcotest.(check int) "completed" 1 (Metrics.completed_rounds m)

let engine_at_clamps_past () =
  let e = Engine.create () in
  let times = ref [] in
  Engine.schedule e ~delay:5.0 (fun () ->
      (* Scheduling in the past runs "now", not before. *)
      Engine.at e ~time:1.0 (fun () -> times := Engine.now e :: !times));
  ignore (Engine.run e ());
  Alcotest.(check (list (float 1e-9))) "clamped" [ 5.0 ] !times

let engine_max_events () =
  let e = Engine.create () in
  let rec loop () = Engine.schedule e ~delay:1.0 loop in
  Engine.schedule e ~delay:0.0 loop;
  let n = Engine.run e ~max_events:100 () in
  Alcotest.(check int) "bounded" 100 n

let engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

let engine_reorder_hook () =
  (* Without a hook, simultaneous events run FIFO; with one, the batch
     is handed over for permutation, and causally later same-time
     events form a separate batch. *)
  let run hook =
    let e = Engine.create () in
    let log = ref [] in
    let ev tag () = log := tag :: !log in
    Engine.schedule e ~delay:1.0 (ev "a");
    Engine.schedule e ~delay:1.0 (ev "b");
    Engine.schedule e ~delay:1.0 (ev "c");
    Engine.schedule e ~delay:2.0 (ev "later");
    Engine.set_reorder_hook e hook;
    ignore (Engine.run e ());
    List.rev !log
  in
  Alcotest.(check (list string)) "no hook: FIFO" [ "a"; "b"; "c"; "later" ] (run None);
  Alcotest.(check (list string)) "identity hook: FIFO" [ "a"; "b"; "c"; "later" ]
    (run (Some (fun batch -> batch)));
  let reverse batch =
    let n = Array.length batch in
    Array.init n (fun i -> batch.(n - 1 - i))
  in
  Alcotest.(check (list string)) "reversing hook" [ "c"; "b"; "a"; "later" ]
    (run (Some reverse));
  (* Events scheduled at the same time *by the batch* run afterwards
     (they are causally downstream, not tie-broken). *)
  let e = Engine.create () in
  let log = ref [] in
  Engine.set_reorder_hook e (Some reverse);
  Engine.schedule e ~delay:1.0 (fun () ->
      log := "first" :: !log;
      Engine.schedule e ~delay:0.0 (fun () -> log := "child" :: !log));
  Engine.schedule e ~delay:1.0 (fun () -> log := "second" :: !log);
  ignore (Engine.run e ());
  Alcotest.(check (list string)) "children form a later batch"
    [ "second"; "first"; "child" ] (List.rev !log)

let metrics_bandwidth () =
  let m = Metrics.create ~users:3 () in
  Metrics.record_bytes_sent m ~user:1 500;
  Metrics.record_bytes_sent m ~user:1 250;
  Metrics.record_bytes_received m ~user:2 100;
  Alcotest.(check (float 1e-9)) "sent accumulates" 750.0 (Metrics.bytes_sent m).(1);
  Alcotest.(check (float 1e-9)) "received" 100.0 (Metrics.bytes_received m).(2);
  Alcotest.(check (float 1e-9)) "others zero" 0.0 (Metrics.bytes_sent m).(0)

let stats_percentiles_interpolate () =
  let a = [| 0.0; 10.0 |] in
  Alcotest.(check (float 1e-9)) "p50 interpolated" 5.0 (Stats.percentile a 0.5);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.percentile a 0.0);
  Alcotest.(check (float 1e-9)) "p100" 10.0 (Stats.percentile a 1.0)

let suite =
  [
    ( "sim",
      [
        t "engine at clamps past times" engine_at_clamps_past;
        t "engine max_events" engine_max_events;
        t "engine rejects negative delay" engine_negative_delay;
        t "engine reorder hook permutes tie batches" engine_reorder_hook;
        t "metrics bandwidth counters" metrics_bandwidth;
        t "percentile interpolation" stats_percentiles_interpolate;
        t "queue orders by time" queue_orders_by_time;
        t "queue fifo on ties" queue_fifo_on_ties;
        t "queue stress" queue_stress;
        t "engine runs in order" engine_runs_in_order;
        t "engine until" engine_until;
        t "rng determinism" rng_determinism;
        t "rng ranges" rng_ranges;
        t "rng exponential mean" rng_exponential_mean;
        t "rng weighted index" rng_weighted;
        t "rng sample indices" rng_sample_indices;
        t "stats summary" stats_summary;
        t "metrics phases" metrics_phases;
      ] );
  ]
