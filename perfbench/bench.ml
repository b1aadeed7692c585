(* Fixed-work benchmark runner: one seeded workload per process.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
                    [--smoke]

   Every run does a fixed amount of work: the op count is a fixed
   function of --seconds and the workload (never "as many ops as fit"),
   and every op's inputs derive from --seed. Each op is timed on the
   monotonic clock and checked; a failed check is counted, not fatal.
   Untraced runs also sample the host's speed with a fixed probe and
   report op times normalised by it (see [Host]).
   The last stdout line is one JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1), plus the run's
   exact counts for the cross-run fixed-work check in run.py. A traced
   run writes its spans under [trace_dir], relative to the working
   directory. *)

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
module Balances = Algorand_ledger.Balances
module Transaction = Algorand_ledger.Transaction
module Workload = Algorand_ledger.Workload
module Population = Algorand_core.Population
module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Identity = Algorand_core.Identity
module Codec = Algorand_core.Codec
module History = Algorand_core.History
module Lightclient = Algorand_core.Lightclient
module Transport = Algorand_transport.Transport
module Loopback = Algorand_transport.Loopback
module Handshake = Algorand_transport.Handshake
module Network = Algorand_netsim.Network
module Gossip = Algorand_netsim.Gossip
module WGL = Algorand_core.Wire_gossip.Make (Loopback)

let trace_dir = Filename.concat "perfbench" "_out"
(* Bechamel's monotonic clock, called directly: through
   [Monotonic_clock.now] the result is boxed, and the host probe, which
   runs from a signal handler at moments that depend on wall time, must
   not allocate, or the heap's high-water mark stops being an exact
   count. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())
let ms ns = float_of_int ns /. 1e6

let median (xs : float list) : float =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Linear-interpolated percentile, p in [0, 100]. *)
let percentile (xs : float list) (p : float) : float =
  match List.sort Float.compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let r = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

(* Mean without the lowest and highest tenth (rounded down) of xs. *)
let trimmed_mean (xs : float list) : float =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  let k = n / 10 in
  let sum = ref 0.0 in
  for i = k to n - k - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (n - (2 * k))

(* Distinct, deterministic per-op seeds derived from the workload seed:
   op [i] of a run with seed [s] always sees the same inputs. *)
let op_seed ~(seed : int) (i : int) : int = ((abs seed mod 100_000) * 10_000) + i + 1

(* ------------------------------------------------------------------ *)
(* Tracing: spans kept in memory and written out at exit. A span's
   self time is its duration minus its child spans' durations. Off in
   untraced runs: [span] is then a single branch. *)

module Trace = struct
  type span = { id : int; name : string; parent : int; op : int; t0 : int; t1 : int }

  let on = ref false
  let op = ref 0
  let next_id = ref 0
  let kept : span list ref = ref []
  let n_kept = ref 0
  let dropped = ref 0
  let max_kept = 200_000
  let stack : (int * int ref) list ref = ref []
  let totals : (string, int ref) Hashtbl.t = Hashtbl.create 16
  let selfs : (string, int ref) Hashtbl.t = Hashtbl.create 16
  let calls : (string, int ref) Hashtbl.t = Hashtbl.create 16

  let bump tbl name d =
    match Hashtbl.find_opt tbl name with
    | Some r -> r := !r + d
    | None -> Hashtbl.replace tbl name (ref d)

  let get tbl name = match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0
  let total_ms name = ms (get totals name)
  let self_ms name = ms (get selfs name)
  let calls_of name = get calls name

  let reset_op () =
    Hashtbl.reset totals;
    Hashtbl.reset selfs;
    Hashtbl.reset calls

  let span name f =
    if not !on then f ()
    else begin
      let id = !next_id in
      incr next_id;
      let parent = match !stack with (p, _) :: _ -> p | [] -> -1 in
      let child = ref 0 in
      stack := (id, child) :: !stack;
      let t0 = now_ns () in
      let finish () =
        let t1 = now_ns () in
        stack := List.tl !stack;
        let d = t1 - t0 in
        (match !stack with (_, c) :: _ -> c := !c + d | [] -> ());
        bump totals name d;
        bump selfs name (d - !child);
        bump calls name 1;
        if !n_kept < max_kept then begin
          kept := { id; name; parent; op = !op; t0; t1 } :: !kept;
          incr n_kept
        end
        else incr dropped
      in
      match f () with
      | v ->
        finish ();
        v
      | exception e ->
        finish ();
        raise e
    end

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start_ns\":%d,\"end_ns\":%d}\n"
          s.id s.name s.parent s.op s.t0 s.t1)
      (List.rev !kept);
    close_out oc
end

(* GC time from the runtime's own event ring, read in-process. Only
   the main domain's ring (index 0) is summed: minor collections stop
   every domain, so adding other rings would count one pause twice. *)
module Gc_ring = struct
  let cursor = ref None
  let minor_ns = ref 0
  let major_ns = ref 0
  let lost = ref 0
  let minor_t0 = ref 0
  let major_t0 = ref 0
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t)

  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun ring t phase ->
        if ring = 0 then
          match phase with
          | Runtime_events.EV_MINOR -> minor_t0 := ts t
          | EV_MAJOR_SLICE -> major_t0 := ts t
          | _ -> ())
      ~runtime_end:(fun ring t phase ->
        if ring = 0 then
          match phase with
          | Runtime_events.EV_MINOR -> minor_ns := !minor_ns + (ts t - !minor_t0)
          | EV_MAJOR_SLICE -> major_ns := !major_ns + (ts t - !major_t0)
          | _ -> ())
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  (* The ring holds a few thousand collections' worth of events, less
     than one long op allocates, so a traced op drains it from a 5 ms
     interval timer. Outside traced ops the ring is paused. *)
  let period = 0.005

  let start () =
    Runtime_events.start ();
    Runtime_events.pause ();
    cursor := Some (Runtime_events.create_cursor None);
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> poll ()))

  let resume () =
    Runtime_events.resume ();
    ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = period; it_value = period })

  let pause () =
    ignore (Unix.setitimer Unix.ITIMER_REAL { it_interval = 0.0; it_value = 0.0 });
    poll ();
    Runtime_events.pause ()
end

(* Per-op GC deltas. *)
type gc_mark = { minor_words : float; major_collections : int; minor_ns : int; major_ns : int }

let gc_mark () =
  Gc_ring.poll ();
  let s = Gc.quick_stat () in
  {
    minor_words = s.minor_words;
    major_collections = s.major_collections;
    minor_ns = !Gc_ring.minor_ns;
    major_ns = !Gc_ring.major_ns;
  }

let gc_layers (a : gc_mark) (b : gc_mark) : (string * float) list =
  [
    ("gc.minor_mb", (b.minor_words -. a.minor_words) *. 8e-6);
    ("gc.major_collections", float_of_int (b.major_collections - a.major_collections));
    ("gc.minor_ms", ms (b.minor_ns - a.minor_ns));
    ("gc.major_ms", ms (b.major_ns - a.major_ns));
  ]

(* A timed interval on the monotonic clock, in ns. *)
type interval = { t0 : int; t1 : int }

let time_iv f =
  let t0 = now_ns () in
  let v = f () in
  ({ t0; t1 = now_ns () }, v)

(* ------------------------------------------------------------------ *)
(* Host speed. The host switches between speed states for seconds to
   minutes at a time, and in its slow states code that streams through
   memory slows by up to ~1.7x while a register-only loop barely slows
   (see README.md). So an untraced run samples the host with a
   fixed probe, a sequential read-modify-write over a 2 MB array that
   allocates nothing, every [period] seconds of CPU time, from a
   SIGVTALRM handler, so probes land inside long ops too. An interval's
   normalised time is its time minus the probes inside it, scaled by
   [ref_ns] / the mean probe time over the probes inside it and the
   nearest one on each side: the time the interval would have taken on
   a host where the probe takes [ref_ns]. A workload whose code slows
   less than the probe does scales by that ratio to a power below one,
   its [sensitivity] (see [workloads]). *)

module Host = struct
  module A = Bigarray.Array1

  (* Outside the OCaml heap, so that probing leaves peak_heap_mb and
     the GC's work as they were. *)
  let ints len =
    let a = A.create Bigarray.int Bigarray.c_layout len in
    A.fill a 1;
    a

  let buf = ints 262_144
  let passes = 12
  let sink = ref 0

  (* About the probe's duration in the host's fast state on the 2-vCPU
     VM the benchmark was written on. It only sets the scale: any
     constant would do, as long as it never changes. *)
  let ref_ns = 4e6
  let period = 0.1
  let cap = 1 lsl 16
  let at = ints cap
  let dur = ints cap
  let n = ref 0
  let busy = Atomic.make false

  let kernel () =
    let len = A.dim buf in
    for _ = 1 to passes do
      for i = 0 to len - 1 do
        A.unsafe_set buf i (A.unsafe_get buf i + i)
      done
    done;
    sink := !sink + A.get buf 7

  (* A pool domain that picks up the signal would probe beside the
     main domain's work instead of inside it, so only the main domain
     probes. *)
  let probe () =
    if Domain.is_main_domain () && !n < cap && Atomic.compare_and_set busy false true then begin
      let t0 = now_ns () in
      kernel ();
      let t1 = now_ns () in
      A.set at !n t0;
      A.set dur !n (t1 - t0);
      incr n;
      Atomic.set busy false
    end

  let start () =
    Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle (fun _ -> probe ()));
    ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { it_interval = period; it_value = period });
    probe ()

  let stop () =
    ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { it_interval = 0.0; it_value = 0.0 });
    probe ()

  (* First probe starting at or after [t]. *)
  let first_from t =
    let lo = ref 0 and hi = ref !n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if A.get at mid < t then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Normalised duration of [iv], in ns. Without probes (traced runs)
     it is the wall time. *)
  let normalised ~(sensitivity : float) (iv : interval) : float =
    let a = first_from iv.t0 and b = first_from iv.t1 in
    let inside = ref 0 in
    for i = a to b - 1 do
      inside := !inside + A.get dur i
    done;
    let lo = max 0 (a - 1) and hi = min (!n - 1) b in
    let wall = float_of_int (max 1 (iv.t1 - iv.t0 - !inside)) in
    if hi < lo then wall
    else begin
      let sum = ref 0 in
      for i = lo to hi do
        sum := !sum + A.get dur i
      done;
      wall *. Float.pow (ref_ns /. (float_of_int !sum /. float_of_int (hi - lo + 1))) sensitivity
    end

  let probe_ms () = List.init !n (fun i -> ms (A.get dur i))
end

(* ------------------------------------------------------------------ *)
(* What a workload hands back to the common entry point. *)

type op = {
  wall : interval;  (** when the op ran *)
  ok : bool;  (** the op's output checks held *)
  work : float;  (** units of work done: rounds, or committed transactions *)
  traced : bool;
  layers : (string * float) list;  (** per-layer values of a traced op *)
}

type outcome = {
  setups : interval list;  (** one entry per full set-up *)
  ops : op list;  (** timed ops, in order *)
  run_ok : bool;  (** the once-per-run checks held *)
  counts : (string * int) list;  (** exact counts that must repeat per seed *)
  heap_exact : bool;
      (** the heap high-water mark is an exact count too: false when the
          workload runs code on more than one domain, whose GC timing
          depends on thread scheduling *)
}

type ctx = { seed : int; n_ops : int; trace : bool; smoke : bool }

(* In a traced run, odd ops are traced and even ops are not, so the
   tracing overhead is measured in the same process and speed regime. *)
let traced_op (c : ctx) i = c.trace && i mod 2 = 1

let time_ns f =
  let t0 = now_ns () in
  let v = f () in
  (now_ns () - t0, v)


let counter reg name = Option.value ~default:0 (Registry.counter_value reg name)

(* Set up [set_ups] times from scratch, each including its warm-up ops,
   and keep only the last fixture: earlier ones are dropped before the
   next set-up starts, so they do not inflate the heap the timed ops run
   in. [setup k] returns the fixture and whether its warm-up checks
   held. The median of three normalised set-up times is what
   [setup_s] reports. *)
let set_ups = 3

let set_up (setup : int -> 'a * bool) : interval list * bool * 'a =
  let last = ref None and times = ref [] and ok = ref true in
  for k = 0 to set_ups - 1 do
    last := None;
    let iv, (x, o) = time_iv (fun () -> setup k) in
    times := iv :: !times;
    ok := !ok && o;
    last := Some x
  done;
  (List.rev !times, !ok, Option.get !last)

(* Run [c.n_ops] timed ops through [step], tracing the odd ones in a
   traced run. [step i traced] returns the op's interval, check, work
   and a probe. A traced op then runs the probe, after the op's GC
   deltas are taken; it returns the per-layer values and whether the
   probe's own cross-check held. *)
let timed_ops (c : ctx)
    (step : int -> bool -> interval * bool * float * (unit -> bool * (string * float) list)) :
    op list =
  List.init c.n_ops (fun i ->
      let traced = traced_op c i in
      Trace.op := i;
      Trace.reset_op ();
      Trace.on := traced;
      if traced then Gc_ring.resume ();
      let g0 = gc_mark () in
      let wall, ok, work, probe = step i traced in
      Trace.on := false;
      if not traced then { wall; ok; work; traced; layers = [] }
      else begin
        let g1 = gc_mark () in
        Gc_ring.pause ();
        let probe_ok, layers = probe () in
        { wall; ok = ok && probe_ok; work; traced; layers = layers @ gc_layers g0 g1 }
      end)

(* ------------------------------------------------------------------ *)
(* pop-80k: one op is one round of a fresh 80,000-user population.   *)

let pop_params = Params.scaled ~factor:0.01

(* A population whose 14-role sweep is more than half of a round in
   both of the host's speed states: the committee event loop costs a
   fixed 1.2-2.2 s a round, whatever the population, and the sweep and
   build about 40-48 and 8-10 us per user (see README.md). *)
let pop_users = 80_000
let pop_smoke_users = 5_000

let pop_config ~users ~seed : Population.config =
  {
    Population.default with
    users;
    rounds = 1;
    params = pop_params;
    block_bytes = 1_000_000;
    bandwidth_bps = 20e6;
    rng_seed = seed;
  }

(* The eligibility sweep, replayed through the public sortition API on
   the op's own population and seed: same identities, genesis seed,
   roles and taus as the engine's sweep. Returns (build ns, sweep ns,
   evaluations, users selected for any role). *)
let sweep_probe (cfg : Population.config) : int * int * int * int =
  let n = cfg.users in
  let p = cfg.params in
  let vrf = Vrf.sim in
  let build_ns, (vrf_pks, genesis) =
    time_ns (fun () ->
        let vrf_pks = Array.make n "" in
        let allocs = ref [] in
        for i = n - 1 downto 0 do
          let id =
            Identity.generate ~sig_scheme:Signature_scheme.sim ~vrf_scheme:vrf
              ~seed:(Printf.sprintf "user-%d-%d" cfg.rng_seed i)
          in
          vrf_pks.(i) <- Identity.vrf_pk id.pk;
          allocs := (id.pk, cfg.stake_per_user) :: !allocs
        done;
        (vrf_pks, Genesis.make !allocs))
  in
  let selected = Array.make n false in
  let evals = ref 0 in
  let sweep_ns, () =
    time_ns (fun () ->
        let total = float_of_int (n * cfg.stake_per_user) in
        let sweep ~role ~tau =
          let input = Sortition.vrf_input ~seed:genesis.Genesis.seed0 ~role in
          let prob = tau /. total in
          let c0 = Binomial.cdf ~k:0 ~n:cfg.stake_per_user ~p:prob in
          for u = 0 to n - 1 do
            incr evals;
            match vrf.Vrf.verify ~pk:vrf_pks.(u) ~input ~proof:"" with
            | None -> ()
            | Some h ->
              let frac = Sortition.hash_fraction h in
              if frac >= c0 && Binomial.select_j ~frac ~w:cfg.stake_per_user ~p:prob > 0
              then selected.(u) <- true
          done
        in
        sweep ~role:(Vote.proposer_role ~round:1) ~tau:p.Params.tau_proposer;
        let steps =
          (Vote.Reduction_one :: Vote.Reduction_two
           :: List.init cfg.bin_window (fun i -> Vote.Bin (i + 1)))
          @ [ Vote.Final ]
        in
        List.iter
          (fun step ->
            let tau = match step with Vote.Final -> p.tau_final | _ -> p.tau_step in
            sweep ~role:(Vote.committee_role ~round:1 ~step) ~tau)
          steps)
  in
  let chosen = Array.fold_left (fun a b -> if b then a + 1 else a) 0 selected in
  (build_ns, sweep_ns, !evals, chosen)

let pop (c : ctx) : outcome =
  let users = if c.smoke then pop_smoke_users else pop_users in
  let events = ref 0 and materialized = ref 0 and peak = ref 0 in
  let run_op ~users s =
    (* Each op is a fresh population, so it starts from a collected
       heap, as a one-round run in a fresh process would. Otherwise the
       heap high-water mark depends on how much of the previous op's
       population the major GC had freed when the next one is built. *)
    Gc.full_major ();
    let iv, (r : Population.result) =
      time_iv (fun () -> Population.run (pop_config ~users ~seed:s))
    in
    let ok = r.agreement && List.length r.block_hashes = 1 in
    (iv, ok, r)
  in
  (* Each set-up is one untimed warm-up round of a smoke-size
     population, which runs the same code at a third of a full round's
     cost. Timed ops keep nothing from it, so its seeds do not follow
     --seed: every run sets up the same work. *)
  let setups, warm_ok, () =
    set_up (fun k ->
        let _, ok, _ = run_op ~users:pop_smoke_users (op_seed ~seed:0 (9_000 + k)) in
        ((), ok))
  in
  let ops =
    timed_ops c (fun i _ ->
        let s = op_seed ~seed:c.seed i in
        let iv, ok, r = run_op ~users s in
        let ns = iv.t1 - iv.t0 in
        events := !events + r.total_events;
        materialized := !materialized + r.max_materialized;
        peak := !peak + r.peak_pending;
        let probe () =
          let build_ns, sweep_ns, evals, chosen = sweep_probe (pop_config ~users ~seed:s) in
          let layers =
            [
              ("sortition.sweep_ms", ms sweep_ns);
              ("sortition.evals", float_of_int evals);
              ("sortition.selected", float_of_int chosen);
              ("sortition.useful_frac", float_of_int chosen /. float_of_int evals);
              ("population.build_ms", ms build_ns);
              ("population.rest_ms", ms (ns - sweep_ns - build_ns));
              ("population.materialized", float_of_int r.max_materialized);
              ("engine.events", float_of_int r.total_events);
              ("engine.peak_pending", float_of_int r.peak_pending);
              ("trace.target_share", float_of_int sweep_ns /. float_of_int ns);
            ]
          in
          (* The replay must select exactly the users the engine
             materialized, or it is not measuring the engine's sweep. *)
          (chosen = r.max_materialized, layers)
        in
        (iv, ok, 1.0, probe))
  in
  {
    setups;
    ops;
    run_ok = warm_ok;
    heap_exact = true;
    counts =
      [ ("events", !events); ("materialized", !materialized); ("peak_pending", !peak) ];
  }

(* ------------------------------------------------------------------ *)
(* sim-bytes: one op is one whole short Harness deployment on the
   encoded-bytes wire with hostile transactions.                      *)

let bytes_config ~smoke ~seed : Harness.config =
  {
    Harness.default with
    users = (if smoke then 5 else 10);
    rounds = (if smoke then 2 else 3);
    rng_seed = seed;
    crypto = Harness.Sim_crypto;
    wire = `Bytes;
    tx_profile = Some Harness.hostile_profile;
  }

type deployment = {
  d_iv : interval;
  d_ok : bool;
  d_harness : Harness.t;
  d_events : int;
  d_txs : Harness.tx_report;
  d_frames : string list;  (** encoded frames on the wire, when traced *)
}

let deploy ~(smoke : bool) ~(traced : bool) (seed : int) : deployment =
  let cfg = bytes_config ~smoke ~seed in
  let frames = ref [] in
  let iv, (h, ev, safety, wire, txs) =
    time_iv (fun () ->
        let h = Harness.build cfg in
        Harness.install_workload h;
        if traced then begin
          (* Thunk timing through the reorder hook (identity order), and
             frame capture for the codec probe through a pass-through
             adversary. *)
          Engine.set_reorder_hook h.engine
            (Some (Array.map (fun th () -> Trace.span "engine.dispatch" th)));
          Network.set_adversary h.network (fun ~now:_ ~src:_ ~dst:_ pkt ->
              (match pkt with Gossip.Raw s -> frames := s :: !frames | Gossip.Plain _ -> ());
              Network.Deliver)
        end;
        Array.iter Node.start h.nodes;
        let ev =
          Trace.span "engine.run" (fun () -> Engine.run h.engine ~until:cfg.max_sim_time ())
        in
        (h, ev, Harness.audit_safety h, Harness.audit_wire h, Harness.audit_txs h))
  in
  let reached =
    Array.for_all (fun n -> (Chain.tip (Node.chain n)).height >= cfg.rounds) h.nodes
  in
  {
    d_iv = iv;
    d_ok =
      safety.forked_rounds = [] && safety.double_final = [] && txs.conservation_ok
      && wire.decode_failures = 0 && reached;
    d_harness = h;
    d_events = ev;
    d_txs = txs;
    d_frames = List.rev !frames;
  }

let sim_bytes (c : ctx) : outcome =
  let events = ref 0 and bytes = ref 0 and delivered = ref 0 and committed = ref 0 in
  (* Eight warm-up deployments per set-up, so that even in the host's
     fast spells it spans more than a second. Timed ops keep nothing
     from them, so their seeds do not follow --seed: every run sets up
     the same work. *)
  let setups, setup_ok, () =
    set_up (fun j ->
        let ok = ref true in
        for k = 0 to 7 do
          let d = deploy ~smoke:c.smoke ~traced:false (op_seed ~seed:0 (9_000 + (10 * j) + k)) in
          ok := !ok && d.d_ok
        done;
        ((), !ok))
  in
  let ops =
    timed_ops c (fun i traced ->
        let d = deploy ~smoke:c.smoke ~traced (op_seed ~seed:c.seed i) in
        let h = d.d_harness in
        let rounds = float_of_int h.config.rounds in
        let reg = Metrics.registry h.metrics in
        events := !events + d.d_events;
        bytes := !bytes + int_of_float (Array.fold_left ( +. ) 0.0 (Metrics.bytes_sent h.metrics));
        delivered := !delivered + counter reg "gossip.delivered";
        committed := !committed + d.d_txs.committed;
        let probe () =
          let limits = Codec.limits_of_params ~block_bytes:h.config.block_bytes h.config.params in
          let fails = ref 0 in
          let decode_ns, () =
            time_ns (fun () ->
                List.iter (fun f -> if Codec.decode ~limits f = None then incr fails) d.d_frames)
          in
          let g name = float_of_int (counter reg ("gossip." ^ name)) in
          let dl = g "delivered" and dup = g "duplicates_dropped" and inv = g "invalid_dropped" in
          let layers =
            [
              ("engine.events", float_of_int d.d_events);
              ("engine.peak_pending", float_of_int (Engine.peak_pending h.engine));
              ("engine.dispatch_ms", Trace.total_ms "engine.dispatch");
              ("engine.queue_ms", Trace.self_ms "engine.run");
              ("codec.decode_ms", ms decode_ns);
              ( "codec.bytes",
                float_of_int (List.fold_left (fun a f -> a + String.length f) 0 d.d_frames) );
              ("codec.decode_fail", float_of_int !fails);
              ("gossip.delivered", dl);
              ("gossip.duplicates", dup);
              ("gossip.relayed", g "relayed");
              ("gossip.invalid", inv);
              ("gossip.useful_frac", dl /. Float.max 1.0 (dl +. dup +. inv));
              ("ledger.applied", float_of_int d.d_txs.committed);
              ( "trace.target_share",
                Trace.total_ms "engine.dispatch" /. ms (d.d_iv.t1 - d.d_iv.t0) );
            ]
          in
          (!fails = 0, layers)
        in
        (d.d_iv, d.d_ok, rounds, probe))
  in
  {
    setups;
    ops;
    run_ok = setup_ok;
    heap_exact = true;
    counts =
      [
        ("events", !events);
        ("bytes_sent", !bytes);
        ("gossip_delivered", !delivered);
        ("committed_txs", !committed);
      ];
  }

(* ------------------------------------------------------------------ *)
(* loopback-realcrypto: one long-lived Wire_gossip mesh over the
   Loopback hub with random segmentation and ed25519 + ECVRF; one op is
   one round. Assembled as test/test_transport.ml's loopback_cluster.  *)

let fast_params =
  {
    Params.paper with
    lambda_priority = 1.0;
    lambda_stepvar = 1.0;
    lambda_block = 10.0;
    lambda_step = 5.0;
    max_steps = 8;
  }

let lb_block_bytes = 10_000

type mesh = {
  engine : Engine.t;
  registry : Registry.t;
  nodes : Node.t array;
  completed : (int, int) Hashtbl.t;  (** round -> nodes that completed it *)
  genesis : Genesis.t;
  frames : string list ref;  (** frames captured at ingress by a traced op *)
  egress_top_ns : int ref;  (** egress time outside the ingress path *)
}

let build_mesh ~users ~seed ~max_round : mesh =
  let engine = Engine.create () in
  let registry = Registry.create () in
  let sig_scheme, vrf_scheme = Harness.schemes Harness.Real_crypto in
  let identities =
    Array.init users (fun i ->
        Identity.generate ~sig_scheme ~vrf_scheme ~seed:(Printf.sprintf "user-%d-%d" seed i))
  in
  let genesis =
    Genesis.make (Array.to_list (Array.map (fun id -> (id.Identity.pk, 1_000)) identities))
  in
  let rng = Rng.create seed in
  let hub = Loopback.hub ~engine ~latency:0.01 ~seg:`Random ~rng:(Rng.split rng "seg") () in
  let metrics = Metrics.create ~registry ~users () in
  let digest = Codec.params_digest ~genesis:(Genesis.hash genesis) fast_params in
  let config =
    {
      Node.default_config with
      params = fast_params;
      sig_scheme;
      vrf_scheme;
      block_target_bytes = lb_block_bytes;
      max_round;
      deterministic_ts = true;
    }
  in
  let completed = Hashtbl.create 64 in
  let frames = ref [] and egress_top_ns = ref 0 and in_ingress = ref 0 in
  let wgs =
    Array.init users (fun i ->
        let handlers = Transport.handlers () in
        let tr =
          Loopback.create ~hub ~addr:(string_of_int i)
            ~hello:
              { version = Handshake.version; params_digest = digest; pk = identities.(i).Identity.pk }
            ~registry ~handlers ()
        in
        let node =
          Node.create ~index:i ~identity:identities.(i) ~config ~engine ~metrics
            ~rng:(Rng.split rng (Printf.sprintf "node-%d" i))
            ~genesis ()
        in
        let wg =
          WGL.create ~engine ~transport:tr ~handlers ~self:i
            ~roster:(Array.map (fun id -> id.Identity.pk) identities)
            ~limits:(Codec.limits_of_params ~block_bytes:lb_block_bytes fast_params)
            ~fanout:2
            ~rng:(Rng.split rng (Printf.sprintf "wire-%d" i))
            ~registry ()
        in
        WGL.install wg
          ~validate:(fun msg -> Trace.span "crypto.validate" (fun () -> Node.gossip_validate node msg))
          ~deliver:(fun ~src msg -> Trace.span "node.deliver" (fun () -> Node.deliver node ~src msg));
        (* Ingress seam: the transport's frame callback as installed by
           the overlay, wrapped. *)
        let on_frame = handlers.on_frame in
        handlers.on_frame <-
          (fun ~conn frame ->
            if !Trace.on then begin
              frames := frame :: !frames;
              incr in_ingress;
              Fun.protect
                ~finally:(fun () -> decr in_ingress)
                (fun () -> Trace.span "wire.ingress" (fun () -> on_frame ~conn frame))
            end
            else on_frame ~conn frame);
        (* Egress seam: the node's network handle, wrapped. *)
        let net = WGL.as_net wg in
        let egress f =
          if !Trace.on && !in_ingress = 0 then begin
            let t0 = now_ns () in
            Trace.span "wire.egress" f;
            egress_top_ns := !egress_top_ns + (now_ns () - t0)
          end
          else Trace.span "wire.egress" f
        in
        Node.set_net node
          {
            net with
            net_broadcast = (fun msg -> egress (fun () -> net.net_broadcast msg));
            net_send_to = (fun ~dst msg -> egress (fun () -> net.net_send_to ~dst msg));
          };
        Node.set_on_round_complete node (fun _ ~round ~final:_ ->
            Hashtbl.replace completed round
              (1 + Option.value ~default:0 (Hashtbl.find_opt completed round)));
        (node, wg))
  in
  Array.iteri
    (fun i (_, wg) ->
      for j = 0 to i - 1 do
        WGL.dial wg ~index:j ~addr:(string_of_int j)
      done)
    wgs;
  ignore (Engine.run engine ~until:1.0 ());
  let nodes = Array.map fst wgs in
  Array.iter Node.start nodes;
  { engine; registry; nodes; completed; genesis; frames; egress_top_ns }

(* Advance the mesh until every node has completed [round]. *)
let run_round (m : mesh) ~round : bool =
  let n = Array.length m.nodes in
  let done_ () = Option.value ~default:0 (Hashtbl.find_opt m.completed round) >= n in
  let stalled = ref false in
  Trace.span "engine.run" (fun () ->
      while (not (done_ ())) && not !stalled do
        if Engine.run m.engine ~max_events:1 () = 0 then stalled := true
      done);
  done_ ()

let hash_at node ~round =
  let chain = Node.chain node in
  Option.map
    (fun (e : Chain.entry) -> e.hash)
    (Chain.ancestor_at chain ~hash:(Chain.tip chain).hash ~height:round)

let loopback_realcrypto (c : ctx) : outcome =
  let users = 4 in
  let warm = 3 in
  let rounds = warm + c.n_ops in
  let setups, setup_ok, (m, seed) =
    set_up (fun k ->
        let seed = op_seed ~seed:c.seed (9_000 + k) in
        let m = build_mesh ~users ~seed ~max_round:(rounds + 2) in
        let ok = ref true in
        for r = 1 to warm do
          ok := !ok && run_round m ~round:r
        done;
        ((m, seed), !ok))
  in
  let reg = m.registry in
  let ops =
    timed_ops c (fun i traced ->
        let round = warm + 1 + i in
        let c0 name = counter reg name in
        let before =
          List.map
            (fun k -> (k, c0 k))
            [
              "transport.frames_received"; "transport.bytes_sent"; "gossip.duplicates_dropped";
              "gossip.delivered";
            ]
        in
        m.frames := [];
        m.egress_top_ns := 0;
        if traced then
          Engine.set_reorder_hook m.engine
            (Some (Array.map (fun th () -> Trace.span "engine.dispatch" th)));
        let iv, completed = time_iv (fun () -> run_round m ~round) in
        let ns = iv.t1 - iv.t0 in
        Engine.set_reorder_hook m.engine None;
        let h0 = hash_at m.nodes.(0) ~round in
        let ok =
          completed && h0 <> None
          && Array.for_all (fun n -> hash_at n ~round = h0) m.nodes
          && Node.certificate m.nodes.(0) ~round <> None
        in
        let probe () =
          let d k = float_of_int (c0 k - List.assoc k before) in
          let limits = Codec.limits_of_params ~block_bytes:lb_block_bytes fast_params in
          let fails = ref 0 and codec_bytes = ref 0 in
          let decode_ns, () =
            time_ns (fun () ->
                List.iter
                  (fun f -> if Codec.decode ~limits f = None then incr fails)
                  !(m.frames))
          in
          List.iter (fun f -> codec_bytes := !codec_bytes + String.length f) !(m.frames);
          let frames = d "transport.frames_received" and dup = d "gossip.duplicates_dropped" in
          let ingress = Trace.total_ms "wire.ingress" in
          let layers =
            [
              ("engine.events", float_of_int (Trace.calls_of "engine.dispatch"));
              ("engine.peak_pending", float_of_int (Engine.peak_pending m.engine));
              ("engine.dispatch_ms", Trace.total_ms "engine.dispatch");
              ("engine.queue_ms", Trace.self_ms "engine.run");
              ("node.deliver_ms", Trace.total_ms "node.deliver");
              ("node.deliver_calls", float_of_int (Trace.calls_of "node.deliver"));
              ("crypto.validate_ms", Trace.total_ms "crypto.validate");
              ("crypto.validate_calls", float_of_int (Trace.calls_of "crypto.validate"));
              ("crypto.node_other_ms", ms ns -. ingress -. ms !(m.egress_top_ns));
              ("wire.ingress_ms", ingress);
              ("wire.ingress_self_ms", Trace.self_ms "wire.ingress");
              ("wire.egress_ms", Trace.total_ms "wire.egress");
              ("wire.frames", frames);
              ("wire.bytes", d "transport.bytes_sent");
              ("wire.duplicates", dup);
              ("wire.useful_frac", d "gossip.delivered" /. Float.max 1.0 frames);
              ("codec.decode_ms", ms decode_ns);
              ("codec.bytes", float_of_int !codec_bytes);
              ("codec.decode_fail", float_of_int !fails);
              ("trace.target_share", Trace.total_ms "crypto.validate" /. ms ns);
            ]
          in
          (!fails = 0, layers)
        in
        (iv, ok, 1.0, probe))
  in
  (* Once per run, untimed: the chain replays from genesis through
     History.replay, and its prefix equals a typed Harness run of the
     same seed and crypto. *)
  let sig_scheme, vrf_scheme = Harness.schemes Harness.Real_crypto in
  let node0 = m.nodes.(0) in
  let last = warm + c.n_ops in
  let items =
    List.filter_map
      (fun r ->
        let chain = Node.chain node0 in
        match
          ( Chain.ancestor_at chain ~hash:(Chain.tip chain).hash ~height:r,
            Node.certificate node0 ~round:r )
        with
        | Some e, Some certificate -> Some { History.block = e.block; certificate }
        | _ -> None)
      (List.init last (fun k -> k + 1))
  in
  let bad_from =
    if List.length items < last then 1
    else
      match
        History.replay ~params:fast_params ~sig_scheme ~vrf_scheme ~genesis:m.genesis items
      with
      | Ok _ -> max_int
      | Error (`Round (r, _) | `Chain (r, _) | `Hash_mismatch r) -> r
      | Error (`Final_certificate _) -> 1
  in
  let typed_rounds = 2 in
  let typed =
    Harness.run
      {
        Harness.default with
        users;
        rounds = typed_rounds;
        rng_seed = seed;
        crypto = Harness.Real_crypto;
        params = fast_params;
        block_bytes = lb_block_bytes;
        tx_rate_per_s = 0.0;
        deterministic_ts = true;
      }
  in
  let typed_ok =
    List.for_all
      (fun r ->
        let h = hash_at node0 ~round:r in
        h <> None && hash_at typed.harness.nodes.(0) ~round:r = h)
      (List.init typed_rounds (fun k -> k + 1))
  in
  let ops =
    List.mapi (fun i o -> if warm + 1 + i >= bad_from then { o with ok = false } else o) ops
  in
  {
    setups;
    ops;
    run_ok = typed_ok && setup_ok;
    heap_exact = true;
    counts =
      [
        ("events", Engine.events_processed m.engine);
        ("frames", counter reg "transport.frames_received");
        ("bytes", counter reg "transport.bytes_sent");
        ("chain_height", (Chain.tip (Node.chain node0)).height);
      ];
  }

(* ------------------------------------------------------------------ *)
(* ledger-hostile: 200,000 Zipf-1.1 accounts under the hostile mix,
   8 shards. One op assembles a block from the next 1,024 stream
   transactions and validates it on a second state; that is the timed
   part. After it, untimed, light clients ask for proofs from recent
   blocks. No source gives a proof-to-block ratio, so the proofs are a
   fixed sample that keeps the server's hit and miss paths in every op,
   and their cost is reported on its own (lightclient.serve_ms).      *)

let ledger_block_offer = 1_024
let ledger_proofs = 32
let ledger_recent = 8

type ledger_fix = {
  wl : Workload.t;
  mutable proposer : Balances.t;
  mutable validator : Balances.t;
  supply : int;
  server : Lightclient.server;
  recent : Block.t array;  (** ring of the last blocks, by round *)
  rng : Random.State.t;
  mutable round : int;
  mutable applied : int;
  mutable rejected : int;
}

let ledger_fixture ~smoke ~seed : ledger_fix =
  let wl =
    Workload.create
      {
        Workload.accounts =
          Workload.Synthetic { n = (if smoke then 10_000 else 200_000); scheme = Signature_scheme.sim };
        zipf_s = 1.1;
        mix = Workload.hostile;
        burst = None;
        amount = 1;
        seed;
      }
  in
  let b0 = Workload.initial_balances wl ~stake:1_000 ~shards:8 in
  {
    wl;
    proposer = b0;
    validator = b0;
    supply = Balances.total b0;
    server = Lightclient.create_server ();
    recent = Array.make ledger_recent (Block.empty ~round:0 ~prev_hash:"");
    rng = Random.State.make [| seed |];
    round = 0;
    applied = 0;
    rejected = 0;
  }

let ledger_full_check = 16

let ledger_states_ok (f : ledger_fix) =
  Balances.invariant f.proposer && Balances.invariant f.validator

(* One op on the fixture; returns (interval, ok, committed transactions, probe). *)
let ledger_op (f : ledger_fix) =
  let offered = Workload.next_n f.wl ledger_block_offer in
  f.round <- f.round + 1;
  let round = f.round in
  let pre_validator = f.validator in
  let hits0 = Lightclient.server_hits f.server and miss0 = Lightclient.server_misses f.server in
  let iv, (block_txs, rejected, validated) =
    time_iv (fun () ->
        let block_txs, rejected =
          Trace.span "ledger.assembly" (fun () ->
              let st = ref f.proposer and acc = ref [] and rej = ref 0 in
              List.iter
                (fun tx ->
                  match Balances.apply_tx !st tx with
                  | Ok st' ->
                    st := st';
                    acc := tx :: !acc
                  | Error _ -> incr rej)
                offered;
              f.proposer <- !st;
              (List.rev !acc, !rej))
        in
        let validated =
          Trace.span "ledger.validate" (fun () ->
              Balances.apply_block ~parallel:true f.validator block_txs)
        in
        (match validated with Ok v -> f.validator <- v | Error _ -> ());
        (block_txs, rejected, validated))
  in
  let block =
    { (Block.empty ~round ~prev_hash:(string_of_int (round - 1))) with txs = block_txs }
  in
  f.recent.(round mod ledger_recent) <- block;
  (* Untimed: picking which payments to ask about, serving the proofs
     and verifying them. *)
  let queries =
    List.filter_map
      (fun _ ->
        let b = f.recent.((round - Random.State.int f.rng (min ledger_recent round)) mod ledger_recent) in
        match b.txs with
        | [] -> None
        | txs -> Some (b, Transaction.id (List.nth txs (Random.State.int f.rng (List.length txs)))))
      (List.init ledger_proofs Fun.id)
  in
  let served =
    Trace.span "lightclient.serve" (fun () ->
        List.map (fun (b, tx_id) -> (tx_id, Lightclient.serve_proof f.server ~block:b ~tx_id)) queries)
  in
  let served_ok =
    List.for_all
      (function
        | tx_id, Some (s, proof) -> Block.summary_contains s ~tx_id proof
        | _, None -> false)
      served
  in
  let n_applied = List.length block.txs in
  f.applied <- f.applied + n_applied;
  f.rejected <- f.rejected + rejected;
  (* Checks: supply conserved on both states, which agree on every
     account the block touched, none of them negative. The full
     [Balances.invariant] walks all accounts, so it runs every
     [ledger_full_check] blocks and at the end of the run. *)
  let touched =
    List.concat_map (fun (tx : Transaction.t) -> [ tx.sender; tx.recipient ]) block.txs
  in
  let ok =
    served_ok && Result.is_ok validated
    && Balances.total f.proposer = f.supply
    && Balances.total f.validator = f.supply
    && List.for_all
         (fun k ->
           let b = Balances.balance f.proposer k in
           b >= 0
           && b = Balances.balance f.validator k
           && Balances.nonce f.proposer k = Balances.nonce f.validator k)
         touched
    && (round mod ledger_full_check <> 0 || ledger_states_ok f)
  in
  (* Probe: the same block on the same pre-state through the sequential
     path, which must reach the same balances. *)
  let probe () =
    let seq_ns, seq =
      time_ns (fun () -> Balances.apply_block ~parallel:false pre_validator block.txs)
    in
    let seq_ok =
      match seq with
      | Ok s -> List.for_all (fun k -> Balances.balance s k = Balances.balance f.validator k) touched
      | Error _ -> false
    in
    let hits = Lightclient.server_hits f.server - hits0
    and misses = Lightclient.server_misses f.server - miss0 in
    ( seq_ok,
      [
        ("ledger.assembly_ms", Trace.total_ms "ledger.assembly");
        ("ledger.validate_ms", Trace.total_ms "ledger.validate");
        ("ledger.validate_seq_ms", ms seq_ns);
        ("ledger.applied", float_of_int n_applied);
        ("ledger.rejected", float_of_int rejected);
        ("ledger.useful_frac", float_of_int n_applied /. float_of_int ledger_block_offer);
        ("lightclient.serve_ms", Trace.total_ms "lightclient.serve");
        ("lightclient.hit_frac", float_of_int hits /. Float.max 1.0 (float_of_int (hits + misses)));
        ( "trace.target_share",
          (Trace.total_ms "ledger.assembly" +. Trace.total_ms "ledger.validate")
          /. ms (iv.t1 - iv.t0) );
      ] )
  in
  (iv, ok, float_of_int n_applied, probe)

let ledger_hostile (c : ctx) : outcome =
  let warm_ops = if c.smoke then 5 else 10 in
  let setups, setup_ok, f =
    set_up (fun k ->
        let f = ledger_fixture ~smoke:c.smoke ~seed:(op_seed ~seed:c.seed (9_000 + k)) in
        let ok = ref true in
        for _ = 1 to warm_ops do
          let _, o, _, _ = ledger_op f in
          ok := !ok && o
        done;
        (f, !ok))
  in
  let applied0 = f.applied and rejected0 = f.rejected in
  let ops = timed_ops c (fun _ _ -> ledger_op f) in
  let final_ok =
    ledger_states_ok f && Balances.weights f.proposer = Balances.weights f.validator
  in
  {
    setups;
    ops;
    run_ok = final_ok && setup_ok;
    (* apply_block ~parallel:true validates on the ledger's domain pool *)
    heap_exact = false;
    counts =
      [ ("applied", f.applied - applied0); ("rejected", f.rejected - rejected0); ("round", f.round) ];
  }

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)

type spec = {
  name : string;
  nominal_op_s : float;  (** sizes the fixed op count from --seconds *)
  sensitivity : float;  (** exponent of the host-probe normalisation *)
  target : string;  (** the layer the workload was chosen to stress *)
  run : ctx -> outcome;
}

let workloads =
  [
    {
      name = "pop-80k";
      (* A round takes ~5.5 s of wall time; 4.0 buys a fifth op per
         run, which the 4-op runs' spread needed. *)
      nominal_op_s = 4.0;
      sensitivity = 1.0;
      target = "sortition sweep";
      run = pop;
    };
    {
      name = "sim-bytes";
      nominal_op_s = 0.22;
      sensitivity = 1.0;
      target = "engine dispatch";
      run = sim_bytes;
    };
    {
      name = "loopback-realcrypto";
      nominal_op_s = 0.7;
      sensitivity = 1.0;
      target = "crypto.validate";
      run = loopback_realcrypto;
    };
    {
      name = "ledger-hostile";
      (* An op's timed part is ~7 ms; the rest of its ~0.07 s goes to
         generating transactions, serving proofs and checks, untimed. *)
      nominal_op_s = 0.07;
      (* Within runs, the ledger's op time moves with the probe's to the
         power 0.53 (fitted over 1,665 ops of five runs), against 0.86
         for sim-bytes and 0.73 for pop-80k, which full normalisation
         suits; about half of its timed op validates on the ledger's
         domain pool, across both vCPUs. *)
      sensitivity = 0.5;
      target = "ledger assembly + validate";
      run = ledger_hostile;
    };
  ]

let smoke_ops = 4

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let smoke = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S nominal measuring time; fixes the op count");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny sizes: every check and the output format in seconds");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  in
  let n_ops =
    if !smoke then smoke_ops
    else max 3 (int_of_float (Float.round (float_of_int !seconds /. spec.nominal_op_s)))
  in
  let c = { seed = !seed; n_ops; trace = !trace = 1; smoke = !smoke } in
  (* Untraced runs probe the host; traced runs do not, so that no
     probe lands inside a span. *)
  if c.trace then Gc_ring.start () else Host.start ();
  let o = spec.run c in
  if not c.trace then begin
    Host.stop ();
    let p = Host.probe_ms () in
    Printf.eprintf "%s: %d host probes, median %.2f ms (p10 %.2f, p90 %.2f)\n" spec.name
      (List.length p) (median p) (percentile p 10.0) (percentile p 90.0)
  end;
  let ops = o.ops in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun op -> not op.ok) ops) in
  (* Per-op times and rates, normalised by the host probe (untraced
     runs) or wall (traced runs). *)
  let norm_ns = Host.normalised ~sensitivity:spec.sensitivity in
  let op_ms (l : op list) = List.map (fun op -> norm_ns op.wall /. 1e6) l in
  let cost (op : op) = norm_ns op.wall /. 1e9 /. op.work in
  let top_heap_mb = float_of_int (Gc.quick_stat ()).top_heap_words *. 8e-6 in
  let metrics =
    if not c.trace then
      [
        ("setup_s", "s", median (List.map (fun iv -> norm_ns iv /. 1e9) o.setups));
        (* Work per second at the mean per-op cost (seconds per unit of
           work), leaving out the cheapest and dearest tenth of ops,
           which a burst of host noise the probes missed can still
           reach. *)
        ("ops_per_s", "1/s", 1.0 /. trimmed_mean (List.map cost ops));
        ("op_ms_p90", "ms", percentile (op_ms ops) 90.0);
        ("peak_heap_mb", "MB", top_heap_mb);
      ]
    else begin
      let traced = List.filter (fun op -> op.traced) ops in
      let plain = List.filter (fun op -> not op.traced) ops in
      let layer name =
        let vs = List.filter_map (fun op -> List.assoc_opt name op.layers) traced in
        if vs = [] then 0.0 else median vs
      in
      let names =
        [
          ("sortition.sweep_ms", "ms"); ("sortition.evals", "count");
          ("sortition.selected", "count"); ("sortition.useful_frac", "ratio");
          ("population.build_ms", "ms"); ("population.rest_ms", "ms");
          ("population.materialized", "count");
          ("engine.events", "count"); ("engine.peak_pending", "count");
          ("engine.dispatch_ms", "ms"); ("engine.queue_ms", "ms");
          ("node.deliver_ms", "ms"); ("node.deliver_calls", "count");
          ("crypto.validate_ms", "ms"); ("crypto.validate_calls", "count");
          ("crypto.node_other_ms", "ms");
          ("wire.ingress_ms", "ms"); ("wire.ingress_self_ms", "ms"); ("wire.egress_ms", "ms");
          ("wire.frames", "count"); ("wire.bytes", "bytes"); ("wire.duplicates", "count");
          ("wire.useful_frac", "ratio");
          ("codec.decode_ms", "ms"); ("codec.bytes", "bytes"); ("codec.decode_fail", "count");
          ("gossip.delivered", "count"); ("gossip.duplicates", "count");
          ("gossip.relayed", "count"); ("gossip.invalid", "count");
          ("gossip.useful_frac", "ratio");
          ("ledger.assembly_ms", "ms"); ("ledger.validate_ms", "ms");
          ("ledger.validate_seq_ms", "ms"); ("ledger.applied", "count");
          ("ledger.rejected", "count"); ("ledger.useful_frac", "ratio");
          ("lightclient.serve_ms", "ms"); ("lightclient.hit_frac", "ratio");
          ("gc.minor_mb", "MB"); ("gc.major_collections", "count");
          ("gc.minor_ms", "ms"); ("gc.major_ms", "ms"); ("trace.target_share", "ratio");
        ]
      in
      let med l = median (op_ms l) in
      List.map (fun (n, u) -> (n, u, layer n)) names
      @ [
          ("op.ms", "ms", med traced);
          ("trace.overhead_frac", "ratio",
            if plain = [] || traced = [] then 0.0 else (med traced /. med plain) -. 1.0);
          ("trace.spans_dropped", "count", float_of_int !Trace.dropped);
          ("gc.events_lost", "count", float_of_int !Gc_ring.lost);
        ]
    end
  in
  (* Does the workload still stress the layer it was chosen for? *)
  (if c.trace then
     match List.find_opt (fun (n, _, _) -> n = "trace.target_share") metrics with
     | Some (_, _, v) ->
       Printf.eprintf "%s: %.0f%% of a traced op is spent in the layer it stresses (%s)\n"
         spec.name (100.0 *. v) spec.target
     | None -> ());
  if c.trace then begin
    if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
    Trace.write (Filename.concat trace_dir (Printf.sprintf "trace-%s-seed%d.jsonl" spec.name c.seed))
  end;
  let correct = failed = 0 && o.run_ok in
  if not correct then
    Printf.eprintf "%s: %d of %d ops failed their checks; run-level checks %s\n" spec.name
      failed attempted (if o.run_ok then "held" else "FAILED");
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {" correct
    attempted failed;
  List.iteri
    (fun i (n, u, v) ->
      Printf.bprintf buf "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ") n (json_num v) u)
    metrics;
  Buffer.add_string buf "}, \"counts\": {";
  List.iteri
    (fun i (n, v) -> Printf.bprintf buf "%s\"%s\": %d" (if i = 0 then "" else ", ") n v)
    (o.counts
    (* In a traced run the GC ring is drained from a timer signal, at
       allocation points that depend on wall time, so the heap peak is
       not an exact count there. *)
    @ (if o.heap_exact && not c.trace then
         [ ("peak_heap_words", (Gc.quick_stat ()).top_heap_words) ]
       else [])
    @ [ ("ops", attempted) ]);
  Buffer.add_string buf "}}";
  print_endline (Buffer.contents buf)
