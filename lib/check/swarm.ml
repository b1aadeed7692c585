(* The simulation swarm: one coverage-guided torture entrypoint that
   composes every fault injector, attack and fuzzer the repo has grown
   - crash churn, message loss, duplication, flooding, on-path
   corruption, byzantine equivocation, partitions, the bytes-mode wire,
   hostile transaction workloads, and the adversary-gallery entries
   (undecidable messages, adaptive corruption) - in the style of
   FoundationDB's simulation swarm.

   Per seed the mutator draws a *composition* of stressors, the harness
   runs a long-horizon episode under all of them at once, and the full
   invariant set is audited: agreement (no double-final round),
   restarted-node convergence, bounded liveness (every node stopped at
   quiescence), money-supply conservation, and zero decode failures
   when the wire is bytes-mode and nothing corrupts frames.

   Coverage guidance uses the observability layer as the signal: each
   episode is fingerprinted by which registry counters fired and which
   histogram buckets were populated (Registry.fingerprint). Episodes
   that exercise any new fingerprint item join a corpus, and the
   mutator biases toward corpus entries - compositions that reached
   novel behavior breed.

   Violations are shrunk with the same greedy machinery the model
   checker uses (Shrink.minimize_seq over the stressor composition,
   then parameter shrinking) and emitted as a one-line replayable
   reproducer: `algorand-check swarm --replay '<config>'`.

   Everything is deterministic: the budget is accounted in simulated
   engine events (not wall clock), so a given (budget, seed-stream)
   pair always runs the identical episode sequence and produces the
   identical corpus digest. *)

open Algorand_crypto
module Harness = Algorand_core.Harness
module Params = Algorand_ba.Params
module Metrics = Algorand_sim.Metrics
module Rng = Algorand_sim.Rng
module Registry = Algorand_obs.Registry
module Workload = Algorand_ledger.Workload

(* ------------------------- stressor algebra ------------------------ *)

type stressor =
  | Churn of { fraction : float; down_for : float }
      (** periodic crash-restart ticks over a random node fraction *)
  | Loss of float  (** uniform per-message drop probability *)
  | Dup of float  (** uniform per-message duplication probability *)
  | Flood of { flooders : float; rate : float }
      (** garbage-frame flooders vs the overlay's per-peer defense *)
  | Corrupt of float  (** on-path per-frame corruption probability *)
  | Equivocate of float
      (** fraction of users with equivocating proposers / double voters *)
  | Partition  (** a network split that heals inside the episode *)
  | Bytes_wire  (** every message crosses the WAN as Codec bytes *)
  | Hostile_txs of { rate : float; zipf : float }
      (** Zipf-skewed stream with invalid/duplicate/self-pay traffic *)
  | Undecidable of float
      (** laggard fraction fed only valid-but-stale protocol traffic *)
  | Adaptive of float
      (** committee members corrupted as their VRF proofs reveal them *)

let family = function
  | Churn _ -> "churn"
  | Loss _ -> "loss"
  | Dup _ -> "dup"
  | Flood _ -> "flood"
  | Corrupt _ -> "corrupt"
  | Equivocate _ -> "equivocate"
  | Partition -> "partition"
  | Bytes_wire -> "bytes"
  | Hostile_txs _ -> "hostile"
  | Undecidable _ -> "undecidable"
  | Adaptive _ -> "adaptive"

let n_families = 11

let family_name =
  [|
    "churn"; "loss"; "dup"; "flood"; "corrupt"; "equivocate"; "partition";
    "bytes"; "hostile"; "undecidable"; "adaptive";
  |]

let family_index (s : stressor) : int =
  let f = family s in
  let rec go i = if family_name.(i) = f then i else go (i + 1) in
  go 0

let families (ss : stressor list) : int =
  List.sort_uniq String.compare (List.map family ss) |> List.length

type config = {
  seed : int;
  users : int;
  rounds : int;
  stressors : stressor list;
}

(* ------------------------ one-line codec --------------------------- *)

(* The replay format: `seed=S;users=U;rounds=R;st=a:p1:p2,b,c:p1`. All
   float parameters come from the mutator's fixed palettes, so "%g"
   round-trips them exactly. *)

let stressor_to_string = function
  | Churn { fraction; down_for } -> Printf.sprintf "churn:%g:%g" fraction down_for
  | Loss p -> Printf.sprintf "loss:%g" p
  | Dup p -> Printf.sprintf "dup:%g" p
  | Flood { flooders; rate } -> Printf.sprintf "flood:%g:%g" flooders rate
  | Corrupt p -> Printf.sprintf "corrupt:%g" p
  | Equivocate f -> Printf.sprintf "equivocate:%g" f
  | Partition -> "partition"
  | Bytes_wire -> "bytes"
  | Hostile_txs { rate; zipf } -> Printf.sprintf "hostile:%g:%g" rate zipf
  | Undecidable f -> Printf.sprintf "undecidable:%g" f
  | Adaptive f -> Printf.sprintf "adaptive:%g" f

let to_string (c : config) : string =
  Printf.sprintf "seed=%d;users=%d;rounds=%d;st=%s" c.seed c.users c.rounds
    (String.concat "," (List.map stressor_to_string c.stressors))

let stressor_of_string (s : string) : (stressor, string) result =
  match String.split_on_char ':' s with
  | [ "churn"; f; d ] -> (
    try Ok (Churn { fraction = float_of_string f; down_for = float_of_string d })
    with _ -> Error ("bad churn params: " ^ s))
  | [ "loss"; p ] -> (
    try Ok (Loss (float_of_string p)) with _ -> Error ("bad loss param: " ^ s))
  | [ "dup"; p ] -> (
    try Ok (Dup (float_of_string p)) with _ -> Error ("bad dup param: " ^ s))
  | [ "flood"; f; r ] -> (
    try Ok (Flood { flooders = float_of_string f; rate = float_of_string r })
    with _ -> Error ("bad flood params: " ^ s))
  | [ "corrupt"; p ] -> (
    try Ok (Corrupt (float_of_string p)) with _ -> Error ("bad corrupt param: " ^ s))
  | [ "equivocate"; f ] -> (
    try Ok (Equivocate (float_of_string f))
    with _ -> Error ("bad equivocate param: " ^ s))
  | [ "partition" ] -> Ok Partition
  | [ "bytes" ] -> Ok Bytes_wire
  | [ "hostile"; r; z ] -> (
    try Ok (Hostile_txs { rate = float_of_string r; zipf = float_of_string z })
    with _ -> Error ("bad hostile params: " ^ s))
  | [ "undecidable"; f ] -> (
    try Ok (Undecidable (float_of_string f))
    with _ -> Error ("bad undecidable param: " ^ s))
  | [ "adaptive"; f ] -> (
    try Ok (Adaptive (float_of_string f))
    with _ -> Error ("bad adaptive param: " ^ s))
  | _ -> Error ("unknown stressor: " ^ s)

let of_string (s : string) : (config, string) result =
  let kv part =
    match String.index_opt part '=' with
    | Some i ->
      Some
        ( String.sub part 0 i,
          String.sub part (i + 1) (String.length part - i - 1) )
    | None -> None
  in
  let parts = String.split_on_char ';' (String.trim s) in
  let find key =
    List.find_map
      (fun p -> match kv p with Some (k, v) when k = key -> Some v | _ -> None)
      parts
  in
  match (find "seed", find "users", find "rounds", find "st") with
  | Some seed, Some users, Some rounds, Some st -> (
    match
      (int_of_string_opt seed, int_of_string_opt users, int_of_string_opt rounds)
    with
    | Some seed, Some users, Some rounds ->
      let items =
        if String.equal st "" then [] else String.split_on_char ',' st
      in
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
          match stressor_of_string x with
          | Ok s -> parse (s :: acc) rest
          | Error e -> Error e)
      in
      Result.map
        (fun stressors -> { seed; users; rounds; stressors })
        (parse [] items)
    | _ -> Error "seed/users/rounds must be integers")
  | _ -> Error "expected seed=..;users=..;rounds=..;st=.."

(* --------------------- harness materialization -------------------- *)

(* Small fast deployments, same parameter shape the sim CLI uses for
   its churn/flood/corrupt paths: short lambdas, MaxSteps 6, recovery
   clock on - a full episode is tens of thousands of engine events,
   so a budgeted swarm run gets through many compositions. *)
let swarm_params =
  {
    Params.paper with
    lambda_priority = 1.0;
    lambda_stepvar = 1.0;
    lambda_block = 10.0;
    lambda_step = 5.0;
    max_steps = 6;
    recovery_interval = 150.0;
  }

let to_harness (c : config) : Harness.config =
  let base =
    {
      Harness.default with
      users = c.users;
      rounds = c.rounds;
      rng_seed = c.seed;
      params = swarm_params;
      crypto = Harness.Sim_crypto;
      block_bytes = 20_000;
      recovery_enabled = true;
      tx_rate_per_s = 0.5;
      max_sim_time = 3_600.0;
    }
  in
  List.fold_left
    (fun (hc : Harness.config) s ->
      let add a = { hc with attacks = hc.attacks @ [ a ] } in
      match s with
      | Churn { fraction; down_for } ->
        add
          (Harness.Crash_churn
             (Harness.Periodic { start = 5.0; period = 12.0; fraction; down_for; until = 80.0 }))
      | Loss p -> { hc with loss = p }
      | Dup p -> { hc with duplication = p }
      | Flood { flooders; rate } ->
        add
          (Harness.Flood
             { flooders; rate_per_s = rate; frame_bytes = 512; from_ = 2.0; until = 1_000.0 })
      | Corrupt p -> add (Harness.Corrupt { p; from_ = 0.0; until = 60.0 })
      | Equivocate f ->
        { (add Harness.Equivocate) with malicious_fraction = Float.max hc.malicious_fraction f }
      | Partition -> add (Harness.Partition { from_ = 4.0; until = 40.0 })
      | Bytes_wire -> { hc with wire = `Bytes }
      | Hostile_txs { rate; zipf } ->
        {
          hc with
          tx_rate_per_s = rate;
          tx_profile =
            Some
              {
                Harness.tx_zipf_s = zipf;
                tx_mix = Workload.hostile;
                tx_burst = None;
              };
        }
      | Undecidable f -> add (Harness.Undecidable { fraction = f; from_ = 5.0; until = 60.0 })
      | Adaptive f -> add (Harness.Adaptive_corrupt { fraction = f; from_ = 0.0; until = 120.0 }))
    base c.stressors

(* --------------------------- episodes ------------------------------ *)

type episode = {
  config : config;
  violation : string option;  (** invariant name, when one fired *)
  detail : string;
  fingerprint : string list;  (** Registry.fingerprint of the episode *)
  events : int;  (** engine events consumed - the budget currency *)
}

let has_family (c : config) (name : string) : bool =
  List.exists (fun s -> String.equal (family s) name) c.stressors

(* The paper's guarantees assume > 2/3 of the weight honest and
   online. Compositions that push the combined adversarial fraction
   (equivocators + adaptively-corrupted + simultaneously-crashed) past
   that envelope still run and still audit safety - agreement held in
   every episode we have seen beyond it - but an unfinished node there
   is the expected outcome, not a violation. Flooders are likewise
   excluded from the liveness audit, and the nodes a [Flood] chose are
   excluded from the convergence audit: peers ban them by design
   (section 8.4 gossip limits), and a banned node can neither finish
   nor catch up. Other banned nodes stay audited, so an honest node
   banned by mistake still shows up. *)
let faulty_fraction (c : config) : float =
  List.fold_left
    (fun acc s ->
      match s with
      | Equivocate f | Adaptive f -> acc +. f
      | Churn { fraction; _ } -> acc +. fraction
      | _ -> acc)
    0.0 c.stressors

let in_envelope (c : config) : bool = faulty_fraction c < 1.0 /. 3.0

(* Run one composition to quiescence and audit the full invariant set.
   The first violated invariant names the episode's verdict (the order
   here fixes which invariant a shrink preserves). *)
let run_episode (c : config) : episode =
  let r = Harness.run (to_harness c) in
  Harness.cleanup_stores r.harness;
  let fingerprint = Registry.fingerprint (Metrics.registry r.harness.metrics) in
  let ints l = String.concat "," (List.map string_of_int l) in
  let divergent =
    List.filter (fun i -> not (List.mem i r.harness.flooders)) r.churn.divergent_restarted
  in
  let violation, detail =
    if r.safety.double_final <> [] then
      (Some "agreement", Printf.sprintf "double-final rounds [%s]" (ints r.safety.double_final))
    else if not r.txs.conservation_ok then
      ( Some "conservation",
        Printf.sprintf "money supply changed (%d txs committed)" r.txs.committed )
    else if in_envelope c && divergent <> [] then
      (Some "convergence", Printf.sprintf "divergent restarted nodes [%s]" (ints divergent))
    else if in_envelope c && (not (has_family c "flood")) && r.churn.unfinished <> [] then
      ( Some "liveness",
        Printf.sprintf "unfinished at quiescence: %s"
          (String.concat ","
             (List.map
                (fun i ->
                  let n = r.harness.nodes.(i) in
                  Printf.sprintf "n%d(status=%s round=%d tip=%d)" i
                    Algorand_core.Node.(status_to_string (status n))
                    (Algorand_core.Node.round n)
                    (Algorand_ledger.Chain.tip
                       (Algorand_core.Node.chain n))
                      .height)
                r.churn.unfinished)) )
    else if
      has_family c "bytes"
      && (not (has_family c "flood"))
      && (not (has_family c "corrupt"))
      && r.wire.decode_failures > 0
    then
      ( Some "decode",
        Printf.sprintf "%d decode failures on a clean bytes wire" r.wire.decode_failures )
    else (None, "")
  in
  { config = c; violation; detail; fingerprint; events = r.events }

(* ----------------------------- mutator ----------------------------- *)

(* Fixed parameter palettes: small enough that "%g" round-trips every
   value, hot enough that compositions stay inside the protocol's
   tolerated envelope (equivocators < 1/3, partitions that heal). *)

let pick (rng : Rng.t) (a : 'a array) : 'a = a.(Rng.int rng (Array.length a))

let random_stressor (rng : Rng.t) (fam : int) : stressor =
  match fam with
  | 0 ->
    Churn
      {
        fraction = pick rng [| 0.1; 0.2 |];
        down_for = pick rng [| 8.0; 16.0 |];
      }
  | 1 -> Loss (pick rng [| 0.02; 0.05; 0.1 |])
  | 2 -> Dup (pick rng [| 0.05; 0.1 |])
  | 3 -> Flood { flooders = pick rng [| 0.1; 0.2 |]; rate = pick rng [| 50.0; 200.0 |] }
  | 4 -> Corrupt (pick rng [| 0.02; 0.05 |])
  | 5 -> Equivocate (pick rng [| 0.1; 0.2 |])
  | 6 -> Partition
  | 7 -> Bytes_wire
  | 8 ->
    Hostile_txs { rate = pick rng [| 2.0; 5.0 |]; zipf = pick rng [| 0.0; 1.1 |] }
  | 9 -> Undecidable (pick rng [| 0.15; 0.25 |])
  | _ -> Adaptive (pick rng [| 0.1; 0.2 |])

let fresh_config (rng : Rng.t) : config =
  let users = 8 + Rng.int rng 7 in
  let rounds = 3 + Rng.int rng 2 in
  let k = 1 + Rng.int rng 6 in
  let fams = Rng.sample_indices rng ~n:n_families ~k in
  {
    seed = Rng.int rng 1_000_000;
    users;
    rounds;
    stressors = List.map (random_stressor rng) fams;
  }

(* Mutate a corpus entry: one structural or parametric change, so the
   swarm walks outward from compositions that reached novel coverage. *)
let mutate (rng : Rng.t) (c : config) : config =
  match Rng.int rng 5 with
  | 0 ->
    (* add a stressor from a family not yet present *)
    let present = List.map family c.stressors in
    let missing =
      List.filter
        (fun f -> not (List.mem family_name.(f) present))
        (List.init n_families Fun.id)
    in
    (match missing with
    | [] -> { c with seed = Rng.int rng 1_000_000 }
    | ms ->
      let fam = List.nth ms (Rng.int rng (List.length ms)) in
      { c with stressors = c.stressors @ [ random_stressor rng fam ] })
  | 1 when List.length c.stressors > 1 ->
    (* drop one *)
    let i = Rng.int rng (List.length c.stressors) in
    { c with stressors = List.filteri (fun j _ -> j <> i) c.stressors }
  | 2 ->
    (* redraw one stressor's parameters within its family *)
    (match c.stressors with
    | [] -> { c with seed = Rng.int rng 1_000_000 }
    | ss ->
      let i = Rng.int rng (List.length ss) in
      {
        c with
        stressors =
          List.mapi
            (fun j s -> if j = i then random_stressor rng (family_index s) else s)
            ss;
      })
  | 3 ->
    { c with users = 8 + Rng.int rng 7; rounds = 3 + Rng.int rng 2 }
  | _ -> { c with seed = Rng.int rng 1_000_000 }

(* --------------------------- shrinking ----------------------------- *)

(* Minimize a violating composition: greedy 1-minimal deletion over the
   stressor list (the model checker's own Shrink.minimize_seq, with
   "still violates the same invariant" as the oracle), then parameter
   shrinking toward the smallest deployment. Fully deterministic:
   episodes are pure functions of their config. *)
let shrink (c : config) ~(invariant : string) : config =
  let violates c' =
    match (run_episode c').violation with
    | Some v -> String.equal v invariant
    | None -> false
  in
  let stressors =
    Shrink.minimize_seq
      ~keep:(fun ss -> violates { c with stressors = ss })
      c.stressors
  in
  let c = { c with stressors } in
  let c = if c.rounds > 3 && violates { c with rounds = 3 } then { c with rounds = 3 } else c in
  let c = if c.users > 8 && violates { c with users = 8 } then { c with users = 8 } else c in
  c

let reproducer (c : config) ~(invariant : string) : string =
  Printf.sprintf "REPRODUCE: algorand-check swarm --replay '%s'  # invariant=%s"
    (to_string c) invariant

(* ---------------------------- the swarm ---------------------------- *)

(* Budget currency: simulated engine events, not wall clock, so a
   (budget, stream) pair is deterministic. The constant approximates
   events this machine class grinds per second at swarm deployment
   sizes; --budget-sec therefore lands in the right wall-clock ballpark
   while staying bit-reproducible. *)
let events_per_sec = 100_000

type corpus_entry = {
  entry_config : config;
  coverage : string;  (** digest of the episode's full fingerprint *)
  novel : int;  (** fingerprint items first exercised by this episode *)
}

type report = {
  episodes : int;
  total_events : int;
  corpus : corpus_entry list;  (** in discovery order *)
  found : (config * string * string) list;
      (** minimized (config, invariant, detail) per violation *)
  max_families : int;  (** most stressor families composed in one episode *)
  coverage_items : int;  (** distinct fingerprint items exercised *)
}

let coverage_digest (fp : string list) : string =
  String.sub (Sha256.digest_hex (String.concat ";" fp)) 0 16

(* The corpus digest the CI determinism check compares across runs:
   covers every corpus entry's config and coverage, in order. *)
let corpus_digest (r : report) : string =
  Sha256.digest_hex
    (String.concat "\n"
       (List.map
          (fun e -> to_string e.entry_config ^ "#" ^ e.coverage)
          r.corpus))

let run ?(log : string -> unit = ignore) ~(budget_sec : int)
    ~(seed_stream : int) () : report =
  let rng = Rng.create (0x5a2a + (seed_stream * 7919)) in
  let budget = budget_sec * events_per_sec in
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let corpus = ref [] in
  let corpus_n = ref 0 in
  let found = ref [] in
  let episodes = ref 0 in
  let total = ref 0 in
  let max_fams = ref 0 in
  while !total < budget do
    let c =
      if !corpus_n > 0 && Rng.bool rng then
        mutate rng (List.nth !corpus (Rng.int rng !corpus_n)).entry_config
      else fresh_config rng
    in
    let e = run_episode c in
    incr episodes;
    total := !total + max 1_000 e.events;
    max_fams := max !max_fams (families c.stressors);
    let novel =
      List.filter (fun item -> not (Hashtbl.mem seen item)) e.fingerprint
    in
    List.iter (fun item -> Hashtbl.replace seen item ()) novel;
    if novel <> [] then begin
      corpus :=
        !corpus
        @ [
            {
              entry_config = c;
              coverage = coverage_digest e.fingerprint;
              novel = List.length novel;
            };
          ];
      incr corpus_n
    end;
    log
      (Printf.sprintf "ep=%d cfg='%s' fams=%d events=%d cov+=%d %s" !episodes
         (to_string c)
         (families c.stressors)
         e.events (List.length novel)
         (match e.violation with
         | None -> "verdict=ok"
         | Some v -> Printf.sprintf "verdict=VIOLATION:%s" v));
    match e.violation with
    | None -> ()
    | Some invariant ->
      log (Printf.sprintf "shrinking %s violation: %s" invariant e.detail);
      let min_c = shrink c ~invariant in
      let min_e = run_episode min_c in
      let detail =
        match min_e.violation with Some _ -> min_e.detail | None -> e.detail
      in
      found := !found @ [ (min_c, invariant, detail) ];
      log (reproducer min_c ~invariant)
  done;
  {
    episodes = !episodes;
    total_events = !total;
    corpus = !corpus;
    found = !found;
    max_families = !max_fams;
    coverage_items = Hashtbl.length seen;
  }
