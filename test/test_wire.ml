(* Hostile-wire hardening: bytes-on-the-wire equivalence, the codec
   vector corpus, the mutation fuzzer, on-path corruption, flood
   defense, and the cache-poisoning regressions.

   The threat model (paper section 3 plus ordinary internet reality):
   the attacker controls bytes in flight and can run flooding peers,
   but cannot forge signatures. Consensus must not notice - safety
   always, liveness within a constant factor. *)

open Algorand_crypto
module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Codec = Algorand_core.Codec
module Message = Algorand_core.Message
module Identity = Algorand_core.Identity
module Params = Algorand_ba.Params
module Vote = Algorand_ba.Vote
module Block = Algorand_ledger.Block
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Rng = Algorand_sim.Rng
module Gossip = Algorand_netsim.Gossip
module Wirefuzz = Algorand_check.Wirefuzz

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let fast_params =
  {
    Params.paper with
    lambda_priority = 1.0;
    lambda_stepvar = 1.0;
    lambda_block = 10.0;
    lambda_step = 5.0;
    max_steps = 8;
  }

let base ~seed ~users ~rounds =
  {
    Harness.default with
    users;
    rounds;
    params = fast_params;
    block_bytes = 10_000;
    tx_rate_per_s = 1.0;
    max_sim_time = 2_000.0;
    rng_seed = seed;
  }

(* ------------------- committed vector corpus ---------------------- *)

(* The vectors live in test/vectors/codec (dune copies them into the
   sandbox): every valid frame must decode and re-encode to identical
   bytes (the codec is canonical); every bad frame must be rejected. *)
let vectors_dir sub =
  (* The executable sits next to the copied-in vectors tree in _build,
     which holds regardless of the caller's working directory. *)
  let roots =
    [
      Filename.concat (Filename.dirname Sys.executable_name) "vectors";
      "vectors";
      Filename.concat "test" "vectors";
    ]
  in
  let usable r = try Sys.is_directory (Filename.concat r "codec") with Sys_error _ -> false in
  let root =
    try List.find usable roots
    with Not_found -> Alcotest.failf "vector corpus not found near %s" Sys.executable_name
  in
  Filename.concat (Filename.concat root "codec") sub

let read_vector path =
  let ic = open_in path in
  let hex = try input_line ic with End_of_file -> "" in
  close_in ic;
  Hex.to_string (String.trim hex)

let vector_files sub =
  let dir = vectors_dir sub in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".hex")
  |> List.sort compare
  |> List.map (fun f -> (f, read_vector (Filename.concat dir f)))

let valid_vectors () =
  let vs = vector_files "valid" in
  Alcotest.(check bool) "corpus present" true (List.length vs >= 10);
  List.iter
    (fun (name, frame) ->
      match Codec.decode frame with
      | None -> Alcotest.failf "%s: valid vector did not decode" name
      | Some m ->
        Alcotest.(check string)
          (name ^ ": canonical re-encode")
          (Hex.of_string frame)
          (Hex.of_string (Codec.encode m)))
    vs

let bad_vectors () =
  let vs = vector_files "bad" in
  Alcotest.(check bool) "corpus present" true (List.length vs >= 8);
  List.iter
    (fun (name, frame) ->
      match Codec.decode frame with
      | None -> ()
      | Some _ -> Alcotest.failf "%s: known-bad vector decoded" name)
    vs

(* --------------------------- fuzzer -------------------------------- *)

let fuzz_10k () =
  let report = Wirefuzz.run ~seed:7 ~mutations:10_000 () in
  List.iter
    (fun (f : Wirefuzz.failure) ->
      Printf.printf "FAIL via %s: %s\n  %s\n" f.mutation f.reason f.frame_hex)
    report.failures;
  Alcotest.(check int) "no oracle failures" 0 (List.length report.failures);
  Alcotest.(check int) "all mutants accounted for" report.mutations
    (report.rejected + report.decoded);
  (* The mutators must actually reach both outcomes, or the run tested
     nothing. *)
  Alcotest.(check bool) "some mutants rejected" true (report.rejected > 1000);
  Alcotest.(check bool) "some mutants survive" true (report.decoded > 100)

let fuzz_deterministic () =
  let a = Wirefuzz.run ~seed:11 ~mutations:1_000 () in
  let b = Wirefuzz.run ~seed:11 ~mutations:1_000 () in
  Alcotest.(check int) "rejected equal" a.rejected b.rejected;
  Alcotest.(check int) "decoded equal" a.decoded b.decoded

(* -------------------- typed/bytes equivalence ---------------------- *)

(* The same deployment, same seed, in both wire modes: because the
   bandwidth model is driven by the same declared sizes and every
   honest frame decodes to the value that was encoded, the two runs
   must agree on every chain. This is the strongest cheap check that
   the codec loses nothing consensus reads. *)
let tips (r : Harness.result) =
  Array.to_list r.harness.nodes
  |> List.map (fun n -> Hex.of_string (Chain.tip (Node.chain n)).hash)

let typed_bytes_equivalent () =
  let run wire = Harness.run { (base ~seed:33 ~users:10 ~rounds:3) with wire } in
  let rt = run `Typed and rb = run `Bytes in
  Alcotest.(check (list string)) "identical tips" (tips rt) (tips rb);
  Alcotest.(check int) "identical final rounds" rt.final_rounds rb.final_rounds;
  Alcotest.(check (float 1e-9)) "identical sim time" rt.sim_time rb.sim_time;
  Alcotest.(check int) "clean wire: no decode failures" 0 rb.wire.decode_failures

(* ---------------------- on-path corruption ------------------------- *)

let corruption_survived () =
  (* 10% of frames mangled for the first minute: consensus must hold
     (relays re-request what they lose; the vote threshold absorbs the
     rest) and every mangled frame must land in the decode-fail
     counter, not in a crash. *)
  let r =
    Harness.run
      {
        (base ~seed:44 ~users:10 ~rounds:3) with
        wire = `Bytes;
        attacks = [ Harness.Corrupt { p = 0.1; from_ = 0.0; until = 60.0 } ];
      }
  in
  Alcotest.(check (list int)) "no double finals" [] r.safety.double_final;
  Alcotest.(check bool)
    (Printf.sprintf "corruption reached decoders (%d)" r.wire.decode_failures)
    true (r.wire.decode_failures > 0);
  Alcotest.(check bool) "all rounds still complete" true (r.final_rounds >= 1)

(* ------------------------- flood defense --------------------------- *)

let flood_contained () =
  (* One flooder pumping 200 garbage frames/s from t=2: honest nodes
     must ban it, consensus must finish every round, and completion
     latency must stay within 2x the no-attack baseline. *)
  (* 20 users so the banned flooder's stake (5%) is well below any
     committee threshold margin - the paper's honest-majority setting. *)
  let no_attack = Harness.run { (base ~seed:55 ~users:20 ~rounds:3) with wire = `Bytes } in
  let flooded =
    Harness.run
      {
        (base ~seed:55 ~users:20 ~rounds:3) with
        wire = `Bytes;
        attacks =
          [
            Harness.Flood
              {
                flooders = 0.05;
                rate_per_s = 200.0;
                frame_bytes = 512;
                from_ = 2.0;
                until = 1_000.0;
              };
          ];
      }
  in
  Alcotest.(check (list int)) "no double finals" [] flooded.safety.double_final;
  Alcotest.(check bool)
    (Printf.sprintf "flooder banned (%d links, nodes %s)" flooded.wire.banned_links
       (String.concat "," (List.map string_of_int flooded.wire.banned_nodes)))
    true
    (flooded.wire.banned_links >= 1 && flooded.wire.banned_nodes <> []);
  Alcotest.(check bool)
    (Printf.sprintf "garbage counted (%d decode failures, %d quota drops)"
       flooded.wire.decode_failures flooded.wire.quota_drops)
    true
    (flooded.wire.decode_failures > 0);
  Alcotest.(check int) "all rounds complete" no_attack.final_rounds flooded.final_rounds;
  (* Worst honest completion (max across users ~ p99 at this scale)
     must stay within 2x the undisturbed baseline. *)
  let worst (r : Harness.result) = r.completion.max in
  Alcotest.(check bool)
    (Printf.sprintf "honest worst-case %.2fs within 2x baseline %.2fs"
       (worst flooded) (worst no_attack))
    true
    (worst flooded <= 2.0 *. worst no_attack)

let quota_drops_engage () =
  (* Per-peer quotas tight enough that even honest bursts trip them:
     the run must still complete (drops degrade, never deadlock). *)
  let r =
    Harness.run
      {
        (base ~seed:66 ~users:8 ~rounds:2) with
        wire = `Bytes;
        gossip_limits =
          Some { Gossip.default_limits with quota_msgs = 40; quota_window_s = 1.0 };
      }
  in
  Alcotest.(check (list int)) "no double finals" [] r.safety.double_final;
  Alcotest.(check bool) "rounds complete under quota pressure" true (r.final_rounds >= 1)

(* -------------------- cache-poisoning regressions ------------------ *)

(* A corrupted vote variant (bad signature, same gossip id as the
   honest vote) must not poison any cache: the honest copy arriving
   later must still validate and relay. Drive Node.gossip_validate
   directly on a built deployment. *)
let poisoned_vote_then_honest () =
  let h = Harness.build (base ~seed:77 ~users:6 ~rounds:2) in
  Array.iter Node.start h.nodes;
  (* Run a moment so nodes enter round 1 and have vote contexts. *)
  ignore (Engine.run h.engine ~until:3.0 ());
  let node = h.nodes.(0) in
  let rs_round = Node.round node in
  (* Craft a committee vote the node will accept: at these early rounds
     the sortition seed is still seed_0 and the weights are the genesis
     allocation, so we can sign as any identity sortition selects. *)
  let prev_hash = (Chain.tip (Node.chain node)).hash in
  let vote =
    let rec find i =
      if i >= Array.length h.identities then None
      else begin
        let id = h.identities.(i) in
        match
          Vote.make ~signer:id.Identity.signer ~prover:id.Identity.prover
            ~pk:id.Identity.pk ~seed:h.genesis.seed0 ~tau:fast_params.tau_step
            ~w:1000 ~total_weight:(6 * 1000) ~round:rs_round ~step:(Vote.Bin 1)
            ~prev_hash ~value:(Sha256.digest "candidate")
        with
        | Some v -> Some v
        | None -> find (i + 1)
      end
    in
    find 0
  in
  match vote with
  | None -> Alcotest.skip ()
  | Some honest ->
    let corrupted = { honest with signature = "forged" } in
    (* The corrupted variant must be rejected... *)
    Alcotest.(check bool) "corrupted variant rejected" false
      (Node.gossip_validate node (Message.Ba_vote corrupted));
    (* ...and must not have poisoned the honest copy's validation. *)
    Alcotest.(check bool) "honest vote still accepted" true
      (Node.gossip_validate node (Message.Ba_vote honest))

(* Fixture of the validation-count tests: six users on one genesis,
   and a sim signature scheme that counts its checks per signed body. *)
type counted = {
  identities : Identity.t array;
  genesis : Genesis.t;
  config : Node.config;
  checks : (string, int) Hashtbl.t;
}

let counted_fixture ~(prefix : string) : counted =
  let sig_scheme, vrf_scheme = Harness.schemes Harness.Sim_crypto in
  let identities =
    Array.init 6 (fun i ->
        Identity.generate ~sig_scheme ~vrf_scheme ~seed:(Printf.sprintf "%s-%d" prefix i))
  in
  let genesis =
    Genesis.make (Array.to_list (Array.map (fun id -> (id.Identity.pk, 1_000)) identities))
  in
  let checks = Hashtbl.create 64 in
  let counting =
    {
      sig_scheme with
      verify =
        (fun ~pk ~msg ~signature ->
          Hashtbl.replace checks msg (1 + Option.value ~default:0 (Hashtbl.find_opt checks msg));
          sig_scheme.verify ~pk ~msg ~signature);
    }
  in
  let config =
    {
      Node.default_config with
      params = fast_params;
      sig_scheme = counting;
      vrf_scheme;
      block_target_bytes = 10_000;
      max_round = 2;
    }
  in
  { identities; genesis; config; checks }

let signature_checks (fx : counted) (v : Vote.t) : int =
  Option.value ~default:0 (Hashtbl.find_opt fx.checks (Vote.signed_body v))

(* A node that sends into the void, started at round 1, or at the
   round after [chain]'s tip when given one. *)
let quiet_node (fx : counted) ~engine ?verdicts ?chain (index : int) : Node.t =
  let node =
    Node.create ~index ~identity:fx.identities.(index) ~config:fx.config ~engine
      ~metrics:(Metrics.create ~users:(Array.length fx.identities) ())
      ?verdicts ~genesis:fx.genesis ()
  in
  Node.set_net node
    {
      net_broadcast = ignore;
      net_send_to = (fun ~dst:_ _ -> ());
      net_peers = (fun () -> []);
      net_mark_seen = ignore;
    };
  (match chain with
  | None -> Node.start node
  | Some c ->
    Node.adopt_chain node c;
    Node.start_from_tip node);
  node

(* A bin-1 vote for [round] on [prev_hash], signed by user [voter]. At
   these rounds the seed is still seed_0 and the weights are the
   genesis allocation; a user holding 1,000 of the 6,000 units misses a
   tau_step = 2,000 committee with probability (2/3)^1000, so every
   user is selected. *)
let bin1_vote (fx : counted) ~(voter : int) ~(round : int) ~(prev_hash : string) : Vote.t =
  let id = fx.identities.(voter) in
  match
    Vote.make ~signer:id.signer ~prover:id.prover ~pk:id.pk ~seed:fx.genesis.seed0
      ~tau:fast_params.tau_step ~w:1_000
      ~total_weight:(1_000 * Array.length fx.identities)
      ~round ~step:(Vote.Bin 1) ~prev_hash ~value:(Sha256.digest "candidate")
  with
  | Some v -> v
  | None -> Alcotest.fail "voter not selected for bin-1"

(* Validation runs once per vote content. Two separately decoded
   copies of one vote (equal content, distinct values), each through
   gossip_validate and then deliver, must cost the node one signature
   check: the cache must neither be missing nor keyed on physical
   identity. *)
let vote_verified_once_per_content () =
  let fx = counted_fixture ~prefix:"once" in
  let engine = Engine.create () in
  let node = quiet_node fx ~engine 0 in
  ignore (Engine.run engine ~until:1.0 ());
  let v =
    bin1_vote fx ~voter:1 ~round:(Node.round node) ~prev_hash:(Chain.tip (Node.chain node)).hash
  in
  let frame = Codec.encode (Message.Ba_vote v) in
  let decoded () =
    match Codec.decode frame with
    | Some (Message.Ba_vote v) -> v
    | _ -> Alcotest.fail "vote frame does not decode"
  in
  let first = decoded () and second = decoded () in
  Alcotest.(check bool) "copies are equal, distinct values" true (first = second && first != second);
  List.iter
    (fun copy ->
      Alcotest.(check bool) "copy accepted" true (Node.gossip_validate node (Message.Ba_vote copy));
      Node.deliver node ~src:1 (Message.Ba_vote copy);
      ignore (Engine.run engine ~until:(Engine.now engine +. 1.0) ()))
    [ first; second ];
  Alcotest.(check int) "signature checks of the vote" 1 (signature_checks fx v)

(* Nodes that share one verdict table validate a vote once between
   them: three listeners, each relaying and then delivering it, cost
   one signature check, not three. *)
let shared_verdicts_check_once () =
  let fx = counted_fixture ~prefix:"shared" in
  let engine = Engine.create () in
  let verdicts = Node.verdicts () in
  let nodes = List.init 3 (quiet_node fx ~engine ~verdicts) in
  ignore (Engine.run engine ~until:1.0 ());
  let v = bin1_vote fx ~voter:4 ~round:1 ~prev_hash:(Chain.tip (Node.chain (List.hd nodes))).hash in
  List.iter
    (fun node ->
      Alcotest.(check bool) "vote accepted" true (Node.gossip_validate node (Message.Ba_vote v));
      Node.deliver node ~src:4 (Message.Ba_vote v))
    nodes;
  ignore (Engine.run engine ~until:2.0 ());
  Alcotest.(check int) "signature checks of the vote" 1 (signature_checks fx v)

(* The table is keyed on the validation context as well as the vote:
   two nodes at round 2 on different round-1 blocks share a table, and
   a vote bound to the first tip counts at that node only, whichever
   node looks first after it. *)
let shared_verdicts_per_tip () =
  let fx = counted_fixture ~prefix:"tips" in
  let engine = Engine.create () in
  let verdicts = Node.verdicts () in
  let chain_with ~padding =
    let c = Chain.create fx.genesis in
    let b = { (Block.empty ~round:1 ~prev_hash:(Chain.tip c).hash) with padding } in
    match Chain.add c b with
    | Ok e ->
      Chain.set_tip c e.hash;
      c
    | Error _ -> Alcotest.fail "round-1 block rejected"
  in
  let on_a = quiet_node fx ~engine ~verdicts ~chain:(chain_with ~padding:0) 0 in
  let on_b = quiet_node fx ~engine ~verdicts ~chain:(chain_with ~padding:1) 1 in
  ignore (Engine.run engine ~until:1.0 ());
  let tip n = (Chain.tip (Node.chain n)).hash in
  Alcotest.(check bool) "tips differ" false (String.equal (tip on_a) (tip on_b));
  Alcotest.(check (pair int int)) "both at round 2" (2, 2) (Node.round on_a, Node.round on_b);
  let v = bin1_vote fx ~voter:4 ~round:2 ~prev_hash:(tip on_a) in
  let valid node = Node.gossip_validate node (Message.Ba_vote v) in
  Alcotest.(check bool) "valid on its own tip" true (valid on_a);
  Alcotest.(check bool) "zero on the other tip" false (valid on_b);
  Alcotest.(check bool) "still valid on its own tip" true (valid on_a);
  Alcotest.(check int) "one check per context" 2 (signature_checks fx v)

(* A corrupted variant (one signature byte flipped) is a different key
   in the shared table: it gets weight 0, and the honest copy keeps
   its weight whichever of the two the group sees first. *)
let shared_verdicts_corrupted_variant () =
  let flip (v : Vote.t) =
    let s = Bytes.of_string v.signature in
    Bytes.set s 0 (Char.chr (Char.code (Bytes.get s 0) lxor 1));
    { v with signature = Bytes.to_string s }
  in
  List.iter
    (fun honest_first ->
      let fx = counted_fixture ~prefix:"variant" in
      let engine = Engine.create () in
      let verdicts = Node.verdicts () in
      let nodes = Array.init 3 (quiet_node fx ~engine ~verdicts) in
      ignore (Engine.run engine ~until:1.0 ());
      let honest =
        bin1_vote fx ~voter:4 ~round:1 ~prev_hash:(Chain.tip (Node.chain nodes.(0))).hash
      in
      let corrupted = flip honest in
      let valid i v = Node.gossip_validate nodes.(i) (Message.Ba_vote v) in
      let label = if honest_first then "honest first" else "corrupted first" in
      if honest_first then Alcotest.(check bool) (label ^ ": honest") true (valid 0 honest);
      Alcotest.(check bool) (label ^ ": corrupted rejected") false (valid 1 corrupted);
      Alcotest.(check bool) (label ^ ": honest accepted") true (valid 2 honest);
      Alcotest.(check bool) (label ^ ": corrupted still rejected") false (valid 0 corrupted))
    [ true; false ]

(* Same attack against the future-round blind-relay path: a forged
   future vote must not be relayed (it would be marked seen and
   suppress the honest copy at every hop). *)
let future_vote_needs_signature () =
  let h = Harness.build (base ~seed:88 ~users:6 ~rounds:2) in
  Array.iter Node.start h.nodes;
  ignore (Engine.run h.engine ~until:3.0 ());
  let node = h.nodes.(0) in
  let id = h.identities.(1) in
  let future_round = Node.round node + 2 in
  let body : Vote.t =
    {
      round = future_round;
      step = Vote.Bin 1;
      voter_pk = id.Identity.pk;
      sorthash = Sha256.digest "sh";
      sortproof = "sp";
      prev_hash = Sha256.digest "ph";
      value = Sha256.digest "v";
      signature = "";
    }
  in
  let signed = { body with signature = id.Identity.signer.sign (Vote.signed_body body) } in
  let forged = { body with signature = "garbage" } in
  Alcotest.(check bool) "signed future vote relayed" true
    (Node.gossip_validate node (Message.Ba_vote signed));
  Alcotest.(check bool) "forged future vote dropped" false
    (Node.gossip_validate node (Message.Ba_vote forged));
  (* Hostile voter_pk shapes must not crash the check. *)
  Alcotest.(check bool) "short pk dropped, not crashed" false
    (Node.gossip_validate node (Message.Ba_vote { signed with voter_pk = "x" }))

let suite =
  [
    ( "wire",
      [
        t "valid vectors decode canonically" valid_vectors;
        t "bad vectors rejected" bad_vectors;
        ts "fuzzer: 10k mutations, zero failures" fuzz_10k;
        t "fuzzer deterministic per seed" fuzz_deterministic;
        ts "typed and bytes runs identical" typed_bytes_equivalent;
        ts "corruption survived and counted" corruption_survived;
        ts "flood contained: ban + bounded latency" flood_contained;
        ts "tight quotas degrade, not deadlock" quota_drops_engage;
        ts "vote cache immune to corrupted variant" poisoned_vote_then_honest;
        t "one signature check per vote content" vote_verified_once_per_content;
        t "shared verdicts: one check for many nodes" shared_verdicts_check_once;
        t "shared verdicts: keyed on the tip" shared_verdicts_per_tip;
        t "shared verdicts: corrupted variant" shared_verdicts_corrupted_variant;
        ts "future votes need a valid signature" future_vote_needs_signature;
      ] );
  ]
