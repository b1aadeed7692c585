(* The real-wire transport stack, bottom to top: length-prefixed frame
   reassembly under adversarial segmentation, the versioned handshake,
   the in-memory loopback backend, the gossip overlay functor running
   full consensus over a byte transport inside the simulator, and the
   TCP backend on real localhost sockets (handshake, mid-frame death,
   digest rejection, backpressure, reconnect, SIGTERM drain). *)

module Node = Algorand_core.Node
module Codec = Algorand_core.Codec
module Message = Algorand_core.Message
module Identity = Algorand_core.Identity
module Harness = Algorand_core.Harness
module Deployment = Algorand_core.Deployment
module Disk_store = Algorand_core.Disk_store
module History = Algorand_core.History
module Wire_gossip = Algorand_core.Wire_gossip
module Gossip = Algorand_netsim.Gossip
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Balances = Algorand_ledger.Balances
module Block = Algorand_ledger.Block
module Vote = Algorand_ba.Vote
module Params = Algorand_ba.Params
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Retry = Algorand_sim.Retry
module Rng = Algorand_sim.Rng
module Registry = Algorand_obs.Registry
module Frame = Algorand_transport.Frame
module Handshake = Algorand_transport.Handshake
module Transport = Algorand_transport.Transport
module Loopback = Algorand_transport.Loopback
module Tcp = Algorand_transport.Tcp_transport
module Wirefuzz = Algorand_check.Wirefuzz

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

(* ------------------------------ frames ----------------------------- *)

let payloads = [ "a"; String.make 300 'b'; ""; String.make 70_000 'c'; "tail" ]

let feed_all r segs =
  List.fold_left
    (fun acc seg ->
      match Frame.Reassembler.feed r seg with
      | Ok frames -> acc @ frames
      | Error e -> Alcotest.failf "framing error: %a" Frame.Reassembler.pp_error e)
    [] segs

let segmented_roundtrip () =
  let stream = String.concat "" (List.map Frame.encode payloads) in
  let n = String.length stream in
  let cut k =
    let rec go off acc =
      if off >= n then List.rev acc
      else begin
        let len = min k (n - off) in
        go (off + len) (String.sub stream off len :: acc)
      end
    in
    go 0 []
  in
  List.iter
    (fun (name, segs) ->
      let r = Frame.Reassembler.create ~max_frame_bytes:Frame.max_payload in
      Alcotest.(check (list string)) name payloads (feed_all r segs))
    [
      ("whole stream", [ stream ]);
      ("1-byte dribble", cut 1);
      ("3-byte chunks", cut 3);
      ("64k chunks", cut 65_536);
      (* Jitter: prime-sized chunks so cuts drift across header and
         payload boundaries alike. *)
      ("7-byte chunks", cut 7);
    ]

let oversized_poisons () =
  let r = Frame.Reassembler.create ~max_frame_bytes:100 in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 101l;
  (match Frame.Reassembler.feed r (Bytes.to_string b) with
  | Error (`Oversized 101) -> ()
  | Ok _ | Error _ -> Alcotest.fail "oversized declared length accepted");
  match Frame.Reassembler.feed r (Frame.encode "ok") with
  | Error `Closed -> ()
  | Ok _ | Error _ -> Alcotest.fail "reassembler not poisoned after error"

let fuzz_reassembly () =
  let report = Wirefuzz.reassembly_run ~seed:5 ~streams:400 () in
  List.iter
    (fun (f : Wirefuzz.failure) ->
      Printf.printf "FAIL via %s: %s (%d bytes)\n%s\n" f.mutation f.reason
        f.frame_len f.frame_hex)
    report.reassembly_failures;
  Alcotest.(check int) "no failures" 0 (List.length report.reassembly_failures);
  Alcotest.(check bool) "clean streams recovered" true (report.clean_streams > 0);
  Alcotest.(check bool) "poison path exercised" true (report.poisoned_streams > 0)

(* ----------------------------- handshake --------------------------- *)

let hello ?(digest = "digest-A") ?(pk = "pk-1") () : Handshake.hello =
  { version = Handshake.version; params_digest = digest; pk }

let handshake_roundtrip () =
  let check_rt msg =
    match Handshake.decode (Handshake.encode msg) with
    | Some m when m = msg -> ()
    | _ -> Alcotest.fail "handshake did not round-trip"
  in
  check_rt (Handshake.Hello (hello ()));
  check_rt (Handshake.Hello (hello ~digest:(String.make 64 'x') ~pk:(String.make 200 'k') ()));
  check_rt (Handshake.Reject (`Version 3));
  check_rt (Handshake.Reject `Params_digest);
  check_rt (Handshake.Reject `Banned);
  Alcotest.(check bool) "garbage rejected" true (Handshake.decode "nonsense" = None);
  Alcotest.(check bool) "empty rejected" true (Handshake.decode "" = None);
  let enc = Handshake.encode (Handshake.Hello (hello ())) in
  Alcotest.(check bool) "truncation rejected" true
    (Handshake.decode (String.sub enc 0 (String.length enc - 1)) = None);
  Alcotest.(check bool) "trailing bytes rejected" true (Handshake.decode (enc ^ "x") = None)

let handshake_check () =
  let ours = hello () in
  (match Handshake.check ~ours ~theirs:(hello ()) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "matching hello rejected");
  (match Handshake.check ~ours ~theirs:{ (hello ()) with version = 99 } with
  | Error (`Version v) when v = Handshake.version ->
    (* The reject carries the version WE speak, for the peer's log. *)
    ()
  | _ -> Alcotest.fail "version mismatch not flagged");
  match Handshake.check ~ours ~theirs:(hello ~digest:"digest-B" ()) with
  | Error `Params_digest -> ()
  | _ -> Alcotest.fail "params digest mismatch not flagged"

(* ----------------------------- loopback ---------------------------- *)

type ep = {
  tr : Loopback.t;
  hs : Transport.handlers;
  ups : (int * Handshake.hello) list ref;
  downs : (int * Transport.reason) list ref;
  frames : (int * string) list ref;
}

let endpoint ~hub ~addr ?registry ?(digest = "digest-A") () : ep =
  let hs = Transport.handlers () in
  let ups = ref [] and downs = ref [] and frames = ref [] in
  hs.on_peer_up <- (fun ~conn h -> ups := (conn, h) :: !ups);
  hs.on_peer_down <- (fun ~conn r -> downs := (conn, r) :: !downs);
  hs.on_frame <- (fun ~conn f -> frames := (conn, f) :: !frames);
  let tr = Loopback.create ~hub ~addr ~hello:(hello ~digest ~pk:addr ()) ?registry ~handlers:hs () in
  { tr; hs; ups; downs; frames }

let loopback_basic () =
  let engine = Engine.create () in
  let registry = Registry.create () in
  (* Byte-at-a-time dribble: every frame crosses the reassembler the
     hard way. *)
  let hub = Loopback.hub ~engine ~seg:(`Chunk 1) () in
  let a = endpoint ~hub ~addr:"A" ~registry () in
  let b = endpoint ~hub ~addr:"B" ~registry () in
  Loopback.connect a.tr "B";
  ignore (Engine.run engine ~until:1.0 ());
  Alcotest.(check int) "a up" 1 (List.length !(a.ups));
  Alcotest.(check int) "b up" 1 (List.length !(b.ups));
  let conn_a = List.hd (Loopback.conns a.tr) in
  Alcotest.(check (option string)) "dialer remembers the address" (Some "B")
    (Loopback.dialed_addr a.tr ~conn:conn_a);
  (match Loopback.peer a.tr ~conn:conn_a with
  | Some h -> Alcotest.(check string) "peer identity" "B" h.pk
  | None -> Alcotest.fail "no peer hello");
  Alcotest.(check bool) "send ok" true (Loopback.send a.tr ~conn:conn_a "ping" = `Ok);
  let conn_b = List.hd (Loopback.conns b.tr) in
  Alcotest.(check bool) "reply ok" true (Loopback.send b.tr ~conn:conn_b (String.make 5_000 'z') = `Ok);
  ignore (Engine.run engine ~until:2.0 ());
  Alcotest.(check (list string)) "b received" [ "ping" ] (List.map snd !(b.frames));
  Alcotest.(check (list string)) "a received" [ String.make 5_000 'z' ] (List.map snd !(a.frames));
  (* Satellite: the transport.* family is maintained. *)
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  Alcotest.(check bool) "bytes_sent counted" true (cnt "transport.bytes_sent" > 5_000);
  Alcotest.(check bool) "bytes_received counted" true (cnt "transport.bytes_received" > 5_000);
  (* 2 data frames + 2 handshake hellos, both endpoints on one registry. *)
  Alcotest.(check int) "frames counted" 4 (cnt "transport.frames_sent");
  Alcotest.(check int) "dials counted" 1 (cnt "transport.dials");
  Alcotest.(check int) "accepts counted" 1 (cnt "transport.accepts");
  Alcotest.(check bool) "write queue histogram observed" true
    (Registry.histogram_value registry "transport.write_queue_depth" <> None);
  (* Abrupt death: the peer observes Remote_closed, one latency later. *)
  Loopback.kill a.tr ~conn:conn_a;
  ignore (Engine.run engine ~until:3.0 ());
  (match !(b.downs) with
  | [ (c, Transport.Remote_closed) ] when c = conn_b -> ()
  | _ -> Alcotest.fail "peer did not observe Remote_closed");
  Alcotest.(check bool) "down counted" true (cnt "transport.peer_downs" >= 1)

let loopback_digest_reject () =
  let engine = Engine.create () in
  let registry = Registry.create () in
  let hub = Loopback.hub ~engine () in
  let a = endpoint ~hub ~addr:"A" ~registry ~digest:"digest-A" () in
  let b = endpoint ~hub ~addr:"B" ~registry ~digest:"digest-B" () in
  Loopback.connect a.tr "B";
  ignore (Engine.run engine ~until:1.0 ());
  Alcotest.(check int) "no peer up on a" 0 (List.length !(a.ups));
  Alcotest.(check int) "no peer up on b" 0 (List.length !(b.ups));
  (match !(a.downs) with
  | [ (_, Transport.Handshake_rejected `Params_digest) ] -> ()
  | _ -> Alcotest.fail "dialer was not told why it was rejected");
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  Alcotest.(check bool) "handshake failures counted" true
    (cnt "transport.handshake_failures" >= 1)

let loopback_garbage_handshake () =
  let engine = Engine.create () in
  let hub = Loopback.hub ~engine () in
  let a = endpoint ~hub ~addr:"A" () in
  let b = endpoint ~hub ~addr:"B" () in
  Loopback.connect a.tr "B";
  (* Race the handshake: replace the dialer's hello with framed
     garbage before it is processed. *)
  let conn_a = ref (-1) in
  (match Loopback.conns a.tr with
  | [] -> () (* handshake not yet up: the dial is in flight *)
  | c :: _ -> conn_a := c);
  ignore conn_a;
  ignore (Engine.run engine ~until:1.0 ());
  (* Connection is up; now inject raw bytes that cannot frame. *)
  let c = List.hd (Loopback.conns a.tr) in
  let bomb = Bytes.create 8 in
  Bytes.set_int32_be bomb 0 0x7FFFFFFFl;
  Loopback.inject a.tr ~conn:c (Bytes.to_string bomb);
  ignore (Engine.run engine ~until:2.0 ());
  match !(b.downs) with
  | [ (_, Transport.Framing_error) ] -> ()
  | _ -> Alcotest.fail "framing bomb did not close the connection"

(* ------------------- consensus over the loopback ------------------- *)

let fast_params =
  {
    Params.paper with
    lambda_priority = 1.0;
    lambda_stepvar = 1.0;
    lambda_block = 10.0;
    lambda_step = 5.0;
    max_steps = 8;
  }

(* Build a cluster from the harness's own deployment (same users,
   genesis, node config and RNG streams), but networked through
   Wire_gossip over the loopback byte transport instead of the
   simulated overlay. *)
module WGL = Wire_gossip.Make (Loopback)

let loopback_cluster ?crypto ?(config_of = fun _ c -> c) ?verdicts
    ?(deliver = fun _ node ~src msg -> Node.deliver node ~src msg) ~users ~rounds ~seed ~seg ()
    =
  let engine = Engine.create () in
  let registry = Registry.create () in
  let deployment =
    Deployment.make ?crypto ~seed ~users ~params:fast_params ~block_bytes:10_000 ~rounds ()
  in
  let identities, genesis = Deployment.roster deployment in
  let rng = Rng.create seed in
  let hub = Loopback.hub ~engine ~latency:0.01 ~seg ~rng:(Rng.split rng "seg") () in
  let metrics = Metrics.create ~registry ~users () in
  let digest = Deployment.hello_digest deployment genesis in
  let config = { (Deployment.node_config deployment) with deterministic_ts = true } in
  let nodes_and_overlays =
    Array.init users (fun i ->
        let handlers = Transport.handlers () in
        let tr =
          Loopback.create ~hub ~addr:(string_of_int i)
            ~hello:{ version = Handshake.version; params_digest = digest; pk = identities.(i).Identity.pk }
            ~registry ~handlers ()
        in
        let node =
          Node.create ~index:i ~identity:identities.(i) ~config:(config_of i config) ~engine
            ~metrics ~rng:(Deployment.node_rng rng i)
            ?verdicts:(Option.map (fun v -> v.(i)) verdicts)
            ~genesis ()
        in
        let wg =
          WGL.create ~engine ~transport:tr ~handlers ~self:i
            ~roster:(Array.map (fun id -> id.Identity.pk) identities)
            ~limits:(Codec.limits_of_params ~block_bytes:10_000 fast_params)
            ~fanout:2
            ~rng:(Rng.split rng (Printf.sprintf "wire-%d" i))
            ~registry ()
        in
        WGL.install wg
          ~validate:(fun msg -> Node.gossip_validate node msg)
          ~deliver:(fun ~src msg -> deliver i node ~src msg);
        Node.set_net node (WGL.as_net wg);
        (node, wg, tr))
  in
  (* Full mesh, higher index dials lower. *)
  Array.iteri
    (fun i (_, wg, _) ->
      for j = 0 to i - 1 do
        WGL.dial wg ~index:j ~addr:(string_of_int j)
      done)
    nodes_and_overlays;
  ignore (Engine.run engine ~until:1.0 ());
  Array.iter (fun (node, _, _) -> Node.start node) nodes_and_overlays;
  ignore (Engine.run engine ~until:2_000.0 ());
  (registry, nodes_and_overlays)

let hashes_of node ~rounds =
  let chain = Node.chain node in
  let tip = Chain.tip chain in
  List.filter_map
    (fun r ->
      Option.map
        (fun (e : Chain.entry) -> e.hash)
        (Chain.ancestor_at chain ~hash:tip.Chain.hash ~height:r))
    (List.init (min rounds tip.Chain.height) (fun k -> k + 1))

(* Every quoted "gossip.*" name in the overlays' interface docs. *)
let documented_gossip_names () =
  List.concat_map
    (fun file ->
      In_channel.with_open_bin file In_channel.input_all
      |> String.split_on_char '"'
      |> List.filter (fun w ->
             String.starts_with ~prefix:"gossip." w
             && String.for_all
                  (fun c -> c = '_' || c = '.' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
                  w))
    (List.map
       (Filename.concat (Filename.dirname Sys.executable_name))
       [ "../lib/netsim/ingress.mli"; "../lib/netsim/gossip.mli" ])
  |> List.sort_uniq compare

(* The in-sim wire leg of the determinism triple: the same seed and
   params produce the same ledger whether messages cross the simulated
   overlay as typed values or a byte transport as framed, segmented,
   reassembled, codec-decoded streams. Both overlays also register the
   same documented gossip.* family; only the simulated one keeps the
   ingress-queue histogram. *)
let consensus_over_loopback () =
  let users = 4 and rounds = 3 and seed = 21 in
  let wire_registry, cluster = loopback_cluster ~users ~rounds ~seed ~seg:(`Chunk 7) () in
  let wire_hashes = hashes_of (let n, _, _ = cluster.(0) in n) ~rounds in
  Alcotest.(check int) "wire cluster completed" rounds (List.length wire_hashes);
  Array.iteri
    (fun i (node, _, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d agrees" i)
        true
        (hashes_of node ~rounds = wire_hashes))
    cluster;
  let sim =
    Harness.run
      {
        Harness.default with
        users;
        rounds;
        rng_seed = seed;
        params = fast_params;
        block_bytes = 10_000;
        tx_rate_per_s = 0.0;
        deterministic_ts = true;
      }
  in
  Expect.no_violations ~ctx:"sim" sim;
  let sim_hashes = hashes_of sim.Harness.harness.Harness.nodes.(0) ~rounds in
  Alcotest.(check bool) "sim and wire ledgers identical" true (sim_hashes = wire_hashes);
  let gossip_names reg =
    List.filter (String.starts_with ~prefix:"gossip.") (Registry.names reg)
  in
  let queue = "gossip.ingress_queue_depth" in
  let sim_names = gossip_names (Metrics.registry sim.Harness.harness.Harness.metrics) in
  Alcotest.(check (list string)) "wire registers the sim's gossip.* family minus the queue"
    (List.filter (( <> ) queue) sim_names) (gossip_names wire_registry);
  let documented = documented_gossip_names () in
  Alcotest.(check bool) "documented names found" true (List.length documented >= 10);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " documented and registered") true (List.mem name sim_names))
    documented

(* Segmentation must be invisible: dribble and random splits give the
   same ledger as whole-frame delivery. *)
let consensus_segmentation_invariant () =
  let users = 4 and rounds = 2 and seed = 33 in
  let run seg =
    let _, cluster = loopback_cluster ~users ~rounds ~seed ~seg () in
    hashes_of (let n, _, _ = cluster.(0) in n) ~rounds
  in
  let whole = run `Whole in
  Alcotest.(check int) "completed" rounds (List.length whole);
  Alcotest.(check bool) "dribble identical" true (run (`Chunk 1) = whole);
  Alcotest.(check bool) "random splits identical" true (run `Random = whole)

(* One node's crypto checks: the signing keys it verified under, and
   its VRF verifications as (pk, input, proof, accepted), latest
   first. *)
type crypto_log = {
  sig_pks : string list ref;
  vrf_checks : (string * string * string * bool) list ref;
}

(* A two-round real-crypto loopback run with counting schemes in every
   node's config, checking the crypto a node skips: no node verifies a
   signature under its own key or its own VRF proof; the weight a node
   enters for its own vote is the weight [Vote.validate] gives it; a
   node checks each proposer credential (pk, input, proof) at most
   once; and node 0, handed a copy of every block it receives with a
   byte-flipped proposer proof just before the honest one, rejects the
   copy on a full check although it already accepted the proposer's
   honest priority. *)
let realcrypto_skips_redundant_checks () =
  let users = 4 and rounds = 2 and seed = 29 in
  let sig_scheme, vrf_scheme = Deployment.schemes Deployment.Real_crypto in
  let logs = Array.init users (fun _ -> { sig_pks = ref []; vrf_checks = ref [] }) in
  let config_of i (c : Node.config) =
    let log = logs.(i) in
    let verify_sig ~pk ~msg ~signature =
      log.sig_pks := pk :: !(log.sig_pks);
      sig_scheme.verify ~pk ~msg ~signature
    in
    let verify_vrf ~pk ~input ~proof =
      let r = vrf_scheme.verify ~pk ~input ~proof in
      log.vrf_checks := (pk, input, proof, r <> None) :: !(log.vrf_checks);
      r
    in
    {
      c with
      sig_scheme = { sig_scheme with verify = verify_sig };
      vrf_scheme = { vrf_scheme with verify = verify_vrf };
    }
  in
  (* (round, proposer pk, honest proof, flipped proof) of each tampered
     copy. *)
  let tampered = ref [] in
  let deliver i node ~src (msg : Message.t) =
    (match msg with
    | Message.Block_gossip b when i = 0 ->
      let h = b.header in
      let flipped =
        String.mapi
          (fun k c -> if k = 40 then Char.chr (Char.code c lxor 1) else c)
          h.proposer_vrf_proof
      in
      tampered := (h.round, h.proposer_pk, h.proposer_vrf_proof, flipped) :: !tampered;
      Node.deliver node ~src
        (Message.Block_gossip { b with header = { h with proposer_vrf_proof = flipped } })
    | _ -> ());
    Node.deliver node ~src msg
  in
  let verdicts = Array.init users (fun _ -> Node.verdicts ()) in
  let _, cluster =
    loopback_cluster ~crypto:Deployment.Real_crypto ~config_of ~verdicts ~deliver ~users
      ~rounds ~seed ~seg:`Random ()
  in
  let nodes = Array.map (fun (n, _, _) -> n) cluster in
  let chain = Node.chain nodes.(0) in
  let hashes = hashes_of nodes.(0) ~rounds in
  Alcotest.(check int) "both rounds completed" rounds (List.length hashes);
  Array.iter
    (fun n -> Alcotest.(check bool) "nodes agree" true (hashes_of n ~rounds = hashes))
    nodes;
  let genesis = Chain.genesis_entry chain in
  let prev_hash_of round = if round = 1 then genesis.hash else List.nth hashes (round - 2) in
  let proposer_input round =
    Algorand_sortition.Sortition.vrf_input ~seed:genesis.seed
      ~role:(Vote.proposer_role ~round)
  in
  (* Weights as [Vote.validate] gives them: rounds 1 and 2 draw
     committees from the genesis seed and stakes. *)
  let validate (v : Vote.t) =
    Vote.validate
      {
        sig_scheme;
        vrf_scheme;
        sig_pk_of = Identity.sig_pk;
        vrf_pk_of = Identity.vrf_pk;
        seed = genesis.seed;
        total_weight = Balances.total genesis.balances_after;
        weight_of = Balances.balance genesis.balances_after;
        last_block_hash = prev_hash_of v.round;
        tau_of_step = (function Vote.Final -> fast_params.tau_final | _ -> fast_params.tau_step);
      }
      v
  in
  Array.iteri
    (fun i node ->
      let pk = Node.pk node and log = logs.(i) in
      Alcotest.(check bool) "signatures checked" true (!(log.sig_pks) <> []);
      Alcotest.(check bool)
        (Printf.sprintf "node %d never verifies a signature under its own key" i)
        false
        (List.mem (Identity.sig_pk pk) !(log.sig_pks));
      Alcotest.(check bool)
        (Printf.sprintf "node %d never verifies its own VRF proof" i)
        false
        (List.exists (fun (vpk, _, _, _) -> String.equal vpk (Identity.vrf_pk pk)) !(log.vrf_checks));
      let own =
        List.filter (fun ((v : Vote.t), _) -> String.equal v.voter_pk pk)
          (Node.verdict_weights verdicts.(i))
      in
      Alcotest.(check bool) (Printf.sprintf "node %d entered its own votes" i) true (own <> []);
      List.iter
        (fun ((v : Vote.t), w) ->
          Alcotest.(check int)
            (Printf.sprintf "node %d own %s vote weight" i (Vote.step_to_string v.step))
            (validate v) w)
        own;
      let proposer_checks =
        List.filter
          (fun (_, input, _, _) ->
            List.exists (fun r -> String.equal input (proposer_input r)) [ 1; 2 ])
          !(log.vrf_checks)
      in
      Alcotest.(check bool) "proposer credentials checked" true (proposer_checks <> []);
      List.iter
        (fun (vpk, input, proof, _) ->
          Alcotest.(check int)
            (Printf.sprintf "node %d checks a proposer credential once" i)
            1
            (List.length
               (List.filter
                  (fun (vpk', input', proof', _) ->
                    String.equal vpk vpk' && String.equal input input'
                    && String.equal proof proof')
                  proposer_checks)))
        proposer_checks)
    nodes;
  (* Node 0, oldest check first. *)
  Alcotest.(check bool) "blocks tampered" true (!tampered <> []);
  let checks = List.rev !(logs.(0).vrf_checks) in
  let rec position k pred = function
    | [] -> None
    | c :: rest -> if pred c then Some (k, c) else position (k + 1) pred rest
  in
  List.iter
    (fun (round, proposer, honest, flipped) ->
      let at proof =
        position 0
          (fun (vpk, input, p, _) ->
            String.equal vpk (Identity.vrf_pk proposer)
            && String.equal input (proposer_input round)
            && String.equal p proof)
          checks
      in
      match (at honest, at flipped) with
      | Some (k_honest, (_, _, _, ok_honest)), Some (k_flipped, (_, _, _, ok_flipped)) ->
        Alcotest.(check bool) "honest priority accepted" true ok_honest;
        Alcotest.(check bool) "before the tampered block" true (k_honest < k_flipped);
        Alcotest.(check bool) "tampered proof fully checked and rejected" false ok_flipped
      | _ -> Alcotest.fail "node 0 must check both the honest and the flipped proof")
    !tampered;
  (* Had node 0 accepted a tampered copy of the best proposer's block,
     it would have seen two of its blocks and voted for the empty one. *)
  List.iter
    (fun ((v : Vote.t), _) ->
      if String.equal v.voter_pk (Node.pk nodes.(0)) && v.step = Vote.Reduction_one then
        Alcotest.(check string) "node 0 votes the agreed block" (List.nth hashes (v.round - 1))
          v.value)
    (Node.verdict_weights verdicts.(0))

(* Kill a live link: the overlay's Retry-driven redial must bring the
   mesh back without outside help. *)
let loopback_redial () =
  let engine = Engine.create () in
  let registry = Registry.create () in
  let hub = Loopback.hub ~engine () in
  let mk addr =
    let handlers = Transport.handlers () in
    let tr = Loopback.create ~hub ~addr ~hello:(hello ~pk:addr ()) ~registry ~handlers () in
    (tr, handlers)
  in
  let tr_a, hs_a = mk "pk-0" in
  let tr_b, hs_b = mk "pk-1" in
  let rng = Rng.create 5 in
  let wg_a =
    WGL.create ~engine ~transport:tr_a ~handlers:hs_a ~self:0 ~roster:[| "pk-0"; "pk-1" |]
      ~limits:Codec.default_limits ~rng:(Rng.split rng "a") ~registry ()
  in
  let wg_b =
    WGL.create ~engine ~transport:tr_b ~handlers:hs_b ~self:1 ~roster:[| "pk-0"; "pk-1" |]
      ~limits:Codec.default_limits ~rng:(Rng.split rng "b") ~registry ()
  in
  WGL.dial wg_a ~index:1 ~addr:"pk-1";
  ignore (Engine.run engine ~until:1.0 ());
  Alcotest.(check (list int)) "a connected" [ 1 ] (WGL.connected wg_a);
  Alcotest.(check (list int)) "b connected" [ 0 ] (WGL.connected wg_b);
  Loopback.kill tr_a ~conn:(List.hd (Loopback.conns tr_a));
  (* Retry's attempt 0 fires synchronously on the peer-down, so the
     redial may already be in flight; just let it land. *)
  ignore (Engine.run engine ~until:60.0 ());
  Alcotest.(check (list int)) "a redialed" [ 1 ] (WGL.connected wg_a);
  Alcotest.(check (list int)) "b accepted the redial" [ 0 ] (WGL.connected wg_b);
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  Alcotest.(check bool) "reconnects counted" true (cnt "transport.reconnects" >= 1)

(* Two flood-defended overlays, each with its own registry; B dials A.
   B's transport is returned so a test can write frames onto the link
   directly, bypassing B's overlay: a roster peer gone hostile. *)
let flood_pair () =
  let engine = Engine.create () in
  let hub = Loopback.hub ~engine () in
  let roster = [| "pk-0"; "pk-1" |] in
  let rng = Rng.create 9 in
  let mk i =
    let registry = Registry.create () in
    let handlers = Transport.handlers () in
    let tr =
      Loopback.create ~hub ~addr:roster.(i) ~hello:(hello ~pk:roster.(i) ()) ~registry ~handlers ()
    in
    let wg =
      WGL.create ~engine ~transport:tr ~handlers ~self:i ~roster ~limits:Codec.default_limits
        ~flood:Gossip.default_limits ~rng:(Rng.split rng roster.(i)) ~registry ()
    in
    (tr, handlers, wg, registry)
  in
  let a = mk 0 and b = mk 1 in
  let _, _, wg_b, _ = b in
  WGL.dial wg_b ~index:0 ~addr:"pk-0";
  ignore (Engine.run engine ~until:1.0 ());
  (engine, a, b)

let raw_send tr frames =
  let conn = List.hd (Loopback.conns tr) in
  List.iter (fun f -> ignore (Loopback.send tr ~conn f)) frames

let wire_flood_bans_garbage () =
  let engine, (_, _, wg_a, reg_a), (tr_b, hs_b, wg_b, _) = flood_pair () in
  let cnt name = Option.value ~default:0 (Registry.counter_value reg_a name) in
  let l = Gossip.default_limits in
  let to_ban = l.ban_threshold / l.decode_fail_score in
  let downs_b = ref [] in
  let on_down = hs_b.on_peer_down in
  hs_b.on_peer_down <-
    (fun ~conn r ->
      downs_b := r :: !downs_b;
      on_down ~conn r);
  Alcotest.(check (list int)) "linked" [ 1 ] (WGL.connected wg_a);
  raw_send tr_b (List.init (to_ban - 1) (fun i -> Printf.sprintf "\xff garbage %d" i));
  ignore (Engine.run engine ~until:1.5 ());
  Alcotest.(check int) "garbage counted" (to_ban - 1) (cnt "gossip.decode_fail");
  Alcotest.(check (list int)) "not banned below the threshold" [] (WGL.banned wg_a);
  raw_send tr_b [ "\xff the last straw" ];
  ignore (Engine.run engine ~until:2.0 ());
  Alcotest.(check int) "every frame counted" to_ban (cnt "gossip.decode_fail");
  Alcotest.(check (list int)) "banned" [ 1 ] (WGL.banned wg_a);
  Alcotest.(check int) "ban counted" 1 (cnt "gossip.banned_peers");
  Alcotest.(check (list int)) "link closed" [] (WGL.connected wg_a);
  (* B redials on its backoff schedule; A refuses it at the handshake. *)
  ignore (Engine.run engine ~until:30.0 ());
  Alcotest.(check bool) "redial refused as banned" true
    (List.mem (Transport.Handshake_rejected `Banned) !downs_b);
  Alcotest.(check bool) "refusal counted" true (cnt "transport.handshake_failures" >= 1);
  Alcotest.(check (list int)) "still cut off" [] (WGL.connected wg_b)

let wire_flood_quota () =
  let engine, (_, _, wg_a, reg_a), (tr_b, _, _, _) = flood_pair () in
  let cnt name = Option.value ~default:0 (Registry.counter_value reg_a name) in
  let quota = Gossip.default_limits.quota_msgs in
  let excess = 5 in
  (* Distinct, decodable frames, all landing within one quota window. *)
  raw_send tr_b
    (List.init (quota + excess) (fun attempt ->
         Codec.encode (Message.Round_request { from_round = 1; requester = 1; attempt })));
  ignore (Engine.run engine ~until:1.5 ());
  Alcotest.(check int) "excess dropped" excess (cnt "gossip.quota_drops");
  Alcotest.(check int) "quota delivered" quota (cnt "gossip.delivered");
  Alcotest.(check int) "nothing undecodable" 0 (cnt "gossip.decode_fail");
  Alcotest.(check (list int)) "a short burst is not a ban" [] (WGL.banned wg_a)

(* "gossip.relayed" means what it means on the simulated overlay:
   forwarded copies only. A local broadcast counts once as originated,
   and the relays it causes count at the nodes that forward it. *)
let wire_broadcast_counts () =
  let engine = Engine.create () in
  let hub = Loopback.hub ~engine () in
  let roster = [| "pk-0"; "pk-1"; "pk-2" |] in
  let rng = Rng.create 3 in
  let nodes =
    Array.mapi
      (fun i pk ->
        let registry = Registry.create () in
        let handlers = Transport.handlers () in
        let tr = Loopback.create ~hub ~addr:pk ~hello:(hello ~pk ()) ~registry ~handlers () in
        let wg =
          WGL.create ~engine ~transport:tr ~handlers ~self:i ~roster ~limits:Codec.default_limits
            ~rng:(Rng.split rng pk) ~registry ()
        in
        (wg, registry))
      roster
  in
  Array.iteri
    (fun i (wg, _) ->
      for j = 0 to i - 1 do
        WGL.dial wg ~index:j ~addr:roster.(j)
      done)
    nodes;
  ignore (Engine.run engine ~until:1.0 ());
  let cnt i name = Option.value ~default:0 (Registry.counter_value (snd nodes.(i)) name) in
  let msg = Message.Block_request { round = 1; block_hash = "h"; requester = 0; attempt = 0 } in
  (WGL.as_net (fst nodes.(0))).Node.net_broadcast msg;
  ignore (Engine.run engine ~until:2.0 ());
  Alcotest.(check int) "one originated" 1 (cnt 0 "gossip.originated");
  Alcotest.(check int) "the originator relays nothing" 0 (cnt 0 "gossip.relayed");
  Alcotest.(check int) "node 1 delivered" 1 (cnt 1 "gossip.delivered");
  Alcotest.(check int) "node 1 forwarded to node 2" 1 (cnt 1 "gossip.relayed");
  Alcotest.(check int) "node 2 delivered once" 1 (cnt 2 "gossip.delivered");
  Alcotest.(check int) "node 2 dropped the second copy" 1 (cnt 2 "gossip.duplicates_dropped")

(* `Equal and `Linear stakes over the same seed share every pk, and
   so the genesis hash; the hello must still tell them apart, or two
   daemons would connect and then disagree on every weight. *)
let hello_commits_to_stakes () =
  let derive stake_law =
    let d =
      Deployment.make ~stake_law ~seed:7 ~users:4 ~params:fast_params ~block_bytes:10_000
        ~rounds:1 ()
    in
    let _, genesis = Deployment.roster d in
    (Genesis.hash genesis, Deployment.hello_digest d genesis)
  in
  let equal_genesis, equal = derive `Equal and linear_genesis, linear = derive `Linear in
  Alcotest.(check bool) "one genesis hash" true (String.equal equal_genesis linear_genesis);
  Alcotest.(check bool) "the digest is derived, not drawn" true
    (String.equal equal (snd (derive `Equal)));
  Alcotest.(check bool) "stake laws differ in the digest" false (String.equal equal linear);
  let engine = Engine.create () in
  let hub = Loopback.hub ~engine () in
  let a = endpoint ~hub ~addr:"A" ~digest:equal () in
  let b = endpoint ~hub ~addr:"B" ~digest:linear () in
  Loopback.connect a.tr "B";
  ignore (Engine.run engine ~until:1.0 ());
  Alcotest.(check int) "no peer up" 0 (List.length !(a.ups) + List.length !(b.ups));
  match !(a.downs) with
  | [ (_, Transport.Handshake_rejected `Params_digest) ] -> ()
  | _ -> Alcotest.fail "a stake-law mismatch passed the handshake"

(* -------------------------------- TCP ------------------------------ *)

type tep = {
  ttr : Tcp.t;
  ths : Transport.handlers;
  tups : (int * Handshake.hello) list ref;
  tdowns : (int * Transport.reason) list ref;
  tframes : (int * string) list ref;
}

let tcp_endpoint ?registry ?write_queue_frames ?(digest = "digest-A") ~pk () : tep =
  let ths = Transport.handlers () in
  let tups = ref [] and tdowns = ref [] and tframes = ref [] in
  ths.on_peer_up <- (fun ~conn h -> tups := (conn, h) :: !tups);
  ths.on_peer_down <- (fun ~conn r -> tdowns := (conn, r) :: !tdowns);
  ths.on_frame <- (fun ~conn f -> tframes := (conn, f) :: !tframes);
  let ttr =
    Tcp.create ~listen:"127.0.0.1:0" ~hello:(hello ~digest ~pk ()) ?registry
      ?write_queue_frames ~handlers:ths ()
  in
  { ttr; ths; tups; tdowns; tframes }

(* Poll both endpoints until a predicate holds; wall-clock bounded. *)
let pump2 ?(wall = 10.0) a b pred =
  let deadline = Unix.gettimeofday () +. wall in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Tcp.poll a ~timeout:0.01;
    Tcp.poll b ~timeout:0.01
  done;
  if not (pred ()) then Alcotest.fail "TCP condition not reached in time"

let tcp_handshake_and_frames () =
  let registry = Registry.create () in
  let a = tcp_endpoint ~registry ~pk:"pk-a" () in
  let b = tcp_endpoint ~registry ~pk:"pk-b" () in
  Tcp.connect a.ttr (Tcp.addr b.ttr);
  pump2 a.ttr b.ttr (fun () -> !(a.tups) <> [] && !(b.tups) <> []);
  (match !(a.tups) with
  | [ (_, h) ] -> Alcotest.(check string) "a sees b" "pk-b" h.pk
  | _ -> Alcotest.fail "expected exactly one peer on a");
  let conn_a = List.hd (Tcp.conns a.ttr) in
  Alcotest.(check (option string)) "dialed address retained"
    (Some (Tcp.addr b.ttr))
    (Tcp.dialed_addr a.ttr ~conn:conn_a);
  let big = String.make 200_000 'x' in
  Alcotest.(check bool) "send ok" true (Tcp.send a.ttr ~conn:conn_a "hello-wire" = `Ok);
  Alcotest.(check bool) "big send ok" true (Tcp.send a.ttr ~conn:conn_a big = `Ok);
  pump2 a.ttr b.ttr (fun () -> List.length !(b.tframes) >= 2);
  Alcotest.(check (list string)) "frames in order, reassembled" [ "hello-wire"; big ]
    (List.rev_map snd !(b.tframes));
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  Alcotest.(check bool) "bytes counted" true (cnt "transport.bytes_received" > 200_000);
  Tcp.shutdown a.ttr;
  Tcp.shutdown b.ttr

let tcp_digest_rejected () =
  let registry = Registry.create () in
  let a = tcp_endpoint ~registry ~pk:"pk-a" ~digest:"digest-A" () in
  let b = tcp_endpoint ~registry ~pk:"pk-b" ~digest:"digest-B" () in
  Tcp.connect a.ttr (Tcp.addr b.ttr);
  pump2 a.ttr b.ttr (fun () -> !(a.tdowns) <> []);
  (match !(a.tdowns) with
  | [ (_, Transport.Handshake_rejected `Params_digest) ] -> ()
  | _ -> Alcotest.fail "dialer did not learn the reject reason");
  Alcotest.(check int) "no peer up" 0 (List.length !(a.tups) + List.length !(b.tups));
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  Alcotest.(check bool) "handshake failure counted" true
    (cnt "transport.handshake_failures" >= 1);
  Tcp.shutdown a.ttr;
  Tcp.shutdown b.ttr

(* A raw socket client that completes the handshake, starts a frame,
   and dies mid-payload: the endpoint must observe Remote_closed and
   deliver nothing. *)
let tcp_death_mid_frame () =
  let b = tcp_endpoint ~pk:"pk-b" () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let port =
    match String.rindex_opt (Tcp.addr b.ttr) ':' with
    | Some i ->
      int_of_string (String.sub (Tcp.addr b.ttr) (i + 1) (String.length (Tcp.addr b.ttr) - i - 1))
    | None -> Alcotest.fail "bad addr"
  in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let send_all s =
    ignore (Unix.write_substring sock s 0 (String.length s))
  in
  send_all (Frame.encode (Handshake.encode (Handshake.Hello (hello ~pk:"pk-raw" ()))));
  pump2 b.ttr b.ttr (fun () -> !(b.tups) <> []);
  (* Header declares 100 bytes; send 10 and vanish. *)
  let header = Bytes.create 4 in
  Bytes.set_int32_be header 0 100l;
  send_all (Bytes.to_string header ^ "partial-10");
  Unix.close sock;
  pump2 b.ttr b.ttr (fun () -> !(b.tdowns) <> []);
  (match !(b.tdowns) with
  | [ (_, Transport.Remote_closed) ] -> ()
  | _ -> Alcotest.fail "mid-frame death not observed as Remote_closed");
  Alcotest.(check int) "partial frame not delivered" 0 (List.length !(b.tframes));
  Tcp.shutdown b.ttr

(* First bytes on the wire are not a handshake: the acceptor drops the
   connection without ever reporting a peer. *)
let tcp_garbage_handshake () =
  let registry = Registry.create () in
  let b = tcp_endpoint ~registry ~pk:"pk-b" () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let port =
    let addr = Tcp.addr b.ttr in
    let i = String.rindex addr ':' in
    int_of_string (String.sub addr (i + 1) (String.length addr - i - 1))
  in
  Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let garbage = Frame.encode "definitely not a handshake" in
  ignore (Unix.write_substring sock garbage 0 (String.length garbage));
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  pump2 b.ttr b.ttr (fun () -> cnt "transport.handshake_failures" >= 1);
  Alcotest.(check int) "no peer up" 0 (List.length !(b.tups));
  Unix.close sock;
  Tcp.shutdown b.ttr

(* Stop draining the receiver: once the socket and the bounded write
   queue are full, sends report `Dropped and the drop is counted. *)
let tcp_backpressure () =
  let registry = Registry.create () in
  let a = tcp_endpoint ~registry ~write_queue_frames:4 ~pk:"pk-a" () in
  let b = tcp_endpoint ~registry ~pk:"pk-b" () in
  Tcp.connect a.ttr (Tcp.addr b.ttr);
  pump2 a.ttr b.ttr (fun () -> !(a.tups) <> []);
  let conn_a = List.hd (Tcp.conns a.ttr) in
  let frame = String.make 262_144 'q' in
  let dropped = ref false in
  (* Only poll the sender: the receiver's socket fills, then the write
     queue, then sends start dropping. *)
  let i = ref 0 in
  while (not !dropped) && !i < 500 do
    (match Tcp.send a.ttr ~conn:conn_a frame with
    | `Dropped -> dropped := true
    | `Ok | `No_conn -> ());
    Tcp.poll a.ttr ~timeout:0.0;
    incr i
  done;
  Alcotest.(check bool) "backpressure engaged" true !dropped;
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  Alcotest.(check bool) "drops counted" true (cnt "transport.backpressure_drops" >= 1);
  Tcp.shutdown a.ttr;
  Tcp.shutdown b.ttr

(* The overlay's redial machinery over real sockets: kill one
   endpoint, bring a fresh one up on the same port, and watch the
   surviving side's Retry reconnect to it. *)
module WGT = Wire_gossip.Make (Tcp)

let tcp_reconnect () =
  let engine = Engine.create () in
  let registry = Registry.create () in
  let mk_b () =
    let ths = Transport.handlers () in
    let ttr = Tcp.create ~listen:"127.0.0.1:0" ~hello:(hello ~pk:"pk-1" ()) ~registry ~handlers:ths () in
    let wg =
      WGT.create ~engine ~transport:ttr ~handlers:ths ~self:1 ~roster:[| "pk-0"; "pk-1" |]
        ~limits:Codec.default_limits ~rng:(Rng.create 9) ~registry ()
    in
    (ttr, wg)
  in
  let hs_a = Transport.handlers () in
  let tr_a = Tcp.create ~listen:"127.0.0.1:0" ~hello:(hello ~pk:"pk-0" ()) ~registry ~handlers:hs_a () in
  let retry = { Retry.default_policy with base_delay = 0.2; jitter = 0.0 } in
  let wg_a =
    WGT.create ~engine ~transport:tr_a ~handlers:hs_a ~self:0 ~roster:[| "pk-0"; "pk-1" |]
      ~limits:Codec.default_limits ~retry ~rng:(Rng.create 8) ~registry ()
  in
  let tr_b, _wg_b = mk_b () in
  let b_addr = Tcp.addr tr_b in
  WGT.dial wg_a ~index:1 ~addr:b_addr;
  (* Drive both the engine (Retry timers) and the sockets. *)
  let vt = ref 0.0 in
  let pump ?(also = fun () -> ()) pred =
    let deadline = Unix.gettimeofday () +. 20.0 in
    while (not (pred ())) && Unix.gettimeofday () < deadline do
      vt := !vt +. 0.1;
      ignore (Engine.run engine ~until:!vt ());
      Tcp.poll tr_a ~timeout:0.01;
      also ()
    done;
    if not (pred ()) then Alcotest.fail "TCP reconnect condition not reached"
  in
  pump ~also:(fun () -> Tcp.poll tr_b ~timeout:0.01) (fun () -> WGT.connected wg_a = [ 1 ]);
  (* The peer process dies... *)
  Tcp.shutdown tr_b;
  pump (fun () -> WGT.connected wg_a = []);
  (* ...and restarts on the same port. *)
  let port = String.sub b_addr (String.rindex b_addr ':' + 1) (String.length b_addr - String.rindex b_addr ':' - 1) in
  let ths2 = Transport.handlers () in
  let tr_b2 = Tcp.create ~listen:("127.0.0.1:" ^ port) ~hello:(hello ~pk:"pk-1" ()) ~registry ~handlers:ths2 () in
  let _wg_b2 =
    WGT.create ~engine ~transport:tr_b2 ~handlers:ths2 ~self:1 ~roster:[| "pk-0"; "pk-1" |]
      ~limits:Codec.default_limits ~rng:(Rng.create 10) ~registry ()
  in
  pump ~also:(fun () -> Tcp.poll tr_b2 ~timeout:0.01) (fun () -> WGT.connected wg_a = [ 1 ]);
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  Alcotest.(check bool) "reconnects counted" true (cnt "transport.reconnects" >= 1);
  Tcp.shutdown tr_a;
  Tcp.shutdown tr_b2

(* --------------------------- SIGTERM drain ------------------------- *)

let node_bin () =
  let candidate =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/algorand_node.exe"
  in
  if Sys.file_exists candidate then candidate
  else Alcotest.failf "algorand_node binary not found at %s" candidate

(* Two daemons run an endless deployment; SIGTERM must make them drain,
   checkpoint, and leave stores whose certificates replay cleanly. *)
let sigterm_drains_and_checkpoints () =
  let bin = node_bin () in
  let root = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "algorand-sigterm-%d" (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)));
  let seed = 13 and users = 2 and port_base = 48350 in
  let common =
    [|
      "run"; "--users"; string_of_int users; "--rounds"; "1000000";
      "--seed"; string_of_int seed; "--port-base"; string_of_int port_base;
      "--store"; root; "--time-scale"; "50"; "--wall-timeout"; "600";
      "--linger"; "1";
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pids =
    List.init users (fun i ->
        Unix.create_process bin
          (Array.append [| bin |] (Array.append common [| "--index"; string_of_int i |]))
          Unix.stdin devnull devnull)
  in
  Unix.close devnull;
  (* Wait until both processes have certified and persisted rounds. *)
  let identities, genesis =
    Deployment.roster
      (Deployment.make ~seed ~users ~params:Params.paper ~block_bytes:100_000
         ~rounds:1_000_000 ())
  in
  let sig_scheme, vrf_scheme = Deployment.schemes Sim_crypto in
  let dirs =
    Array.map (fun id -> Disk_store.node_dir ~root ~pk:id.Identity.pk) identities
  in
  let persisted () =
    Array.for_all
      (fun dir -> (try List.length (Disk_store.stored_rounds dir) with Sys_error _ -> 0) >= 2)
      dirs
  in
  let deadline = Unix.gettimeofday () +. 60.0 in
  while (not (persisted ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.2
  done;
  Alcotest.(check bool) "daemons made progress" true (persisted ());
  List.iter (fun pid -> Unix.kill pid Sys.sigterm) pids;
  List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
  (* Replay both stores: every certificate must validate. *)
  Array.iteri
    (fun i dir ->
      let items, _err = Disk_store.load dir in
      Alcotest.(check bool) (Printf.sprintf "node %d persisted" i) true (items <> []);
      match History.replay ~params:Params.paper ~sig_scheme ~vrf_scheme ~genesis items with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "node %d store invalid after SIGTERM: %a" i History.pp_error e)
    dirs;
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote root)))

(* ------------------------------ stores ----------------------------- *)

let node_dir_per_identity () =
  let d1 = Disk_store.node_dir ~root:"/tmp/r" ~pk:"pk-one" in
  let d2 = Disk_store.node_dir ~root:"/tmp/r" ~pk:"pk-two" in
  Alcotest.(check bool) "distinct identities get distinct dirs" true (d1 <> d2);
  Alcotest.(check string) "deterministic" d1 (Disk_store.node_dir ~root:"/tmp/r" ~pk:"pk-one");
  Alcotest.(check string) "under the root" "/tmp/r" (Filename.dirname d1)

let suite =
  [
    ( "transport",
      [
        t "frames survive adversarial segmentation" segmented_roundtrip;
        t "oversized length poisons the reassembler" oversized_poisons;
        t "reassembly fuzz: split/coalesce/corrupt" fuzz_reassembly;
        t "handshake round-trips, garbage rejected" handshake_roundtrip;
        t "handshake checks version then digest" handshake_check;
        t "loopback: dribble delivery, metrics, abrupt death" loopback_basic;
        t "loopback: params digest mismatch rejected" loopback_digest_reject;
        t "loopback: framing bomb closes the connection" loopback_garbage_handshake;
        t "per-identity store dirs never collide" node_dir_per_identity;
        ts "consensus over loopback equals the simulated overlay" consensus_over_loopback;
        ts "ledger invariant under segmentation policy" consensus_segmentation_invariant;
        ts "real-crypto round skips redundant checks" realcrypto_skips_redundant_checks;
        ts "killed link redials with backoff" loopback_redial;
        t "wire flood defense: garbage scored to a ban, redial refused" wire_flood_bans_garbage;
        t "wire flood defense: per-peer quota drops a burst" wire_flood_quota;
        t "wire broadcast counts as originated, not relayed" wire_broadcast_counts;
        t "hello digest commits to the stake law" hello_commits_to_stakes;
        ts "tcp: handshake and reassembled frames" tcp_handshake_and_frames;
        ts "tcp: wrong params digest rejected with reason" tcp_digest_rejected;
        ts "tcp: peer death mid-frame" tcp_death_mid_frame;
        ts "tcp: garbage handshake dropped" tcp_garbage_handshake;
        ts "tcp: bounded write queue drops under backpressure" tcp_backpressure;
        ts "tcp: reconnect after peer restart" tcp_reconnect;
        ts "sigterm drains and checkpoints" sigterm_drains_and_checkpoints;
      ] );
  ]
