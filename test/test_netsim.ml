(* Network simulator: topology latencies, bandwidth serialization,
   adversaries, and gossip dissemination/dedup. *)

open Algorand_sim
open Algorand_netsim

let t name f = Alcotest.test_case name `Quick f

let topology_properties () =
  let rng = Rng.create 1 in
  let topo = Topology.create ~nodes:30 rng in
  Alcotest.(check int) "nodes" 30 (Topology.nodes topo);
  for _ = 1 to 100 do
    let src = Rng.int rng 30 and dst = Rng.int rng 30 in
    if src <> dst then begin
      let l = Topology.latency topo ~src ~dst in
      (* Positive, below a second even across the planet. *)
      if l <= 0.0 || l > 0.5 then Alcotest.failf "implausible latency %f" l
    end
  done;
  (* Same city -> small; antipodal cities -> large. Find two nodes in
     the same city if any. *)
  let name0 = Topology.city_of topo 0 in
  Alcotest.(check bool) "city name nonempty" true (String.length name0 > 0)

let bandwidth_serialization () =
  (* Two 1 MB messages from the same sender must serialize: the second
     arrives ~0.4s after the first at 20 Mbit/s. *)
  let engine = Engine.create () in
  let topo = Topology.create ~jitter_frac:0.0 ~nodes:2 (Rng.create 2) in
  let net = Network.create ~bandwidth_bps:20e6 ~engine ~topology:topo () in
  let arrivals = ref [] in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ tag ->
      arrivals := (tag, Engine.now engine) :: !arrivals);
  Network.send net ~src:0 ~dst:1 ~bytes:1_000_000 "first";
  Network.send net ~src:0 ~dst:1 ~bytes:1_000_000 "second";
  ignore (Engine.run engine ());
  match List.rev !arrivals with
  | [ ("first", t1); ("second", t2) ] ->
    let gap = t2 -. t1 in
    Alcotest.(check bool) (Printf.sprintf "gap %.3f ~ 0.4s" gap) true
      (gap > 0.35 && gap < 0.45);
    Alcotest.(check bool) "first took at least tx time" true (t1 >= 0.4)
  | _ -> Alcotest.fail "expected two arrivals in order"

let self_send_dropped () =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:2 (Rng.create 3) in
  let net = Network.create ~engine ~topology:topo () in
  let got = ref 0 in
  Network.set_handler net 0 (fun ~src:_ ~bytes:_ () -> incr got);
  Network.send net ~src:0 ~dst:0 ~bytes:10 ();
  ignore (Engine.run engine ());
  Alcotest.(check int) "no self delivery" 0 !got

let adversary_partition () =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:4 (Rng.create 4) in
  let net = Network.create ~engine ~topology:topo () in
  let received = Array.make 4 0 in
  for i = 0 to 3 do
    Network.set_handler net i (fun ~src:_ ~bytes:_ () -> received.(i) <- received.(i) + 1)
  done;
  (* Partition {0,1} vs {2,3} until t=100. *)
  Network.set_adversary net
    (Adversary.partition ~group_of:(fun i -> i / 2) ~until:100.0);
  Network.send net ~src:0 ~dst:1 ~bytes:10 ();
  Network.send net ~src:0 ~dst:2 ~bytes:10 ();
  ignore (Engine.run engine ());
  Alcotest.(check int) "same side delivered" 1 received.(1);
  Alcotest.(check int) "cross side dropped" 0 received.(2)

let adversary_hold_until () =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:2 (Rng.create 5) in
  let net = Network.create ~engine ~topology:topo () in
  let at = ref 0.0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ () -> at := Engine.now engine);
  Network.set_adversary net (Adversary.hold_until ~release:50.0);
  Network.send net ~src:0 ~dst:1 ~bytes:10 ();
  ignore (Engine.run engine ());
  Alcotest.(check bool) "held until release" true (!at >= 50.0)

let gossip_reaches_everyone () =
  let n = 40 in
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:n (Rng.create 6) in
  let net = Network.create ~engine ~topology:topo () in
  let got = Array.make n false in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      validate = (fun _ _ -> true);
      deliver = (fun node ~src:_ _ -> got.(node) <- true);
      fanout = 4;
      point_to_point = (fun _ -> false);
    }
  in
  let g =
    Gossip.create ~net ~rng:(Rng.create 7) ~weights:(Array.make n 1.0) config
  in
  Gossip.broadcast g ~node:0 ~bytes:100 "hello";
  ignore (Engine.run engine ());
  let reached = Array.fold_left (fun a b -> if b then a + 1 else a) 0 got in
  (* Random 4-regular-out graphs on 40 nodes are connected with
     overwhelming probability. *)
  Alcotest.(check bool) (Printf.sprintf "reached %d/40" reached) true (reached >= 38);
  (* Dedup: relays dropped duplicates rather than looping forever. *)
  Alcotest.(check bool) "duplicates dropped" true (Gossip.duplicates_dropped g > 0)

let gossip_invalid_not_relayed () =
  let n = 20 in
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:n (Rng.create 8) in
  let net = Network.create ~engine ~topology:topo () in
  let got = Array.make n false in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      (* Node 0's direct peers refuse to relay the "bad" message. *)
      validate = (fun _ m -> m <> "bad");
      deliver = (fun node ~src:_ _ -> got.(node) <- true);
      fanout = 4;
      point_to_point = (fun _ -> false);
    }
  in
  let g = Gossip.create ~net ~rng:(Rng.create 9) ~weights:(Array.make n 1.0) config in
  Gossip.broadcast g ~node:0 ~bytes:50 "bad";
  ignore (Engine.run engine ());
  let reached = Array.fold_left (fun a b -> if b then a + 1 else a) 0 got in
  Alcotest.(check int) "no one accepted it" 0 reached;
  Alcotest.(check bool) "invalid counted" true (Gossip.invalid_dropped g > 0)

let gossip_direct_send () =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:3 (Rng.create 10) in
  let net = Network.create ~engine ~topology:topo () in
  let got = ref "" in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      validate = (fun _ _ -> true);
      deliver = (fun node ~src:_ m -> if node = 2 then got := m);
      fanout = 2;
      point_to_point = (fun _ -> false);
    }
  in
  let g = Gossip.create ~net ~rng:(Rng.create 11) ~weights:(Array.make 3 1.0) config in
  Gossip.send_to g ~src:0 ~dst:2 ~bytes:10 "direct";
  (* A destination read off a hostile request may name no node: the
     send goes nowhere, as on the real wire, instead of raising. *)
  Gossip.send_to g ~src:0 ~dst:3 ~bytes:10 "nobody";
  Gossip.send_to g ~src:0 ~dst:(-1) ~bytes:10 "nobody";
  Gossip.send_to g ~src:0 ~dst:max_int ~bytes:10 "nobody";
  ignore (Engine.run engine ());
  Alcotest.(check string) "delivered" "direct" !got

let adversary_compose () =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:3 (Rng.create 12) in
  let net = Network.create ~engine ~topology:topo () in
  let got = Array.make 3 0 in
  for i = 0 to 2 do
    Network.set_handler net i (fun ~src:_ ~bytes:_ () -> got.(i) <- got.(i) + 1)
  done;
  (* Compose: partition {0} vs {1,2} forever, plus extra delay. The
     partition verdict must win on cross-group links. *)
  Network.set_adversary net
    (Adversary.compose
       [
         Adversary.partition ~group_of:(fun i -> if i = 0 then 0 else 1) ~until:1e9;
         Adversary.uniform_delay ~extra:1.0;
       ]);
  Network.send net ~src:0 ~dst:1 ~bytes:8 ();
  Network.send net ~src:1 ~dst:2 ~bytes:8 ();
  ignore (Engine.run engine ());
  Alcotest.(check int) "cross-group dropped" 0 got.(1);
  Alcotest.(check int) "same-group delayed but delivered" 1 got.(2);
  Alcotest.(check bool) "delay applied" true (Engine.now engine >= 1.0)

let adversary_compose_ordering () =
  (* compose's contract is positional: the FIRST non-Deliver verdict
     wins, later adversaries are never consulted once one objects. *)
  let deliver : unit Network.adversary = fun ~now:_ ~src:_ ~dst:_ _ -> Network.Deliver in
  let drop : unit Network.adversary = fun ~now:_ ~src:_ ~dst:_ _ -> Network.Drop in
  let delay d : unit Network.adversary = fun ~now:_ ~src:_ ~dst:_ _ -> Network.Delay d in
  let verdict advs = Adversary.compose advs ~now:0.0 ~src:0 ~dst:1 () in
  let check_verdict name expected got =
    Alcotest.(check bool) name true (got = expected)
  in
  check_verdict "empty list delivers" Network.Deliver (verdict []);
  check_verdict "all-deliver delivers" Network.Deliver (verdict [ deliver; deliver ]);
  check_verdict "drop before delay wins" Network.Drop (verdict [ drop; delay 1.0 ]);
  check_verdict "delay before drop wins" (Network.Delay 1.0) (verdict [ delay 1.0; drop ]);
  check_verdict "deliver passes through to drop" Network.Drop
    (verdict [ deliver; drop; delay 2.0 ]);
  check_verdict "first delay wins over second" (Network.Delay 1.0)
    (verdict [ deliver; delay 1.0; delay 2.0 ]);
  (* A later adversary must not even be consulted after a verdict. *)
  let consulted = ref false in
  let spy : unit Network.adversary =
   fun ~now:_ ~src:_ ~dst:_ _ ->
    consulted := true;
    Network.Deliver
  in
  check_verdict "verdict short-circuits" Network.Drop (verdict [ drop; spy ]);
  Alcotest.(check bool) "later adversary not consulted" false !consulted

let adversary_reorder_bounded () =
  (* reorder: every verdict is a Delay drawn from [0, window) - lossless
     and bounded, and deterministic given the rng stream. *)
  let sample seed =
    let adv = Adversary.reorder ~rng:(Rng.create seed) ~window:2.0 in
    List.init 50 (fun i ->
        match adv ~now:0.0 ~src:0 ~dst:1 i with
        | Network.Delay d -> d
        | Network.Deliver | Network.Drop | Network.Duplicate _ | Network.Tamper _ ->
          Alcotest.fail "reorder must only delay")
  in
  let ds = sample 21 in
  List.iter
    (fun d ->
      Alcotest.(check bool) (Printf.sprintf "delay %f within window" d) true
        (d >= 0.0 && d < 2.0))
    ds;
  Alcotest.(check bool) "delays vary" true
    (List.sort_uniq compare ds |> List.length > 10);
  Alcotest.(check (list (float 1e-12))) "deterministic per seed" ds (sample 21)

let adversary_uniform_loss () =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:2 (Rng.create 13) in
  let net = Network.create ~engine ~topology:topo () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ () -> incr got);
  Network.set_adversary net (Adversary.uniform_loss ~rng:(Rng.create 14) ~p:0.5);
  for _ = 1 to 400 do
    Network.send net ~src:0 ~dst:1 ~bytes:8 ()
  done;
  ignore (Engine.run engine ());
  Alcotest.(check bool) (Printf.sprintf "about half delivered (%d/400)" !got) true
    (!got > 140 && !got < 260)

let gossip_redraw_keeps_connectivity () =
  let n = 30 in
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:n (Rng.create 15) in
  let net = Network.create ~engine ~topology:topo () in
  let got = Array.make n false in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      validate = (fun _ _ -> true);
      deliver = (fun node ~src:_ _ -> got.(node) <- true);
      fanout = 4;
      point_to_point = (fun _ -> false);
    }
  in
  let weights = Array.make n 1.0 in
  let g = Gossip.create ~net ~rng:(Rng.create 16) ~weights config in
  Gossip.redraw g ~weights;
  Gossip.redraw g ~weights;
  Gossip.broadcast g ~node:3 ~bytes:32 "after-redraw";
  ignore (Engine.run engine ());
  let reached = Array.fold_left (fun a b -> if b then a + 1 else a) 0 got in
  Alcotest.(check bool) (Printf.sprintf "still connected (%d/30)" reached) true
    (reached >= 28)

let gossip_bidirectional_degree () =
  (* Symmetrized links: mean degree ~ 2 * fanout, minimum >= fanout. *)
  let n = 40 in
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:n (Rng.create 17) in
  let net = Network.create ~engine ~topology:topo () in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      validate = (fun _ _ -> true);
      deliver = (fun _ ~src:_ _ -> ());
      fanout = 4;
      point_to_point = (fun _ -> false);
    }
  in
  let g = Gossip.create ~net ~rng:(Rng.create 18) ~weights:(Array.make n 1.0) config in
  let degrees = List.init n (fun i -> List.length (Gossip.peers g i)) in
  let total = List.fold_left ( + ) 0 degrees in
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "node %d degree %d >= 4" i d) true (d >= 4))
    degrees;
  let mean = float_of_int total /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "mean degree %.1f near 8" mean) true
    (mean > 6.0 && mean < 10.0)

let adversary_duplicate () =
  (* duplicate delivers two copies with probability p: expect about
     400 * 1.5 arrivals at p = 0.5. *)
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:2 (Rng.create 22) in
  let net = Network.create ~engine ~topology:topo () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ () -> incr got);
  Network.set_adversary net
    (Adversary.duplicate ~rng:(Rng.create 23) ~p:0.5 ~window:0.1);
  for _ = 1 to 400 do
    Network.send net ~src:0 ~dst:1 ~bytes:8 ()
  done;
  ignore (Engine.run engine ());
  Alcotest.(check bool) (Printf.sprintf "about 1.5x delivered (%d/400)" !got) true
    (!got > 520 && !got < 680)

let gossip_at_most_once_under_dup_loss () =
  (* Relay dedup (section 8.4) must hold when the network both loses
     and duplicates packets: every node sees each message id at most
     once, and validation is re-run only on first receipt. *)
  let n = 30 in
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:n (Rng.create 24) in
  let net = Network.create ~engine ~topology:topo () in
  Network.set_adversary net
    (Adversary.compose
       [
         Adversary.uniform_loss ~rng:(Rng.create 25) ~p:0.15;
         Adversary.duplicate ~rng:(Rng.create 26) ~p:0.4 ~window:0.2;
       ]);
  let deliveries = Array.make n 0 in
  let validations = Array.make n 0 in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      validate =
        (fun node _ ->
          validations.(node) <- validations.(node) + 1;
          true);
      deliver = (fun node ~src:_ _ -> deliveries.(node) <- deliveries.(node) + 1);
      fanout = 4;
      point_to_point = (fun _ -> false);
    }
  in
  let g = Gossip.create ~net ~rng:(Rng.create 27) ~weights:(Array.make n 1.0) config in
  Gossip.broadcast g ~node:0 ~bytes:64 "payload";
  ignore (Engine.run engine ());
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "node %d delivered %d <= 1" i d) true (d <= 1);
      Alcotest.(check bool)
        (Printf.sprintf "node %d validated once per accept (%d)" i validations.(i))
        true
        (validations.(i) <= 1 || d <= 1))
    deliveries;
  let reached = Array.fold_left ( + ) 0 deliveries in
  Alcotest.(check bool) (Printf.sprintf "gossip still spreads (%d/30)" reached) true
    (reached >= 20);
  Alcotest.(check bool) "duplicates were dropped by dedup" true
    (Gossip.duplicates_dropped g > 0)

let network_down_node_unreachable () =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:2 (Rng.create 28) in
  let net = Network.create ~engine ~topology:topo () in
  let got = ref 0 in
  Network.set_handler net 1 (fun ~src:_ ~bytes:_ () -> incr got);
  (* Down before send: dropped at the source. *)
  Network.set_up net 1 false;
  Alcotest.(check bool) "is_up reflects state" false (Network.is_up net 1);
  Network.send net ~src:0 ~dst:1 ~bytes:8 ();
  ignore (Engine.run engine ());
  Alcotest.(check int) "down dst got nothing" 0 !got;
  (* Crash while a message is in flight: it is lost, not queued. *)
  Network.set_up net 1 true;
  Network.send net ~src:0 ~dst:1 ~bytes:8 ();
  Network.set_up net 1 false;
  ignore (Engine.run engine ());
  Alcotest.(check int) "in-flight message lost at crash" 0 !got;
  (* Back up: new traffic flows. *)
  Network.set_up net 1 true;
  Network.send net ~src:0 ~dst:1 ~bytes:8 ();
  ignore (Engine.run engine ());
  Alcotest.(check int) "delivered after restart" 1 !got;
  (* A down *sender* cannot send either. *)
  Network.set_up net 0 false;
  Network.send net ~src:0 ~dst:1 ~bytes:8 ();
  ignore (Engine.run engine ());
  Alcotest.(check int) "down src sends nothing" 1 !got

let gossip_relink_rejoins () =
  let n = 20 in
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:n (Rng.create 29) in
  let net = Network.create ~engine ~topology:topo () in
  let got = Array.make n 0 in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      validate = (fun _ _ -> true);
      deliver = (fun node ~src:_ _ -> got.(node) <- got.(node) + 1);
      fanout = 4;
      point_to_point = (fun _ -> false);
    }
  in
  let weights = Array.make n 1.0 in
  let g = Gossip.create ~net ~rng:(Rng.create 30) ~weights config in
  (* Simulate a restart of node 5: relink clears its dedup memory and
     gives it fresh bidirectional links. *)
  Gossip.relink g ~node:5 ~weights;
  Alcotest.(check bool) "rejoiner has peers" true
    (List.length (Gossip.peers g 5) >= 4);
  (* Its peers link back, so relays reach it. *)
  let back =
    List.exists (fun p -> List.mem 5 (Gossip.peers g p)) (Gossip.peers g 5)
  in
  Alcotest.(check bool) "peers link back" true back;
  Gossip.broadcast g ~node:0 ~bytes:32 "post-relink";
  ignore (Engine.run engine ());
  Alcotest.(check bool) "rejoiner hears broadcasts" true (got.(5) = 1);
  (* Relink cleared the seen table: the same id, sent directly, is
     accepted again (the restarted process genuinely forgot it) - and
     deduped again after that first re-receipt. *)
  Gossip.relink g ~node:5 ~weights;
  Gossip.send_to g ~src:0 ~dst:5 ~bytes:32 "post-relink";
  Gossip.send_to g ~src:0 ~dst:5 ~bytes:32 "post-relink";
  ignore (Engine.run engine ());
  Alcotest.(check int) "forgotten id re-delivered once" 2 got.(5)

let gossip_point_to_point_not_relayed () =
  let n = 20 in
  let engine = Engine.create () in
  let topo = Topology.create ~nodes:n (Rng.create 31) in
  let net = Network.create ~engine ~topology:topo () in
  let got = Array.make n 0 in
  let config : string Gossip.config =
    {
      msg_id = (fun m -> m);
      validate = (fun _ _ -> true);
      deliver = (fun node ~src:_ _ -> got.(node) <- got.(node) + 1);
      fanout = 4;
      point_to_point = (fun m -> String.length m > 0 && m.[0] = 'p');
    }
  in
  let g = Gossip.create ~net ~rng:(Rng.create 32) ~weights:(Array.make n 1.0) config in
  (* A point-to-point message delivered to a direct peer must stop
     there, not flood the overlay. *)
  let dst = List.hd (Gossip.peers g 0) in
  Gossip.send_to g ~src:0 ~dst ~bytes:16 "p2p-request";
  ignore (Engine.run engine ());
  Alcotest.(check int) "only the addressee got it" 1 (Array.fold_left ( + ) 0 got);
  Alcotest.(check int) "and it was the addressee" 1 got.(dst)

let topology_jitter_varies () =
  let rng = Rng.create 19 in
  let topo = Topology.create ~nodes:4 rng in
  let a = Topology.latency topo ~src:0 ~dst:1 in
  let b = Topology.latency topo ~src:0 ~dst:1 in
  (* Jitter makes successive samples differ (with overwhelming prob). *)
  Alcotest.(check bool) "samples differ" true (a <> b)

(* ---------------------- flood defense units ----------------------- *)

(* A tiny identity codec over strings: "frames" are the strings
   themselves, anything starting with '!' fails to decode. *)
let string_codec : string Gossip.codec =
  {
    enc = (fun m -> m);
    dec = (fun s -> if String.length s > 0 && s.[0] = '!' then None else Some s);
  }

let flood_net ~nodes ~seed =
  let engine = Engine.create () in
  let topo = Topology.create ~nodes (Rng.create seed) in
  let net = Network.create ~engine ~topology:topo () in
  (engine, net)

let counting_config counts : string Gossip.config =
  {
    msg_id = (fun m -> m);
    validate = (fun _ _ -> true);
    deliver = (fun node ~src:_ _ -> counts.(node) <- counts.(node) + 1);
    fanout = 4;
    point_to_point = (fun _ -> false);
  }

let gossip_wire_mode_roundtrip () =
  let n = 20 in
  let engine, net = flood_net ~nodes:n ~seed:41 in
  let got = Array.make n 0 in
  let g =
    Gossip.create ~codec:string_codec ~net ~rng:(Rng.create 42)
      ~weights:(Array.make n 1.0) (counting_config got)
  in
  Gossip.broadcast g ~node:0 ~bytes:64 "typed-through-bytes";
  ignore (Engine.run engine ());
  let reached = Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 got in
  Alcotest.(check bool) "reached nearly everyone" true (reached >= n - 2);
  Alcotest.(check int) "clean wire" 0 (Gossip.decode_failures g)

let gossip_garbage_banned () =
  let n = 20 in
  let engine, net = flood_net ~nodes:n ~seed:43 in
  let got = Array.make n 0 in
  let limits =
    { Gossip.default_limits with ban_threshold = 50; decode_fail_score = 10 }
  in
  let g =
    Gossip.create ~codec:string_codec ~limits ~net ~rng:(Rng.create 44)
      ~weights:(Array.make n 1.0) (counting_config got)
  in
  let flooder = 0 in
  let victims_before = Gossip.peers g flooder in
  let degree_before = List.map (fun p -> List.length (Gossip.peers g p)) victims_before in
  (* Pump undecodable frames, spaced out so the leaky bucket never
     tail-drops them: every one must reach the decoder and score. *)
  for k = 0 to 99 do
    Engine.at engine
      ~time:(0.01 *. float_of_int k)
      (fun () -> Gossip.inject_raw g ~node:flooder ~bytes:32 (Printf.sprintf "!junk-%d" k))
  done;
  ignore (Engine.run engine ());
  Alcotest.(check bool)
    (Printf.sprintf "decode failures counted (%d)" (Gossip.decode_failures g))
    true
    (Gossip.decode_failures g > 0);
  Alcotest.(check bool)
    (Printf.sprintf "flooder banned (%d links)" (Gossip.banned_links g))
    true
    (Gossip.banned_links g >= 1);
  (* Every victim that banned the flooder severed the link both ways
     and drew a replacement peer: degree is preserved. *)
  let banners = List.filter (fun p -> List.mem flooder (Gossip.banned_by g p)) victims_before in
  Alcotest.(check bool) "someone banned it" true (banners <> []);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d dropped the flooder" p)
        false
        (List.mem flooder (Gossip.peers g p)))
    banners;
  List.iter2
    (fun p d ->
      if List.mem flooder (Gossip.banned_by g p) then
        Alcotest.(check bool)
          (Printf.sprintf "node %d kept its degree" p)
          true
          (List.length (Gossip.peers g p) >= d))
    victims_before degree_before;
  (* Banned pairs must survive a full peer redraw un-linked. *)
  Gossip.redraw g ~weights:(Array.make n 1.0);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "redraw keeps node %d away from the flooder" p)
        false
        (List.mem flooder (Gossip.peers g p)))
    banners

let gossip_quota_drops () =
  let n = 10 in
  let engine, net = flood_net ~nodes:n ~seed:45 in
  let got = Array.make n 0 in
  let limits =
    {
      Gossip.default_limits with
      quota_msgs = 5;
      quota_window_s = 10.0;
      (* Quota, not banning, is under test here. *)
      ban_threshold = 1_000_000;
    }
  in
  let g =
    Gossip.create ~codec:string_codec ~limits ~net ~rng:(Rng.create 46)
      ~weights:(Array.make n 1.0) (counting_config got)
  in
  (* 50 distinct valid messages from one node, spaced past the leaky
     bucket: far over the 5-per-window per-peer quota. *)
  for k = 0 to 49 do
    Engine.at engine
      ~time:(0.01 *. float_of_int k)
      (fun () -> Gossip.broadcast g ~node:0 ~bytes:16 (Printf.sprintf "m-%d" k))
  done;
  ignore (Engine.run engine ());
  Alcotest.(check bool)
    (Printf.sprintf "quota drops counted (%d)" (Gossip.quota_drops g))
    true
    (Gossip.quota_drops g > 0);
  Alcotest.(check int) "no bans at this threshold" 0 (Gossip.banned_links g)

let gossip_queue_tail_drop () =
  let n = 10 in
  let engine, net = flood_net ~nodes:n ~seed:47 in
  let got = Array.make n 0 in
  let limits =
    {
      Gossip.default_limits with
      queue_capacity = 3;
      drain_per_s = 1.0;
      quota_msgs = 1_000_000;
      ban_threshold = 1_000_000;
    }
  in
  let g =
    Gossip.create ~codec:string_codec ~limits ~net ~rng:(Rng.create 48)
      ~weights:(Array.make n 1.0) (counting_config got)
  in
  (* A burst at one instant: the 3-deep queue draining 1/s must
     tail-drop most of it. *)
  for k = 0 to 29 do
    Gossip.broadcast g ~node:0 ~bytes:16 (Printf.sprintf "burst-%d" k)
  done;
  ignore (Engine.run engine ());
  Alcotest.(check bool)
    (Printf.sprintf "tail drops counted (%d)" (Gossip.quota_drops g))
    true
    (Gossip.quota_drops g > 0)

let suite =
  [
    ( "netsim",
      [
        t "gossip wire mode roundtrip" gossip_wire_mode_roundtrip;
        t "gossip garbage gets you banned" gossip_garbage_banned;
        t "gossip per-peer quota drops" gossip_quota_drops;
        t "gossip ingress queue tail-drop" gossip_queue_tail_drop;
        t "adversary compose" adversary_compose;
        t "adversary compose ordering semantics" adversary_compose_ordering;
        t "adversary reorder bounded + deterministic" adversary_reorder_bounded;
        t "adversary uniform loss" adversary_uniform_loss;
        t "adversary duplicate" adversary_duplicate;
        t "gossip at-most-once under dup+loss" gossip_at_most_once_under_dup_loss;
        t "network down node unreachable" network_down_node_unreachable;
        t "gossip relink rejoins" gossip_relink_rejoins;
        t "gossip point-to-point not relayed" gossip_point_to_point_not_relayed;
        t "gossip redraw keeps connectivity" gossip_redraw_keeps_connectivity;
        t "gossip bidirectional degree" gossip_bidirectional_degree;
        t "topology jitter varies" topology_jitter_varies;
        t "topology properties" topology_properties;
        t "bandwidth serialization" bandwidth_serialization;
        t "self send dropped" self_send_dropped;
        t "adversary partition" adversary_partition;
        t "adversary hold_until" adversary_hold_until;
        t "gossip reaches everyone" gossip_reaches_everyone;
        t "gossip invalid not relayed" gossip_invalid_not_relayed;
        t "gossip direct send" gossip_direct_send;
      ] );
  ]
