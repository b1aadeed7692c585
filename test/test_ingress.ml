(* The ingress core's frame cache. A frame the core already judged
   Delivered or Duplicate is dropped as a duplicate before decode; the
   answer must be the one that decoding it would give. The oracle below
   is the decode-first pipeline the cache replaced, kept here only to
   be compared against. *)

module Ingress = Algorand_netsim.Ingress
module Registry = Algorand_obs.Registry
module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Metrics = Algorand_sim.Metrics
module Chain = Algorand_ledger.Chain
module Hex = Algorand_crypto.Hex

let t name f = Alcotest.test_case name `Quick f

let qt name gen prop = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:100 ~name gen prop)

(* ----------------------- the decode-first oracle ------------------- *)

module Decode_first = struct
  type meter = { mutable window_start : float; mutable window_count : int; mutable ban_score : int }

  type ('frame, 'msg) t = {
    limits : Ingress.limits option;
    queued : bool;
    msg_id : 'msg -> string;
    decode : 'frame -> 'msg option;
    seen : (string, unit) Hashtbl.t;
    banned_tbl : (int, unit) Hashtbl.t;
    meters : (int, meter) Hashtbl.t;
    mutable depth : float;
    mutable drained_at : float;
    registry : Registry.t;
  }

  let create ~registry ?limits ~queue ~msg_id ~decode () =
    {
      limits;
      queued = queue;
      msg_id;
      decode;
      seen = Hashtbl.create 64;
      banned_tbl = Hashtbl.create 4;
      meters = Hashtbl.create 8;
      depth = 0.0;
      drained_at = 0.0;
      registry;
    }

  let incr t name = Registry.incr (Registry.counter t.registry ("gossip." ^ name))

  let meter t ~now src =
    match Hashtbl.find_opt t.meters src with
    | Some m -> m
    | None ->
      let m = { window_start = now; window_count = 0; ban_score = 0 } in
      Hashtbl.replace t.meters src m;
      m

  let score t (l : Ingress.limits) ~now src points =
    let m = meter t ~now src in
    m.ban_score <- m.ban_score + points;
    if m.ban_score < l.ban_threshold then Ingress.Drop
    else begin
      Hashtbl.replace t.banned_tbl src ();
      incr t "banned_peers";
      Ingress.Ban
    end

  let admit t (l : Ingress.limits) ~now ~src =
    let queue_full =
      t.queued
      &&
      let drained = (now -. t.drained_at) *. l.drain_per_s in
      t.depth <- Float.max 0.0 (t.depth -. drained);
      t.drained_at <- now;
      t.depth +. 1.0 > float_of_int l.queue_capacity
    in
    if queue_full then begin
      incr t "quota_drops";
      Some Ingress.Drop
    end
    else begin
      let m = meter t ~now src in
      if now -. m.window_start >= l.quota_window_s then begin
        m.window_start <- now;
        m.window_count <- 0
      end;
      if m.window_count >= l.quota_msgs then begin
        incr t "quota_drops";
        Some (score t l ~now src l.quota_score)
      end
      else begin
        m.window_count <- m.window_count + 1;
        if t.queued then t.depth <- t.depth +. 1.0;
        None
      end
    end

  let receive t ~now ~src ~validate frame =
    if Hashtbl.mem t.banned_tbl src then Ingress.Drop
    else
      match match t.limits with None -> None | Some l -> admit t l ~now ~src with
      | Some verdict -> verdict
      | None -> (
        match t.decode frame with
        | None -> (
          incr t "decode_fail";
          match t.limits with None -> Ingress.Drop | Some l -> score t l ~now src l.decode_fail_score)
        | Some msg ->
          let id = t.msg_id msg in
          if Hashtbl.mem t.seen id then begin
            incr t "duplicates_dropped";
            Ingress.Drop
          end
          else if not (validate msg) then begin
            incr t "invalid_dropped";
            Ingress.Drop
          end
          else begin
            Hashtbl.replace t.seen id ();
            incr t "delivered";
            Ingress.Deliver msg
          end)

  let originate t msg =
    let id = t.msg_id msg in
    if Hashtbl.mem t.seen id then false
    else begin
      Hashtbl.replace t.seen id ();
      incr t "originated";
      true
    end

  let mark_seen t msg = Hashtbl.replace t.seen (t.msg_id msg) ()

  let banned_peers t = Hashtbl.fold (fun p () acc -> p :: acc) t.banned_tbl [] |> List.sort compare

  let reset t ~now =
    Hashtbl.reset t.seen;
    Hashtbl.reset t.banned_tbl;
    Hashtbl.reset t.meters;
    t.depth <- 0.0;
    t.drained_at <- now
end

(* ------------------------- a toy wire format ----------------------- *)

(* "<id>:<payload>" decodes to (id, payload); anything without a ':'
   is garbage. Payload "bad" never validates; "flaky<k>" fails its
   first k validations at a core, then passes (validation is stateful
   in the node, too). Many frames share an id: variants of one
   message. *)
let decode frame =
  match String.index_opt frame ':' with
  | None -> None
  | Some i -> Some (String.sub frame 0 i, String.sub frame (i + 1) (String.length frame - i - 1))

let msg_id (id, _) = "m|" ^ id

let validator () =
  let calls = Hashtbl.create 16 in
  fun ((_, payload) as msg) ->
    let n = Option.value ~default:0 (Hashtbl.find_opt calls msg) in
    Hashtbl.replace calls msg (n + 1);
    if payload = "bad" then false
    else if String.starts_with ~prefix:"flaky" payload then
      n >= Option.value ~default:0 (int_of_string_opt (String.sub payload 5 (String.length payload - 5)))
    else true

let limits : Ingress.limits =
  {
    queue_capacity = 12;
    drain_per_s = 200.0;
    quota_window_s = 0.5;
    quota_msgs = 40;
    ban_threshold = 60;
    decode_fail_score = 10;
    quota_score = 1;
  }

type op =
  | Fresh of int * int * int * float  (** src, id, payload, dt *)
  | Repeat of int * int * float  (** src, k-th earlier frame, dt *)
  | Corrupt of int * int * int * char  (** src, k-th earlier frame, position, byte *)
  | Originate of int * int
  | Mark_seen of int * int
  | Reset

let payloads = [| "a"; "b"; "c"; "bad"; "flaky1"; "flaky2" |]

let gen_op ~ids =
  QCheck2.Gen.(
    let src = int_range 0 5 and dt = float_bound_inclusive 0.02 in
    frequency
      [
        (300, map (fun (s, i, p, d) -> Fresh (s, i, p, d))
                (quad src (int_bound (ids - 1)) (int_bound (Array.length payloads - 1)) dt));
        (500, map (fun (s, k, d) -> Repeat (s, k, d)) (triple src nat dt));
        (80, map (fun (s, k, p, c) -> Corrupt (s, k, p, c)) (quad src nat small_nat printable));
        (30, map (fun (i, p) -> Originate (i, p)) (pair (int_bound (ids - 1)) (int_bound 2)));
        (30, map (fun (i, p) -> Mark_seen (i, p)) (pair (int_bound (ids - 1)) (int_bound 2)));
        (1, return Reset);
      ])

(* Up to 3,000 ops over up to 1,000 ids: long streams push more than
   two cache generations of distinct frames through one core. *)
let gen_case =
  QCheck2.Gen.(
    let* ids = int_range 1 1000 in
    triple (option (return limits)) bool (list_size (int_range 0 3000) (gen_op ~ids)))

let gossip_counters reg =
  List.filter_map
    (fun n ->
      if String.starts_with ~prefix:"gossip." n then
        Option.map (fun v -> (n, v)) (Registry.counter_value reg n)
      else None)
    (List.sort compare (Registry.names reg))

let same_as_decode_first (limits, queue, ops) =
  let reg = Registry.create () and oreg = Registry.create () in
  let core = Ingress.create ~registry:reg ?limits ~queue ~msg_id ~decode () in
  let oracle = Decode_first.create ~registry:oreg ?limits ~queue ~msg_id ~decode () in
  (* The counters are registered up front, as Ingress.create does. *)
  List.iter (fun (n, _) -> ignore (Registry.counter oreg n)) (gossip_counters reg);
  let validate = validator () and ovalidate = validator () in
  let frames = Array.make (List.length ops) "" and received = ref 0 and now = ref 0.0 in
  let earlier k = if !received = 0 then "0:a" else frames.(k mod !received) in
  let msg i p = (string_of_int i, payloads.(p)) in
  List.for_all
    (fun op ->
      let receive src dt frame =
        now := !now +. dt;
        frames.(!received) <- frame;
        incr received;
        Ingress.receive core ~now:!now ~src ~validate frame
        = Decode_first.receive oracle ~now:!now ~src ~validate:ovalidate frame
      in
      match op with
      | Fresh (src, i, p, dt) -> receive src dt (Printf.sprintf "%d:%s" i payloads.(p))
      | Repeat (src, k, dt) -> receive src dt (earlier k)
      | Corrupt (src, k, pos, c) ->
        let f = Bytes.of_string (earlier k) in
        if Bytes.length f > 0 then Bytes.set f (pos mod Bytes.length f) c;
        receive src 0.0 (Bytes.to_string f)
      | Originate (i, p) -> Ingress.originate core (msg i p) = Decode_first.originate oracle (msg i p)
      | Mark_seen (i, p) ->
        Ingress.mark_seen core (msg i p);
        Decode_first.mark_seen oracle (msg i p);
        true
      | Reset ->
        Ingress.reset core ~now:!now;
        Decode_first.reset oracle ~now:!now;
        true)
    ops
  && gossip_counters reg = gossip_counters oreg
  && Ingress.banned_peers core = Decode_first.banned_peers oracle

(* A repeated byte-identical frame is decoded once; frames that were
   invalid or undecodable are not cached, so each copy is judged again. *)
let repeat_decoded_once () =
  let decodes = ref 0 in
  let core =
    Ingress.create ~msg_id ~decode:(fun f -> incr decodes; decode f) ()
  in
  let validate = validator () in
  let receive f = Ingress.receive core ~now:0.0 ~src:1 ~validate f in
  Alcotest.(check bool) "first copy delivered" true (receive "7:a" = Ingress.Deliver ("7", "a"));
  for _ = 1 to 5 do
    Alcotest.(check bool) "repeat dropped" true (receive "7:a" = Ingress.Drop)
  done;
  Alcotest.(check int) "decoded once" 1 !decodes;
  ignore (receive "7:b");
  ignore (receive "7:b");
  Alcotest.(check int) "a variant is decoded once, then cached as a duplicate" 2 !decodes;
  ignore (receive "8:flaky1");
  Alcotest.(check bool) "an invalid frame is judged again" true
    (receive "8:flaky1" = Ingress.Deliver ("8", "flaky1"));
  Alcotest.(check int) "invalid frames are decoded every time" 4 !decodes;
  ignore (receive "garbage");
  ignore (receive "garbage");
  Alcotest.(check int) "undecodable frames are decoded every time" 6 !decodes;
  Ingress.reset core ~now:1.0;
  Alcotest.(check bool) "reset forgets cached frames" true
    (receive "7:a" = Ingress.Deliver ("7", "a"))

(* One deployment of the sim-bytes benchmark configuration, pinned to
   the counts it gave with the decode-first ingress. *)
let sim_bytes_pin () =
  let r =
    Harness.run
      {
        Harness.default with
        users = 10;
        rounds = 3;
        rng_seed = 7;
        crypto = Harness.Sim_crypto;
        wire = `Bytes;
        tx_profile = Some Harness.hostile_profile;
      }
  in
  Alcotest.(check (list (pair string int)))
    "gossip counters"
    [
      ("gossip.banned_peers", 0);
      ("gossip.decode_fail", 0);
      ("gossip.delivered", 2447);
      ("gossip.duplicates_dropped", 15612);
      ("gossip.invalid_dropped", 1394);
      ("gossip.originated", 325);
      ("gossip.p2p_sends", 0);
      ("gossip.quota_drops", 0);
      ("gossip.relayed", 16869);
    ]
    (gossip_counters (Metrics.registry r.harness.metrics));
  Alcotest.(check int) "engine events" 21360 r.events;
  let certified =
    [
      "1177c37f4896ce758afb4ad9782f15eae924a1b9a32d9dca4f84cb77b1debc92";
      "45a272081992d89d2aa626d1e83b254f93e02a108d20ebb46d669e923345a030";
      "70e50bab0239bbb6f4e2d4f3c3fc0442332df4af1aa02d76c51741ae05dbf6d9";
    ]
  in
  Array.iteri
    (fun i node ->
      let chain = Node.chain node in
      let tip = Chain.tip chain in
      let hashes =
        List.init 3 (fun k ->
            match Chain.ancestor_at chain ~hash:tip.Chain.hash ~height:(k + 1) with
            | Some e when e.final -> Hex.of_string e.hash
            | Some _ | None -> "")
      in
      Alcotest.(check (list string)) (Printf.sprintf "node %d certified blocks" i) certified hashes)
    r.harness.nodes

let suite =
  [
    ( "ingress",
      [
        qt "frame cache agrees with decode-first" gen_case same_as_decode_first;
        t "a repeated frame is decoded once" repeat_decoded_once;
        t "sim-bytes deployment pinned" sim_bytes_pin;
      ] );
  ]
