(* The gossip ingress policy, once for both overlays; see the
   interface. All bookkeeping is deterministic: it is driven by the
   [now] each caller passes (sim-time on both overlays). *)

module Registry = Algorand_obs.Registry

type limits = {
  queue_capacity : int;
  drain_per_s : float;
  quota_window_s : float;
  quota_msgs : int;
  ban_threshold : int;
  decode_fail_score : int;
  quota_score : int;
}

let default_limits : limits =
  {
    queue_capacity = 512;
    drain_per_s = 2_000.0;
    quota_window_s = 1.0;
    quota_msgs = 200;
    ban_threshold = 100;
    decode_fail_score = 10;
    quota_score = 1;
  }

(* Per-sender flood-defense bookkeeping. *)
type meter = {
  mutable window_start : float;
  mutable window_count : int;
  mutable ban_score : int;
}

type ('frame, 'msg) t = {
  limits : limits option;
  msg_id : 'msg -> string;
  decode : 'frame -> 'msg option;
  seen : (string, unit) Hashtbl.t;
  banned_tbl : (int, unit) Hashtbl.t;
  meters : (int, meter) Hashtbl.t;
  queue : Registry.histogram option;  (** the leaky bucket's depth histogram, if queued *)
  mutable depth : float;
  mutable drained_at : float;
  c_delivered : Registry.counter;
  c_duplicates : Registry.counter;
  c_invalid : Registry.counter;
  c_relayed : Registry.counter;
  c_originated : Registry.counter;
  c_p2p : Registry.counter;
  c_decode_fail : Registry.counter;
  c_quota_drops : Registry.counter;
  c_banned : Registry.counter;
}

type 'msg verdict = Drop | Ban | Deliver of 'msg
type send = Originated | Relayed | P2p

let create ?(registry = Registry.create ()) ?limits ?(queue = false) ~msg_id ~decode () =
  let c name = Registry.counter registry ("gossip." ^ name) in
  {
    limits;
    msg_id;
    decode;
    seen = Hashtbl.create 64;
    banned_tbl = Hashtbl.create 4;
    meters = Hashtbl.create 8;
    queue =
      (if queue then
         Some
           (Registry.histogram registry ~lo:1.0 ~growth:2.0 ~buckets:16
              "gossip.ingress_queue_depth")
       else None);
    depth = 0.0;
    drained_at = 0.0;
    c_delivered = c "delivered";
    c_duplicates = c "duplicates_dropped";
    c_invalid = c "invalid_dropped";
    c_relayed = c "relayed";
    c_originated = c "originated";
    c_p2p = c "p2p_sends";
    c_decode_fail = c "decode_fail";
    c_quota_drops = c "quota_drops";
    c_banned = c "banned_peers";
  }

let meter t ~now src =
  match Hashtbl.find_opt t.meters src with
  | Some m -> m
  | None ->
    let m = { window_start = now; window_count = 0; ban_score = 0 } in
    Hashtbl.replace t.meters src m;
    m

(* Only reached for a sender not yet banned (the ban check comes
   first), so a ban is counted once. *)
let score t l ~now src points =
  let m = meter t ~now src in
  m.ban_score <- m.ban_score + points;
  if m.ban_score < l.ban_threshold then Drop
  else begin
    Hashtbl.replace t.banned_tbl src ();
    Registry.incr t.c_banned;
    Ban
  end

(* Admission: the leaky-bucket queue for the node as a whole, then the
   per-peer window quota. [None] admits the frame. *)
let admit t l ~now ~src =
  let queue_full =
    match t.queue with
    | None -> false
    | Some h ->
      (* Depth decays at the service rate between arrivals. *)
      let drained = (now -. t.drained_at) *. l.drain_per_s in
      t.depth <- Float.max 0.0 (t.depth -. drained);
      t.drained_at <- now;
      Registry.observe h t.depth;
      t.depth +. 1.0 > float_of_int l.queue_capacity
  in
  if queue_full then begin
    (* Tail drop, counted but NOT scored: the queue is shared across
       peers, so a flooder filling it must not get honest peers banned.
       Attribution comes from the quota and the decode-failure score. *)
    Registry.incr t.c_quota_drops;
    Some Drop
  end
  else begin
    let m = meter t ~now src in
    if now -. m.window_start >= l.quota_window_s then begin
      m.window_start <- now;
      m.window_count <- 0
    end;
    if m.window_count >= l.quota_msgs then begin
      Registry.incr t.c_quota_drops;
      Some (score t l ~now src l.quota_score)
    end
    else begin
      m.window_count <- m.window_count + 1;
      if Option.is_some t.queue then t.depth <- t.depth +. 1.0;
      None
    end
  end

let receive t ~now ~src ~validate frame =
  if Hashtbl.mem t.banned_tbl src then Drop
  else
    match match t.limits with None -> None | Some l -> admit t l ~now ~src with
    | Some verdict -> verdict
    | None -> (
      match t.decode frame with
      | None -> (
        Registry.incr t.c_decode_fail;
        match t.limits with None -> Drop | Some l -> score t l ~now src l.decode_fail_score)
      | Some msg ->
        let id = t.msg_id msg in
        if Hashtbl.mem t.seen id then begin
          Registry.incr t.c_duplicates;
          Drop
        end
        else if not (validate msg) then begin
          Registry.incr t.c_invalid;
          Drop
        end
        else begin
          Hashtbl.replace t.seen id ();
          Registry.incr t.c_delivered;
          Deliver msg
        end)

let originate t msg =
  let id = t.msg_id msg in
  if Hashtbl.mem t.seen id then false
  else begin
    Hashtbl.replace t.seen id ();
    Registry.incr t.c_originated;
    true
  end

let mark_seen t msg = Hashtbl.replace t.seen (t.msg_id msg) ()

let sent t = function
  | Originated -> Registry.incr t.c_originated
  | Relayed -> Registry.incr t.c_relayed
  | P2p -> Registry.incr t.c_p2p

let banned t src = Hashtbl.mem t.banned_tbl src
let banned_peers t = Hashtbl.fold (fun p () acc -> p :: acc) t.banned_tbl [] |> List.sort compare

let reset t ~now =
  Hashtbl.reset t.seen;
  Hashtbl.reset t.banned_tbl;
  Hashtbl.reset t.meters;
  t.depth <- 0.0;
  t.drained_at <- now
