(** The gossip ingress policy (section 4: validate before relaying,
    never relay the same message twice), written once for both
    overlays: the simulated {!Gossip} and the wire overlay over a real
    transport. One core per receiving node.

    The core is sans-IO: it sends nothing and schedules nothing. It
    owns the receiver's dedup set, ban set, per-sender quota meters
    and the [gossip.*] counters, judges one received frame at a time,
    and returns a {!verdict} for its caller to act on.

    The pipeline, in strict order: (1) ban check: frames from a peer
    this node cut off are ignored; (2) admission: the optional leaky
    ingress queue, then the per-peer window quota; (3) decode; (4)
    dedup by message id; (5) validate; (6) mark seen. Undecodable
    frames and quota violations add to the sender's ban score, and the
    frame that reaches [ban_threshold] bans the sender. Nothing is
    marked seen on validation failure: validation is stateful (the
    priority-based block discard of section 6), so a later copy gets a
    fresh chance, and an invalid variant sharing an honest message's
    id cannot poison the dedup set. The dedup set is not bounded: it
    grows for the life of the core. *)

type limits = {
  queue_capacity : int;  (** max ingress-queue depth per node *)
  drain_per_s : float;  (** ingress-queue service rate, messages/second *)
  quota_window_s : float;  (** per-peer quota window length *)
  quota_msgs : int;  (** max messages accepted from one peer per window *)
  ban_threshold : int;  (** ban score at which a peer is disconnected *)
  decode_fail_score : int;  (** score added per undecodable frame *)
  quota_score : int;
      (** score added per per-peer quota violation (queue tail drops are
          counted but unscored: shared-queue overflow does not
          implicate the frame's sender) *)
}

val default_limits : limits
(** Generous for honest traffic at paper scale; a deliberate flooder
    crosses the ban threshold within a few simulated seconds. *)

type ('frame, 'msg) t

val create :
  ?registry:Algorand_obs.Registry.t ->
  ?limits:limits ->
  ?queue:bool ->
  msg_id:('msg -> string) ->
  decode:('frame -> 'msg option) ->
  unit ->
  ('frame, 'msg) t
(** Counters live in [registry] (a private one when absent) and are
    shared by every core created on it: "gossip.delivered",
    "gossip.duplicates_dropped", "gossip.invalid_dropped",
    "gossip.relayed", "gossip.originated", "gossip.p2p_sends",
    "gossip.decode_fail", "gossip.quota_drops" (queue tail drops and
    quota violations) and "gossip.banned_peers". Without [limits]
    nothing is metered, scored or banned. [queue] (default false) puts
    a leaky bucket of [queue_capacity] frames draining at
    [drain_per_s] in front of the quota and registers the
    "gossip.ingress_queue_depth" histogram: the simulated overlay's
    model of a node's service rate, which a real socket's receive
    buffer provides on the wire. *)

type 'msg verdict =
  | Drop  (** banned sender, flood-limited, undecodable, duplicate or invalid; counted *)
  | Ban  (** dropped, and this frame put its sender over the ban threshold *)
  | Deliver of 'msg  (** new and valid, now marked seen: deliver, then relay *)

val receive :
  ('frame, 'msg) t -> now:float -> src:int -> validate:('msg -> bool) -> 'frame -> 'msg verdict

val originate : ('frame, 'msg) t -> 'msg -> bool
(** Mark a locally originated message seen and count it; [false]
    (nothing counted) when it was already seen. *)

val mark_seen : ('frame, 'msg) t -> 'msg -> unit

type send = Originated | Relayed | P2p

val sent : ('frame, 'msg) t -> send -> unit
(** Count one send the caller made: a frame originated without
    {!originate} (an injected raw frame), a relay, or a point-to-point
    send. *)

val banned : ('frame, 'msg) t -> int -> bool
val banned_peers : ('frame, 'msg) t -> int list
(** Sorted. *)

val reset : ('frame, 'msg) t -> now:float -> unit
(** A restart: forget everything seen, banned and metered; empty the
    queue. The counters keep counting. *)
