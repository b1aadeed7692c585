(** The simulated gossip overlay (section 4): stake-weighted
    bidirectional peer links over {!Network}, with one {!Ingress} core
    per node doing validate-before-relay and at-most-once relay per
    message id. The wire overlay drives the same core over a real
    transport.

    With a {!codec} installed, the overlay runs bytes-on-the-wire:
    every message is encoded at the sender and decoded at each
    receiving hop before anything else looks at it; undecodable frames
    are dropped and counted. With {!limits}, each node meters its
    ingress per peer and bans peers whose ban score crosses the
    threshold; a ban cuts the link both ways and draws the banning
    node a replacement peer. Only this overlay puts the leaky ingress
    queue in front of each core. *)

open Algorand_sim

type 'msg packet = Plain of 'msg | Raw of string
    (** What travels through {!Network}: typed values in the classic
        mode, encoded bytes in bytes-on-the-wire mode. [Raw] frames
        without an installed codec count as decode failures. *)

type 'msg codec = {
  enc : 'msg -> string;
  dec : string -> 'msg option;
}

type limits = Ingress.limits

val default_limits : limits

type 'msg config = {
  msg_id : 'msg -> string;
  validate : int -> 'msg -> bool;
      (** Relay gate; stateful validators get re-asked on later copies
          of a message they rejected. *)
  deliver : int -> src:int -> 'msg -> unit;
  fanout : int;  (** connections initiated per node (the paper uses 4) *)
  point_to_point : 'msg -> bool;
      (** addressed messages: delivered and deduplicated, never relayed *)
}

type 'msg t

val create :
  ?registry:Algorand_obs.Registry.t ->
  ?trace:Algorand_obs.Trace.t ->
  ?codec:'msg codec ->
  ?limits:limits ->
  net:'msg packet Network.t ->
  rng:Rng.t ->
  weights:float array ->
  'msg config ->
  'msg t
(** The [gossip.*] counters of {!Ingress.create} plus the
    "gossip.ingress_queue_depth" histogram live in [registry] (a
    private one when absent); "gossip.relayed" counts fan-out sends
    while relaying. With an enabled [trace], peer-graph changes
    ({!redraw}, {!relink}, bans) emit instant events. A hop relays the
    [Raw] bytes it received: no re-encode. *)

val broadcast : 'msg t -> node:int -> bytes:int -> 'msg -> unit
(** Originate a message at [node] (encoded first when in wire mode). *)

val inject_raw : 'msg t -> node:int -> bytes:int -> string -> unit
(** Send an arbitrary frame from [node] to all its peers, bypassing
    the codec: the flood/garbage attack primitive. Receivers treat it
    as untrusted ingress like anything else. *)

val peers : 'msg t -> int -> int list

val banned_by : 'msg t -> int -> int list
(** Peers that [node] has disconnected for misbehavior, sorted. *)

val send_to : 'msg t -> src:int -> dst:int -> bytes:int -> 'msg -> unit
(** Point-to-point send outside the overlay (block-fetch replies,
    byzantine equivocation). *)

val mark_seen : 'msg t -> node:int -> 'msg -> unit

val redraw : 'msg t -> weights:float array -> unit
(** Replace every node's peers (section 8.4: peers are re-drawn each
    round, healing disconnected components). Banned pairs are never
    re-linked. *)

val relink : 'msg t -> node:int -> weights:float array -> unit
(** Re-link a single rejoining node: sever its old links, clear its
    dedup state (and, as a restart, its own ban list and ingress
    meters), and draw it fresh weighted bidirectional peers. Everyone
    else's links — and their bans against it — are untouched. *)

val duplicates_dropped : 'msg t -> int
val invalid_dropped : 'msg t -> int
val decode_failures : 'msg t -> int
val quota_drops : 'msg t -> int
val banned_links : 'msg t -> int
