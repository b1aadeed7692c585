(** Gossip overlay over a real transport: the wire counterpart of
    [lib/netsim]'s simulated {!Gossip}. Functorized over
    {!Algorand_transport.Transport.S}, so the same relay logic runs
    over the in-memory {!Algorand_transport.Loopback} (deterministic,
    testable) and over {!Algorand_transport.Tcp_transport} (the
    multi-process deployment).

    Ingress runs through the same {!Algorand_netsim.Ingress} core as
    the simulated overlay, with per-peer quotas and ban scores from
    [flood] and bounded {!Codec.decode}; only the leaky ingress queue
    is left out, since the socket's own buffer plays that role here.
    Peers are identified by the handshake public key, which must
    appear in the roster. A ban cancels our redials to the peer,
    closes its links and refuses its handshakes from then on.

    Connection management: {!dial} makes this endpoint responsible for
    a peer link; if the dial fails or an established link drops, it is
    redialed on a {!Retry} backoff schedule (counted in
    [transport.reconnects]) until the peer is banned or {!stop}.
    Accepted links are the dialer's responsibility.

    Relay topology: broadcasts and relays go to the [fanout] ring
    successors (indices self+1..self+fanout mod n) that are currently
    connected - a deterministic connected overlay - while point-to-point
    sends use any direct connection, so a full-mesh deployment still
    exercises multi-hop gossip dissemination. *)

module Engine = Algorand_sim.Engine
module Retry = Algorand_sim.Retry
module Rng = Algorand_sim.Rng
module Ingress = Algorand_netsim.Ingress
module Registry = Algorand_obs.Registry

module Make (T : Algorand_transport.Transport.S) : sig
  type t

  val create :
    engine:Engine.t ->
    transport:T.t ->
    handlers:Algorand_transport.Transport.handlers ->
    self:int ->
    roster:string array ->
    limits:Codec.limits ->
    ?flood:Ingress.limits ->
    ?fanout:int ->
    ?retry:Retry.policy ->
    rng:Rng.t ->
    ?registry:Registry.t ->
    unit ->
    t
  (** Install this overlay into [handlers] (the record the transport
      endpoint was created with). [roster.(i)] is the public key of
      global index [i]; [self] is our index. Defaults: [fanout = 4],
      [retry = Retry.default_policy], no flood limits. The [gossip.*]
      counters live in [registry] (a private one when absent). As on
      the simulated overlay, "gossip.relayed" counts only forwarded
      copies: a {!as_net} broadcast counts once in
      "gossip.originated" and adds nothing to it. *)

  val install :
    t -> validate:(Message.t -> bool) -> deliver:(src:int -> Message.t -> unit) -> unit
  (** Wire the node in: relay gating and the delivery callback
      (typically [Node.gossip_validate] and [Node.deliver]). *)

  val as_net : t -> Node.net
  (** The overlay as a node's network seam. *)

  val dial : t -> index:int -> addr:string -> unit
  (** Take responsibility for the link to [index] at [addr]: dial now
      and redial with backoff whenever it is down. *)

  val connected : t -> int list
  (** Roster indices with an established connection, ascending. *)

  val banned : t -> int list

  val stop : t -> unit
  (** Cancel all redial schedules; existing connections stay up. *)
end
