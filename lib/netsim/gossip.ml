(* The gossip overlay (section 4): each user connects to a small set of
   peers, signs what it originates, validates before relaying, and
   never relays the same message twice. Peer selection is weighted by
   stake to mitigate pollution attacks, and peers are re-drawn every
   round to heal possible disconnections (section 8.4).

   The overlay is generic in the message type; the application supplies
   a message id (for dedup), a validator (relay gating) and a delivery
   callback.

   Hostile-wire mode: with a [codec] installed, every message travels
   as encoded bytes ([Raw] packets) and is decoded at each hop before
   anything else looks at it - decode failure means the frame is
   dropped and counted, exactly like a real ingress parser. Because
   frames on the wire are just bytes, a network adversary can corrupt
   them in flight and malicious peers can inject arbitrary garbage
   ({!inject_raw}).

   Flood defense ([limits]) and the whole ingress pipeline live in
   {!Ingress}, shared with the wire overlay; this module keeps what is
   simulated: the stake-weighted peer graph, its redraws, the
   replacement link drawn on a ban, and the leaky ingress queue that
   models each node's service rate. *)

open Algorand_sim
module Registry = Algorand_obs.Registry
module Trace = Algorand_obs.Trace

(* What actually travels through the simulated WAN: a typed value in
   the classic mode, encoded bytes in bytes-on-the-wire mode. [Raw]
   frames can arrive in either mode (flooders inject them); without a
   codec they are unparseable by definition and count as decode
   failures. *)
type 'msg packet = Plain of 'msg | Raw of string

type 'msg codec = {
  enc : 'msg -> string;
  dec : string -> 'msg option;
}

type limits = Ingress.limits

let default_limits : limits = Ingress.default_limits

type 'msg config = {
  msg_id : 'msg -> string;
  validate : int -> 'msg -> bool;
      (** [validate node msg]: relay (and deliver) only if true. *)
  deliver : int -> src:int -> 'msg -> unit;
  fanout : int;  (** outgoing peers per node; the paper uses 4 (8 total with inbound) *)
  point_to_point : 'msg -> bool;
      (** addressed messages (catch-up requests and their replies):
          delivered and deduplicated like everything else but never
          relayed onward *)
}

type 'msg t = {
  net : 'msg packet Network.t;
  config : 'msg config;
  codec : 'msg codec option;
  rng : Rng.t;
  trace : Trace.t option;
  registry : Registry.t;
  ingress : ('msg packet, 'msg) Ingress.t array;  (** one core per receiving node *)
  mutable peers : int list array;
  mutable weights : float array;  (** last weights, for ban-replacement draws *)
}

(* A is severed from B when either side banned the other: links are
   bidirectional, so a ban cuts the pair both ways. *)
let link_banned (t : 'msg t) a b =
  Ingress.banned t.ingress.(a) b || Ingress.banned t.ingress.(b) a

(* Draw peers for every node, weighted by stake. Each node initiates
   [fanout] connections; like the paper's TCP links these are
   bidirectional (a user "accepts incoming connections"), giving
   2 * fanout neighbors on average and - crucially - leaving no node
   without an inbound path. Banned pairs are never re-linked. *)
let draw_peers (t : 'msg t) ~(weights : float array) : unit =
  t.weights <- Array.copy weights;
  let n = Network.nodes t.net in
  let chosen = Array.init n (fun _ -> Hashtbl.create 8) in
  for node = 0 to n - 1 do
    let budget = min t.config.fanout (n - 1) in
    (* Rejection-sample distinct weighted peers; cap attempts for tiny nets. *)
    let attempts = ref 0 in
    let picked = ref 0 in
    while !picked < budget && !attempts < 50 * budget do
      incr attempts;
      let candidate = Rng.weighted_index t.rng weights in
      if
        candidate <> node
        && (not (Hashtbl.mem chosen.(node) candidate))
        && not (link_banned t node candidate)
      then begin
        Hashtbl.replace chosen.(node) candidate ();
        Hashtbl.replace chosen.(candidate) node ();
        incr picked
      end
    done
  done;
  for node = 0 to n - 1 do
    t.peers.(node) <- Hashtbl.fold (fun k () acc -> k :: acc) chosen.(node) []
  done

(* Trace overlay-topology changes: they are rare (once per round, per
   rejoin, or per ban) and explain why a node's neighborhood shifted. *)
let trace_instant ?detail (t : 'msg t) ~(node : int) (name : string) : unit =
  match t.trace with
  | Some tr when Trace.enabled tr ->
    Trace.instant tr ~node ~ts:(Network.now t.net) ~cat:"gossip" ~name ?detail ()
  | _ -> ()

(* [node]'s core has just banned [src]: sever the (mutual) link - the
   ban itself keeps any redraw from re-linking the pair - and draw
   [node] one weighted replacement peer so its degree (and the
   overlay's connectivity) survives the cut. *)
let ban_peer (t : 'msg t) ~(node : int) ~(src : int) : unit =
  trace_instant t ~node "ban" ~detail:[ ("peer", string_of_int src) ];
  t.peers.(node) <- List.filter (fun p -> p <> src) t.peers.(node);
  t.peers.(src) <- List.filter (fun p -> p <> node) t.peers.(src);
  let n = Network.nodes t.net in
  if Array.length t.weights = n then begin
    let attempts = ref 0 in
    let found = ref false in
    while (not !found) && !attempts < 200 do
      incr attempts;
      let candidate = Rng.weighted_index t.rng t.weights in
      if
        candidate <> node && candidate <> src
        && (not (List.mem candidate t.peers.(node)))
        && not (link_banned t node candidate)
      then begin
        t.peers.(node) <- candidate :: t.peers.(node);
        if not (List.mem node t.peers.(candidate)) then
          t.peers.(candidate) <- node :: t.peers.(candidate);
        found := true
      end
    done
  end

let create ?(registry = Registry.create ()) ?trace ?codec ?limits
    ~(net : 'msg packet Network.t) ~(rng : Rng.t) ~(weights : float array)
    (config : 'msg config) : 'msg t =
  let n = Network.nodes net in
  let decode = function
    | Plain msg -> Some msg
    | Raw frame -> ( match codec with None -> None | Some c -> c.dec frame)
  in
  let t =
    {
      net;
      config;
      codec;
      rng;
      trace;
      registry;
      ingress =
        Array.init n (fun _ ->
            Ingress.create ~registry ?limits ~queue:true ~msg_id:config.msg_id ~decode ());
      peers = Array.make n [];
      weights = Array.copy weights;
    }
  in
  draw_peers t ~weights;
  (* Raw frames relay as the bytes that arrived, so a hop never
     re-encodes. *)
  let handle node =
    let validate = config.validate node in
    fun ~src ~bytes:sz pkt ->
      match Ingress.receive t.ingress.(node) ~now:(Network.now net) ~src ~validate pkt with
      | Ingress.Drop -> ()
      | Ingress.Ban -> ban_peer t ~node ~src
      | Ingress.Deliver msg ->
        config.deliver node ~src msg;
        if not (config.point_to_point msg) then
          List.iter
            (fun peer ->
              if peer <> src then begin
                Ingress.sent t.ingress.(node) Relayed;
                Network.send net ~src:node ~dst:peer ~bytes:sz pkt
              end)
            t.peers.(node)
  in
  for node = 0 to n - 1 do
    Network.set_handler net node (handle node)
  done;
  t

(* Encode for the wire when a codec is installed; the typed fast path
   otherwise. *)
let pack (t : 'msg t) (msg : 'msg) : 'msg packet =
  match t.codec with None -> Plain msg | Some c -> Raw (c.enc msg)

(* Originate a message at [node]: mark seen, forward. *)
let broadcast (t : 'msg t) ~(node : int) ~(bytes : int) (msg : 'msg) : unit =
  if Ingress.originate t.ingress.(node) msg then begin
    let pkt = pack t msg in
    List.iter
      (fun peer -> Network.send t.net ~src:node ~dst:peer ~bytes pkt)
      t.peers.(node)
  end

(* Inject a raw frame from [node] to all its peers, bypassing the
   codec: the attack primitive behind Adversary.flood. Honest receivers
   treat whatever arrives as untrusted bytes; garbage is counted,
   scored and dropped at their ingress. *)
let inject_raw (t : 'msg t) ~(node : int) ~(bytes : int) (frame : string) : unit =
  Ingress.sent t.ingress.(node) Originated;
  List.iter
    (fun peer -> Network.send t.net ~src:node ~dst:peer ~bytes (Raw frame))
    t.peers.(node)

(* Re-draw the whole peer graph (section 8.4: "Algorand replaces gossip
   peers each round", healing nodes that landed in a disconnected
   component). In-flight messages are unaffected; bans persist. *)
let redraw (t : 'msg t) ~(weights : float array) : unit =
  trace_instant t ~node:(-1) "redraw";
  draw_peers t ~weights

(* Re-link a single (rejoining) node: sever its old links, clear its
   dedup state - a fresh process knows nothing it has relayed - and
   draw it a fresh set of weighted bidirectional peers. Everyone else's
   links are untouched. A restart also wipes the node's own ban list
   and meters (in-memory state), though peers that banned IT remember. *)
let relink (t : 'msg t) ~(node : int) ~(weights : float array) : unit =
  trace_instant t ~node "relink";
  t.weights <- Array.copy weights;
  Ingress.reset t.ingress.(node) ~now:(Network.now t.net);
  let n = Network.nodes t.net in
  for i = 0 to n - 1 do
    if i <> node then t.peers.(i) <- List.filter (fun p -> p <> node) t.peers.(i)
  done;
  let budget = min t.config.fanout (n - 1) in
  let chosen = Hashtbl.create 8 in
  let attempts = ref 0 in
  while Hashtbl.length chosen < budget && !attempts < 50 * budget do
    incr attempts;
    let candidate = Rng.weighted_index t.rng weights in
    if candidate <> node && not (link_banned t node candidate) then
      Hashtbl.replace chosen candidate ()
  done;
  let links = Hashtbl.fold (fun k () acc -> k :: acc) chosen [] in
  t.peers.(node) <- links;
  List.iter
    (fun peer ->
      if not (List.mem node t.peers.(peer)) then t.peers.(peer) <- node :: t.peers.(peer))
    links

let count (t : 'msg t) (name : string) : int =
  Option.value ~default:0 (Registry.counter_value t.registry ("gossip." ^ name))

let duplicates_dropped (t : 'msg t) : int = count t "duplicates_dropped"
let invalid_dropped (t : 'msg t) : int = count t "invalid_dropped"
let decode_failures (t : 'msg t) : int = count t "decode_fail"
let quota_drops (t : 'msg t) : int = count t "quota_drops"
let banned_links (t : 'msg t) : int = count t "banned_peers"
let banned_by (t : 'msg t) (node : int) : int list = Ingress.banned_peers t.ingress.(node)

let peers (t : 'msg t) (node : int) : int list = t.peers.(node)

(* Point-to-point send outside the overlay: block-fetch replies, and
   byzantine senders that show different messages to different peers. *)
let send_to (t : 'msg t) ~(src : int) ~(dst : int) ~(bytes : int) (msg : 'msg) : unit =
  Ingress.sent t.ingress.(src) P2p;
  (* A reply's destination is read off the request, which a hostile
     frame can fill with any integer. Like a send to an unknown peer on
     the real wire, a send to no node goes nowhere. *)
  if dst >= 0 && dst < Array.length t.ingress then
    Network.send t.net ~src ~dst ~bytes (pack t msg)

(* Mark a message as seen at [node] without delivering it (used by
   originators of direct sends so their own relays stay consistent). *)
let mark_seen (t : 'msg t) ~(node : int) (msg : 'msg) : unit =
  Ingress.mark_seen t.ingress.(node) msg
