(* Gossip over a real transport; see the interface. The ingress policy
   is the simulated overlay's own Ingress core; this module owns only
   connections: who a frame came from, redials, the disconnect on a
   ban, and relaying to ring successors. *)

module Engine = Algorand_sim.Engine
module Retry = Algorand_sim.Retry
module Rng = Algorand_sim.Rng
module Ingress = Algorand_netsim.Ingress
module Registry = Algorand_obs.Registry
module Transport = Algorand_transport.Transport
module Handshake = Algorand_transport.Handshake

module Make (T : Transport.S) = struct
  type t = {
    engine : Engine.t;
    transport : T.t;
    self : int;
    roster : string array;
    pk_index : (string, int) Hashtbl.t;
    fanout : int;
    retry_policy : Retry.policy;
    rng : Rng.t;
    registry : Registry.t option;
    tm : Transport.metrics option;  (** for the reconnects counter *)
    ingress : (string, Message.t) Ingress.t;
    conn_index : (int, int) Hashtbl.t;  (** conn id -> roster index *)
    dial_addrs : (int, string) Hashtbl.t;  (** links we are responsible for *)
    addr_index : (string, int) Hashtbl.t;
    redials : (int, Retry.t) Hashtbl.t;
    mutable validate : Message.t -> bool;
    mutable deliver : src:int -> Message.t -> unit;
    mutable stopped : bool;
  }

  let index_of_conn (t : t) (conn : int) : int option =
    Hashtbl.find_opt t.conn_index conn

  let conns_to (t : t) (index : int) : int list =
    Hashtbl.fold
      (fun conn i acc -> if i = index then conn :: acc else acc)
      t.conn_index []
    |> List.sort compare

  let connected (t : t) : int list =
    Hashtbl.fold (fun _ i acc -> if List.mem i acc then acc else i :: acc) t.conn_index []
    |> List.sort compare

  let banned (t : t) : int list = Ingress.banned_peers t.ingress

  (* The deterministic relay overlay: our [fanout] ring successors. *)
  let gossip_neighbors (t : t) : int list =
    let n = Array.length t.roster in
    let rec go k acc =
      if k > t.fanout || k >= n then List.rev acc
      else go (k + 1) (((t.self + k) mod n) :: acc)
    in
    go 1 []

  let send_frame (t : t) ~(index : int) (frame : string) : bool =
    match conns_to t index with
    | conn :: _ -> (
      match T.send t.transport ~conn frame with `Ok -> true | `Dropped | `No_conn -> false)
    | [] -> false

  (* Relay raw bytes to the connected subset of our overlay neighbors,
     never back toward the source. *)
  let relay (t : t) ?(except = -1) (frame : string) : unit =
    List.iter
      (fun index ->
        if index <> except && index <> t.self then
          if send_frame t ~index frame then Ingress.sent t.ingress Relayed)
      (gossip_neighbors t)

  let cancel_redial (t : t) (index : int) : unit =
    match Hashtbl.find_opt t.redials index with
    | Some r ->
      Retry.cancel r;
      Hashtbl.remove t.redials index
    | None -> ()

  (* Raw frames relay as the bytes that arrived. A ban stops our redials
     to the peer and closes its links; [accept_peer] refuses it from now
     on. *)
  let on_frame (t : t) ~(conn : int) (frame : string) : unit =
    match index_of_conn t conn with
    | None -> ()
    | Some src -> (
      match Ingress.receive t.ingress ~now:(Engine.now t.engine) ~src ~validate:t.validate frame with
      | Ingress.Drop -> ()
      | Ingress.Ban ->
        cancel_redial t src;
        List.iter (fun conn -> T.disconnect t.transport ~conn) (conns_to t src)
      | Ingress.Deliver msg ->
        t.deliver ~src msg;
        if not (Message.point_to_point msg) then relay t ~except:src frame)

  (* ---------------- connection management ---------------- *)

  let connected_to (t : t) (index : int) : bool = conns_to t index <> []

  let ensure_redial ?(initial = false) (t : t) (index : int) : unit =
    match Hashtbl.find_opt t.dial_addrs index with
    | None -> ()
    | Some addr ->
      if
        (not t.stopped)
        && (not (Ingress.banned t.ingress index))
        && (not (Hashtbl.mem t.redials index))
        && not (connected_to t index)
      then begin
        let r =
          Retry.start ~engine:t.engine ~rng:t.rng ~policy:t.retry_policy
            ~attempt:(fun n ->
              if
                (not t.stopped)
                && (not (Ingress.banned t.ingress index))
                && not (connected_to t index)
              then begin
                (* The very first dial to a peer is not a reconnect;
                   every attempt after an established link dropped is,
                   including the re-arm's synchronous attempt 0. *)
                (if n > 0 || not initial then
                   match t.tm with
                   | Some m -> Registry.incr m.reconnects
                   | None -> ());
                T.connect t.transport addr
              end)
            ~on_exhausted:(fun () -> Hashtbl.remove t.redials index)
            ~name:"reconnect" ?registry:t.registry ()
        in
        Hashtbl.replace t.redials index r
      end

  let on_peer_up (t : t) ~(conn : int) (hello : Handshake.hello) : unit =
    match Hashtbl.find_opt t.pk_index hello.pk with
    | None -> T.disconnect t.transport ~conn (* roster race; accept_peer gates *)
    | Some index ->
      Hashtbl.replace t.conn_index conn index;
      cancel_redial t index

  let on_peer_down (t : t) ~(conn : int) (_reason : Transport.reason) : unit =
    let index =
      match index_of_conn t conn with
      | Some i -> Some i
      | None -> (
        (* A dial that never completed its handshake: resolve the peer
           through the address we were dialing. *)
        match T.dialed_addr t.transport ~conn with
        | Some addr -> Hashtbl.find_opt t.addr_index addr
        | None -> None)
    in
    Hashtbl.remove t.conn_index conn;
    match index with Some i -> ensure_redial t i | None -> ()

  let accept_peer (t : t) (hello : Handshake.hello) : bool =
    match Hashtbl.find_opt t.pk_index hello.pk with
    | Some index -> not (Ingress.banned t.ingress index)
    | None -> false

  let create ~engine ~transport ~(handlers : Transport.handlers) ~self ~roster
      ~limits ?flood ?(fanout = 4) ?(retry = Retry.default_policy) ~rng ?registry ()
      : t =
    let pk_index = Hashtbl.create (Array.length roster) in
    Array.iteri (fun i pk -> Hashtbl.replace pk_index pk i) roster;
    let t =
      {
        engine;
        transport;
        self;
        roster;
        pk_index;
        fanout;
        retry_policy = retry;
        rng;
        registry;
        tm = Option.map Transport.metrics registry;
        ingress =
          Ingress.create ?registry ?limits:flood ~msg_id:Message.id
            ~decode:(Codec.decode ~limits) ();
        conn_index = Hashtbl.create 16;
        dial_addrs = Hashtbl.create 16;
        addr_index = Hashtbl.create 16;
        redials = Hashtbl.create 8;
        validate = (fun _ -> true);
        deliver = (fun ~src:_ _ -> ());
        stopped = false;
      }
    in
    handlers.on_peer_up <- on_peer_up t;
    handlers.on_frame <- on_frame t;
    handlers.on_peer_down <- on_peer_down t;
    handlers.accept_peer <- accept_peer t;
    t

  let install (t : t) ~validate ~deliver : unit =
    t.validate <- validate;
    t.deliver <- deliver

  let dial (t : t) ~(index : int) ~(addr : string) : unit =
    Hashtbl.replace t.dial_addrs index addr;
    Hashtbl.replace t.addr_index addr index;
    (* The first dial runs as the Retry's synchronous attempt 0, so a
       refused connection (the peer's listener not bound yet - the
       normal multi-process startup race) is redialed on the backoff
       schedule without depending on anyone reporting it. *)
    if not (connected_to t index) then ensure_redial ~initial:true t index

  let as_net (t : t) : Node.net =
    {
      Node.net_broadcast =
        (fun msg -> if Ingress.originate t.ingress msg then relay t (Codec.encode msg));
      net_send_to =
        (fun ~dst msg ->
          Ingress.sent t.ingress P2p;
          ignore (send_frame t ~index:dst (Codec.encode msg)));
      net_peers = (fun () -> List.filter (fun i -> i <> t.self) (connected t));
      net_mark_seen = Ingress.mark_seen t.ingress;
    }

  let stop (t : t) : unit =
    t.stopped <- true;
    Hashtbl.iter (fun _ r -> Retry.cancel r) t.redials;
    Hashtbl.reset t.redials
end
