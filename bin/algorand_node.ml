(* algorand-node: the real-wire deployment driver.

     algorand-node run --index 0 --users 8 --rounds 5      one daemon
     algorand-node spawn --procs 8 --rounds 5              N-process localhost run
     algorand-node audit-triple --users 8 --rounds 5       sim(typed) = sim(bytes) = wire

   One daemon is the sans-IO node core (lib/core Node) attached to a
   TCP transport (lib/transport) through the Wire_gossip overlay, with
   the virtual-clock engine driven by wall time (Realtime). Every
   process derives the full roster - identities, stakes, genesis -
   from the shared seed through Deployment, the builder the simulation
   harness uses, which is what makes an on-wire ledger comparable
   hash-for-hash with an in-sim one. *)

open Cmdliner
module Node = Algorand_core.Node
module Codec = Algorand_core.Codec
module Hex = Algorand_crypto.Hex
module Message = Algorand_core.Message
module Identity = Algorand_core.Identity
module Harness = Algorand_core.Harness
module Deployment = Algorand_core.Deployment
module Disk_store = Algorand_core.Disk_store
module History = Algorand_core.History
module Wire_gossip = Algorand_core.Wire_gossip
module Chain = Algorand_ledger.Chain
module Genesis = Algorand_ledger.Genesis
module Params = Algorand_ba.Params
module Engine = Algorand_sim.Engine
module Metrics = Algorand_sim.Metrics
module Rng = Algorand_sim.Rng
module Gossip = Algorand_netsim.Gossip
module Registry = Algorand_obs.Registry
module Trace = Algorand_obs.Trace
module Transport = Algorand_transport.Transport
module Tcp = Algorand_transport.Tcp_transport
module Handshake = Algorand_transport.Handshake
module Realtime = Algorand_transport.Realtime
module WG = Wire_gossip.Make (Tcp)

(* ------------------------------------------------------------------ *)
(* Shared deployment description                                       *)
(* ------------------------------------------------------------------ *)

type opts = {
  users : int;
  rounds : int;
  seed : int;
  port_base : int;
  block_bytes : int;
  committee_scale : float;
  time_scale : float;
  fanout : int;
  store_root : string option;
  crypto : Deployment.crypto;
  wall_timeout : float;  (** wall-clock seconds before a run is abandoned *)
  linger : float;  (** wall seconds to keep serving peers after finishing *)
}

let params_of (o : opts) : Params.t =
  if o.committee_scale = 1.0 then Params.paper
  else Params.scaled ~factor:o.committee_scale

let deployment_of (o : opts) : Deployment.t =
  Deployment.make ~crypto:o.crypto ~seed:o.seed ~users:o.users ~params:(params_of o)
    ~block_bytes:o.block_bytes ~rounds:o.rounds ()

let addr_of (o : opts) (i : int) : string =
  Printf.sprintf "127.0.0.1:%d" (o.port_base + i)

let resolve_store_root (o : opts) : string =
  match o.store_root with
  | Some root -> root
  | None ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "algorand-wire-%d-%d" o.seed o.port_base)

(* ------------------------------------------------------------------ *)
(* One daemon                                                          *)
(* ------------------------------------------------------------------ *)

let terminating = ref false

type daemon_result = {
  dr_rounds : int;
  dr_block_hashes : string list;  (** raw, rounds 1.. *)
  dr_store_ok : bool;
}

(* The full life of one node process: listen, mesh up, run the
   protocol under the wall-clock driver, drain, persist, report. *)
let run_daemon (o : opts) ~(index : int) ~(report_path : string option)
    ~(metrics_path : string option) : daemon_result =
  let deployment = deployment_of o in
  let identities, genesis = Deployment.roster deployment in
  let identity = identities.(index) in
  let engine = Engine.create () in
  let registry = Registry.create () in
  let metrics = Metrics.create ~registry ~trace:(Trace.create ()) ~users:o.users () in
  let root = resolve_store_root o in
  Disk_store.mkdir_p root;
  let store_dir = Disk_store.node_dir ~root ~pk:identity.Identity.pk in
  let config =
    {
      (Deployment.node_config deployment) with
      store_dir = Some store_dir;
      deterministic_ts = true;
    }
  in
  let { Node.params; sig_scheme; vrf_scheme; _ } = config in
  let rng = Rng.create o.seed in
  let node =
    Node.create ~index ~identity ~config ~engine ~metrics
      ~rng:(Deployment.node_rng rng index) ~genesis ()
  in
  let hello : Handshake.hello =
    {
      version = Handshake.version;
      params_digest = Deployment.hello_digest deployment genesis;
      pk = identity.Identity.pk;
    }
  in
  let handlers = Transport.handlers () in
  let tcp = Tcp.create ~listen:(addr_of o index) ~hello ~registry ~handlers () in
  let wg =
    WG.create ~engine ~transport:tcp ~handlers ~self:index
      ~roster:(Array.map (fun id -> id.Identity.pk) identities)
      ~limits:(Codec.limits_of_params ~block_bytes:o.block_bytes params)
      ~flood:Gossip.default_limits
      ~fanout:o.fanout ~retry:config.retry
      ~rng:(Rng.split rng (Printf.sprintf "wire-%d" index))
      ~registry ()
  in
  WG.install wg
    ~validate:(fun msg -> Node.gossip_validate node msg)
    ~deliver:(fun ~src msg -> Node.deliver node ~src msg);
  Node.set_net node (WG.as_net wg);
  (* Dial convention: one connection per pair, opened by the higher
     index; acceptors learn the dialer from its handshake pk. *)
  for j = 0 to index - 1 do
    WG.dial wg ~index:j ~addr:(addr_of o j)
  done;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> terminating := true));
  let start_wall = Unix.gettimeofday () in
  let expired () = Unix.gettimeofday () -. start_wall > o.wall_timeout in
  (* Phase 1: full mesh before round 1, so no process starts proposing
     into a half-built overlay. Redials (with backoff) cover peers
     that have not bound their listeners yet. *)
  Realtime.run ~engine ~time_scale:o.time_scale
    ~poll:(fun ~timeout -> Tcp.poll tcp ~timeout)
    ~until:(fun () ->
      !terminating || expired ()
      || List.length (WG.connected wg) >= o.users - 1)
    ();
  (* Phase 2: the protocol itself, to [rounds] completed rounds. *)
  if not (!terminating || expired ()) then begin
    Node.start node;
    Realtime.run ~engine ~time_scale:o.time_scale
      ~poll:(fun ~timeout -> Tcp.poll tcp ~timeout)
      ~until:(fun () -> !terminating || expired () || Node.status node = Stopped)
      ()
  end;
  (* Phase 3: drain. Persist everything certified (the SIGTERM path
     lands here too), stop redialing, and keep serving straggler
     catch-up requests for a grace period. *)
  Node.checkpoint node;
  WG.stop wg;
  let drain_start = Unix.gettimeofday () in
  Realtime.run ~engine ~time_scale:o.time_scale
    ~poll:(fun ~timeout -> Tcp.poll tcp ~timeout)
    ~until:(fun () -> Unix.gettimeofday () -. drain_start > o.linger)
    ();
  Node.checkpoint node;
  Tcp.shutdown tcp;
  (* Self-audit: reload our own store and re-validate every
     certificate through History.replay - the report's [store_ok] is
     proven, not assumed. *)
  let store_ok =
    (* [`Missing] just marks where the contiguous prefix ends; only a
       corrupt file or an invalid certificate fails the self-audit. *)
    match Disk_store.load store_dir with
    | items, (None | Some (`Missing _)) when items <> [] -> (
      match History.replay ~params ~sig_scheme ~vrf_scheme ~genesis items with
      | Ok _ -> true
      | Error _ -> false)
    | _ -> false
  in
  let tip = Chain.tip (Node.chain node) in
  let block_hashes =
    List.filter_map
      (fun r ->
        Option.map
          (fun (e : Chain.entry) -> e.hash)
          (Chain.ancestor_at (Node.chain node) ~hash:tip.Chain.hash ~height:r))
      (List.init tip.Chain.height (fun i -> i + 1))
  in
  let cnt name = Option.value ~default:0 (Registry.counter_value registry name) in
  (match report_path with
  | None -> ()
  | Some path ->
    let b = Buffer.create 1024 in
    Buffer.add_string b
      (Printf.sprintf
         "{\"index\":%d,\"pk\":\"%s\",\"rounds\":%d,\"store_ok\":%b,\"terminated\":%b,"
         index (Hex.of_string identity.Identity.pk) tip.Chain.height store_ok !terminating);
    Buffer.add_string b "\"blocks\":[";
    List.iteri
      (fun i h ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\"" (Hex.of_string h)))
      block_hashes;
    Buffer.add_string b "],";
    Buffer.add_string b
      (Printf.sprintf
         "\"decode_failures\":%d,\"handshake_failures\":%d,\"quota_drops\":%d,\"bans\":%d,"
         (cnt "gossip.decode_fail")
         (cnt "transport.handshake_failures")
         (cnt "gossip.quota_drops") (cnt "gossip.banned_peers"));
    Buffer.add_string b
      (Printf.sprintf
         "\"delivered\":%d,\"relayed\":%d,\"reconnects\":%d,\"bytes_sent\":%d,\"bytes_received\":%d}"
         (cnt "gossip.delivered") (cnt "gossip.relayed")
         (cnt "transport.reconnects") (cnt "transport.bytes_sent")
         (cnt "transport.bytes_received"));
    Disk_store.write_file path (Buffer.contents b));
  (match metrics_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Registry.to_json registry);
    output_string oc "\n";
    close_out oc);
  { dr_rounds = tip.Chain.height; dr_block_hashes = block_hashes; dr_store_ok = store_ok }

(* ------------------------------------------------------------------ *)
(* Launcher: N OS processes on localhost                               *)
(* ------------------------------------------------------------------ *)

type wire_audit = {
  wa_ok : bool;
  wa_rounds : int;  (** shortest agreed certified prefix across processes *)
  wa_hashes : string list;  (** that prefix's block hashes (raw) *)
  wa_decode_failures : int;
  wa_handshake_failures : int;
  wa_details : string list;  (** human-readable failure notes *)
}

(* Pull one integer field out of a daemon's flat report JSON. *)
let json_int (json : string) (field : string) : int =
  let needle = Printf.sprintf "\"%s\":" field in
  match String.index_opt json '{' with
  | None -> 0
  | Some _ -> (
    let rec find i =
      if i + String.length needle > String.length json then None
      else if String.sub json i (String.length needle) = needle then
        Some (i + String.length needle)
      else find (i + 1)
    in
    match find 0 with
    | None -> 0
    | Some start ->
      let stop = ref start in
      while
        !stop < String.length json
        && (match json.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      if !stop = start then 0
      else int_of_string (String.sub json start (!stop - start)))

(* Fork [users] daemons, wait for them, then audit their on-disk
   ledgers against each other: every process's certified prefix must
   replay cleanly (all certificates valid) and agree block-for-block. *)
let spawn_cluster (o : opts) : wire_audit =
  let deployment = deployment_of o in
  let identities, genesis = Deployment.roster deployment in
  let { Node.params; sig_scheme; vrf_scheme; _ } = Deployment.node_config deployment in
  let root = resolve_store_root o in
  Disk_store.mkdir_p root;
  let report_path i = Filename.concat root (Printf.sprintf "report-%d.json" i) in
  let pids =
    List.init o.users (fun i ->
        match Unix.fork () with
        | 0 ->
          (* Child: own log file, then the whole daemon life. *)
          (try
             let log =
               Unix.openfile
                 (Filename.concat root (Printf.sprintf "node-%d.log" i))
                 [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
                 0o644
             in
             Unix.dup2 log Unix.stdout;
             Unix.dup2 log Unix.stderr;
             Unix.close log;
             ignore
               (run_daemon o ~index:i ~report_path:(Some (report_path i))
                  ~metrics_path:
                    (Some (Filename.concat root (Printf.sprintf "metrics-%d.json" i))));
             exit 0
           with e ->
             prerr_endline (Printexc.to_string e);
             exit 1)
        | pid -> (i, pid))
  in
  let deadline = Unix.gettimeofday () +. o.wall_timeout +. 10.0 in
  let remaining = ref pids in
  let statuses = Hashtbl.create o.users in
  let reap blocking =
    remaining :=
      List.filter
        (fun (i, pid) ->
          match Unix.waitpid (if blocking then [] else [ Unix.WNOHANG ]) pid with
          | 0, _ -> true
          | _, status ->
            Hashtbl.replace statuses i status;
            false
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            Hashtbl.replace statuses i (Unix.WEXITED 0);
            false)
        !remaining
  in
  while !remaining <> [] && Unix.gettimeofday () < deadline do
    reap false;
    if !remaining <> [] then Unix.sleepf 0.05
  done;
  if !remaining <> [] then begin
    (* Ask nicely first: SIGTERM runs the drain-and-checkpoint path. *)
    List.iter (fun (_, pid) -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) !remaining;
    let grace = Unix.gettimeofday () +. 5.0 in
    while !remaining <> [] && Unix.gettimeofday () < grace do
      reap false;
      if !remaining <> [] then Unix.sleepf 0.05
    done;
    List.iter (fun (_, pid) -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !remaining;
    reap true
  end;
  let details = ref [] in
  let note fmt = Printf.ksprintf (fun s -> details := s :: !details) fmt in
  List.iter
    (fun (i, _) ->
      match Hashtbl.find_opt statuses i with
      | Some (Unix.WEXITED 0) -> ()
      | Some (Unix.WEXITED c) -> note "process %d exited with code %d" i c
      | Some (Unix.WSIGNALED s) -> note "process %d killed by signal %d" i s
      | Some (Unix.WSTOPPED _) | None -> note "process %d did not exit" i)
    pids;
  (* Independent ledger audit: replay every process's store here, in
     the parent, so certificate validity is not taken on faith. *)
  let ledgers =
    Array.init o.users (fun i ->
        let dir = Disk_store.node_dir ~root ~pk:identities.(i).Identity.pk in
        let items, load_err = Disk_store.load dir in
        (match load_err with
        | Some (`Corrupt _ as e) ->
          note "process %d store: %s" i (Format.asprintf "%a" Disk_store.pp_load_error e)
        | Some (`Missing _) | None -> ());
        if items = [] then begin
          note "process %d has an empty store" i;
          []
        end
        else begin
          match History.replay ~params ~sig_scheme ~vrf_scheme ~genesis items with
          | Ok chain ->
            let tip = Chain.tip chain in
            List.filter_map
              (fun r ->
                Option.map
                  (fun (e : Chain.entry) -> e.hash)
                  (Chain.ancestor_at chain ~hash:tip.Chain.hash ~height:r))
              (List.init tip.Chain.height (fun k -> k + 1))
          | Error e ->
            note "process %d replay failed: %s" i (Format.asprintf "%a" History.pp_error e);
            []
        end)
  in
  let min_rounds = Array.fold_left (fun acc l -> min acc (List.length l)) max_int ledgers in
  let min_rounds = if min_rounds = max_int then 0 else min_rounds in
  let prefix = List.filteri (fun i _ -> i < min_rounds) ledgers.(0) in
  let agree =
    Array.for_all
      (fun l -> List.filteri (fun i _ -> i < min_rounds) l = prefix)
      ledgers
  in
  if not agree then note "ledger prefixes disagree";
  if min_rounds < o.rounds then
    note "shortest certified prefix %d < requested %d rounds" min_rounds o.rounds;
  let decode_failures = ref 0 and handshake_failures = ref 0 in
  List.iter
    (fun (i, _) ->
      match Disk_store.read_file (report_path i) with
      | None -> note "process %d wrote no report" i
      | Some json ->
        decode_failures := !decode_failures + json_int json "decode_failures";
        handshake_failures := !handshake_failures + json_int json "handshake_failures")
    pids;
  if !decode_failures > 0 then note "%d decode failures on the wire" !decode_failures;
  if !handshake_failures > 0 then note "%d handshake failures" !handshake_failures;
  {
    wa_ok = !details = [] && agree && min_rounds >= o.rounds;
    wa_rounds = min_rounds;
    wa_hashes = prefix;
    wa_decode_failures = !decode_failures;
    wa_handshake_failures = !handshake_failures;
    wa_details = List.rev !details;
  }

let print_wire_audit (o : opts) (a : wire_audit) : unit =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf
       "{\"processes\":%d,\"requested_rounds\":%d,\"agreed_rounds\":%d,\"ledger_identical\":%b,"
       o.users o.rounds a.wa_rounds
       (a.wa_ok || (a.wa_details = [] && a.wa_rounds > 0)));
  Buffer.add_string b
    (Printf.sprintf "\"final_hash\":\"%s\","
       (match List.rev a.wa_hashes with h :: _ -> Hex.of_string h | [] -> ""));
  Buffer.add_string b
    (Printf.sprintf "\"decode_failures\":%d,\"handshake_failures\":%d,\"ok\":%b,"
       a.wa_decode_failures a.wa_handshake_failures a.wa_ok);
  Buffer.add_string b "\"notes\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%S" s))
    a.wa_details;
  Buffer.add_string b "]}";
  print_endline (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* The determinism triple                                              *)
(* ------------------------------------------------------------------ *)

(* Same seed, same params: the typed simulation, the bytes-on-the-wire
   simulation, and the N-process TCP deployment must certify the same
   blocks. This is the repo's strongest claim that the transport stack
   changes how bytes move, not what the protocol decides. *)
let audit_triple (o : opts) : int =
  let sim wire =
    let config =
      {
        Harness.default with
        users = o.users;
        rounds = o.rounds;
        rng_seed = o.seed;
        block_bytes = o.block_bytes;
        params = params_of o;
        crypto = o.crypto;
        tx_rate_per_s = 0.0;
        deterministic_ts = true;
        wire;
      }
    in
    let result = Harness.run config in
    (match Harness.violations result with
    | [] -> ()
    | v :: _ ->
      failwith
        (Format.asprintf "simulated run violated %a" Algorand_core.Verdict.pp_violation v));
    let chain = Node.chain result.Harness.harness.Harness.nodes.(0) in
    let tip = Chain.tip chain in
    List.filter_map
      (fun r ->
        Option.map
          (fun (e : Chain.entry) -> e.hash)
          (Chain.ancestor_at chain ~hash:tip.Chain.hash ~height:r))
      (List.init (min o.rounds tip.Chain.height) (fun k -> k + 1))
  in
  let typed = sim `Typed in
  let bytes = sim `Bytes in
  let wire = spawn_cluster o in
  let wire_hashes = List.filteri (fun i _ -> i < o.rounds) wire.wa_hashes in
  let ledger_hash l = Algorand_crypto.Sha256.digest_concat l in
  let th = ledger_hash typed and bh = ledger_hash bytes and wh = ledger_hash wire_hashes in
  let identical =
    List.length typed = o.rounds && typed = bytes && bytes = wire_hashes && wire.wa_ok
  in
  let arr l =
    String.concat "," (List.map (fun h -> Printf.sprintf "\"%s\"" (Hex.of_string h)) l)
  in
  Printf.printf
    "{\"users\":%d,\"rounds\":%d,\"typed\":\"%s\",\"bytes\":\"%s\",\"wire\":\"%s\",\"wire_ok\":%b,\"identical\":%b,\"typed_blocks\":[%s],\"wire_blocks\":[%s]}\n"
    o.users o.rounds (Hex.of_string th) (Hex.of_string bh) (Hex.of_string wh) wire.wa_ok
    identical (arr typed) (arr wire_hashes);
  if identical then 0 else 1

(* ------------------------------------------------------------------ *)
(* CLI                                                                 *)
(* ------------------------------------------------------------------ *)

let opts_term =
  let users =
    Arg.(value & opt int 8 & info [ "users"; "procs" ] ~docv:"N"
         ~doc:"Roster size: one OS process per user when spawning.")
  in
  let rounds = Arg.(value & opt int 5 & info [ "rounds" ] ~doc:"Rounds to complete.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed (shared by all processes).") in
  let port_base =
    Arg.(value & opt int 47800 & info [ "port-base" ] ~doc:"Process i listens on 127.0.0.1:(port-base + i).")
  in
  let block_bytes =
    Arg.(value & opt int 100_000 & info [ "block-bytes" ] ~doc:"Target block size.")
  in
  let committee_scale =
    Arg.(value & opt float 1.0
         & info [ "committee-scale" ] ~doc:"Scale factor for the paper's committee sizes.")
  in
  let time_scale =
    Arg.(value & opt float 50.0
         & info [ "time-scale" ] ~doc:"Virtual (protocol) seconds per wall-clock second.")
  in
  let fanout = Arg.(value & opt int 4 & info [ "fanout" ] ~doc:"Gossip relay fanout.") in
  let store =
    Arg.(value & opt (some string) None
         & info [ "store" ] ~docv:"DIR"
             ~doc:"Shared state root; each process keeps its ledger under a per-identity subdirectory.")
  in
  let real_crypto =
    Arg.(value & flag & info [ "real-crypto" ] ~doc:"Ed25519 + ECVRF instead of simulated crypto.")
  in
  let wall_timeout =
    Arg.(value & opt float 120.0 & info [ "wall-timeout" ] ~doc:"Abandon the run after this many wall seconds.")
  in
  let linger =
    Arg.(value & opt float 2.0
         & info [ "linger" ] ~doc:"Wall seconds to keep serving peers after finishing.")
  in
  let make users rounds seed port_base block_bytes committee_scale time_scale fanout
      store real_crypto wall_timeout linger =
    {
      users;
      rounds;
      seed;
      port_base;
      block_bytes;
      committee_scale;
      time_scale;
      fanout;
      store_root = store;
      crypto = (if real_crypto then Deployment.Real_crypto else Deployment.Sim_crypto);
      wall_timeout;
      linger;
    }
  in
  Term.(
    const make $ users $ rounds $ seed $ port_base $ block_bytes $ committee_scale
    $ time_scale $ fanout $ store $ real_crypto $ wall_timeout $ linger)

let run_cmd =
  let index = Arg.(value & opt int 0 & info [ "index" ] ~docv:"I" ~doc:"This node's roster index.") in
  let report =
    Arg.(value & opt (some string) None & info [ "report" ] ~doc:"Write a JSON run report here.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~doc:"Write the metrics registry snapshot here.")
  in
  let run o index report metrics =
    let r = run_daemon o ~index ~report_path:report ~metrics_path:metrics in
    Printf.printf "{\"index\":%d,\"rounds\":%d,\"store_ok\":%b}\n" index r.dr_rounds
      r.dr_store_ok;
    if r.dr_rounds >= o.rounds && r.dr_store_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one node daemon over TCP.")
    Term.(const run $ opts_term $ index $ report $ metrics)

let spawn_cmd =
  let run o =
    let audit = spawn_cluster o in
    print_wire_audit o audit;
    if audit.wa_ok then 0 else 1
  in
  Cmd.v
    (Cmd.info "spawn"
       ~doc:"Fork one process per user on localhost, run the protocol over TCP, audit \
             that every ledger agrees.")
    Term.(const run $ opts_term)

let triple_cmd =
  Cmd.v
    (Cmd.info "audit-triple"
       ~doc:"Assert the determinism triple: typed sim, bytes sim and the N-process \
             wire run certify identical ledgers.")
    Term.(const audit_triple $ opts_term)

let () =
  let info = Cmd.info "algorand-node" ~doc:"Real-wire Algorand deployment driver." in
  exit (Cmd.eval' (Cmd.group info [ run_cmd; spawn_cmd; triple_cmd ]))
