(* The pending-transaction pool each user maintains (Figure 1): users
   collect transactions from the gossip network so that, if selected as
   a block proposer, they have a block ready. Deduplicated by
   transaction id, drained in arrival order.

   The [seen] table tracks why an id is known:
     - [In_queue]: the transaction is pending, so a gossiped duplicate
       is dropped;
     - [Committed r]: it made it into the agreed block of round [r], so
       a replayed copy must not re-enter - but only until [expire]
       drops the id past the retention watermark (the chain's nonce
       rule rejects replays forever; the table is a fast-path cache,
       and keeping every id of a million-tx run would leak memory).

   [take] removes transactions *and their ids*: a transaction that
   leaves the pool uncommitted - e.g. into a proposal that then loses
   agreement - must be able to re-enter via gossip, or it is lost forever.
   Proposers therefore use the non-destructive [select]; commitment
   prunes pools via [remove_committed].

   Each queued transaction keeps its id beside it, hashed once on
   [add]: [take], [remove_committed] and [prune] walk the queue every
   round and would otherwise re-hash every pending transaction. *)

type status = In_queue | Committed of int  (** the round that committed it *)

type t = {
  seen : (string, status) Hashtbl.t;
  queue : (string * Transaction.t) Queue.t;  (** id, transaction *)
  mutable bytes : int;
}

let create () = { seen = Hashtbl.create 64; queue = Queue.create (); bytes = 0 }

(* Returns true if the transaction was new. *)
let add (t : t) (tx : Transaction.t) : bool =
  let id = Transaction.id tx in
  if Hashtbl.mem t.seen id then false
  else begin
    Hashtbl.replace t.seen id In_queue;
    Queue.add (id, tx) t.queue;
    t.bytes <- t.bytes + Transaction.size_bytes tx;
    true
  end

let mem (t : t) (tx : Transaction.t) : bool = Hashtbl.mem t.seen (Transaction.id tx)

(* Select pending transactions up to [max_bytes] of serialized size
   without removing them - block proposers use this: a proposal may
   lose BA*, and only *committed* transactions should leave the pool
   (via [remove_committed]). *)
let select (t : t) ~(max_bytes : int) : Transaction.t list =
  let acc = ref [] and used = ref 0 and full = ref false in
  Queue.iter
    (fun (_, tx) ->
      if not !full then begin
        let sz = Transaction.size_bytes tx in
        if !used + sz > max_bytes then full := true
        else begin
          acc := tx :: !acc;
          used := !used + sz
        end
      end)
    t.queue;
  List.rev !acc

(* Take pending transactions up to [max_bytes] of serialized size,
   removing them from the pool - ids included, so an uncommitted taken
   transaction can re-enter later (the select/remove_committed
   contract above). *)
let take (t : t) ~(max_bytes : int) : Transaction.t list =
  let rec go acc used =
    match Queue.peek_opt t.queue with
    | None -> List.rev acc
    | Some (id, tx) ->
      let sz = Transaction.size_bytes tx in
      if used + sz > max_bytes then List.rev acc
      else begin
        ignore (Queue.pop t.queue);
        t.bytes <- t.bytes - sz;
        Hashtbl.remove t.seen id;
        go (tx :: acc) (used + sz)
      end
  in
  go [] 0

(* Drop transactions that made it into the agreed block of [round].
   Their ids stay [Committed round] until [expire] passes the
   watermark, so straggling gossip of a committed transaction does not
   re-enter the pool meanwhile. *)
let remove_committed (t : t) ~(round : int) (txs : Transaction.t list) : unit =
  List.iter
    (fun tx -> Hashtbl.replace t.seen (Transaction.id tx) (Committed round))
    txs;
  let keep = Queue.create () in
  Queue.iter
    (fun ((id, tx) as entry) ->
      match Hashtbl.find_opt t.seen id with
      | Some (Committed _) -> t.bytes <- t.bytes - Transaction.size_bytes tx
      | Some In_queue | None -> Queue.add entry keep)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer keep t.queue

(* Evict committed ids below the watermark. Sustained traffic commits
   millions of transactions; without eviction [seen] grows without
   bound. Safe because the ledger's nonce rule rejects a replayed
   committed transaction at validation anyway - the id cache only
   short-circuits the common case. *)
let expire (t : t) ~(before_round : int) : unit =
  let stale =
    Hashtbl.fold
      (fun id status acc ->
        match status with
        | Committed r when r < before_round -> id :: acc
        | Committed _ | In_queue -> acc)
      t.seen []
  in
  List.iter (Hashtbl.remove t.seen) stale

(* Drop queued transactions the caller knows can never apply (e.g.
   nonce below the sender's committed nonce). Keeps the pool bounded
   under hostile duplicate/invalid workloads. [stale] gets each
   transaction's stored id too. Returns how many were dropped. *)
let prune (t : t) ~(stale : string -> Transaction.t -> bool) : int =
  let keep = Queue.create () and dropped = ref 0 in
  Queue.iter
    (fun ((id, tx) as entry) ->
      if stale id tx then begin
        incr dropped;
        t.bytes <- t.bytes - Transaction.size_bytes tx;
        Hashtbl.remove t.seen id
      end
      else Queue.add entry keep)
    t.queue;
  Queue.clear t.queue;
  Queue.transfer keep t.queue;
  !dropped

let size (t : t) : int = Queue.length t.queue
let bytes (t : t) : int = t.bytes
let seen_ids (t : t) : int = Hashtbl.length t.seen
