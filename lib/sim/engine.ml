(* The discrete-event simulation loop: a virtual clock and a queue of
   thunks. Handlers run at their scheduled virtual time and may
   schedule further events. *)

let noop () = ()

type t = {
  queue : (unit -> unit) Event_queue.t;
  clock : float array;
      (* [| now |]: a flat float cell, so advancing the clock allocates
         nothing; [Event_queue.take] writes each event's time into it *)
  mutable events_processed : int;
  mutable reorder_hook : ((unit -> unit) array -> (unit -> unit) array) option;
  mutable scratch : (unit -> unit) array;
      (* reusable batch buffer: grown on demand, cleared after use so a
         drained batch does not pin its closures until the next one *)
}

let create () : t =
  {
    queue = Event_queue.create ();
    clock = [| 0.0 |];
    events_processed = 0;
    reorder_hook = None;
    scratch = [||];
  }

let now (t : t) : float = t.clock.(0)

let schedule (t : t) ~(delay : float) (f : unit -> unit) : unit =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  Event_queue.push t.queue ~time:(t.clock.(0) +. delay) f

(* Clamped by hand: the polymorphic [max] would box the clock read. *)
let at (t : t) ~(time : float) (f : unit -> unit) : unit =
  let now = t.clock.(0) in
  Event_queue.push t.queue ~time:(if time >= now then time else now) f

let set_reorder_hook (t : t) hook = t.reorder_hook <- hook

(* Take every event sharing the minimal timestamp - a "batch" of
   simultaneous events whose FIFO order is an artifact of insertion
   order, not causality. Events the batch itself schedules at the same
   time form a *later* batch (they are causally downstream). The clock
   moves to the batch's time as its events are taken. The batch is
   collected into a reusable scratch buffer - no list cells, one
   exact-size array allocated for the caller. *)
let pop_batch (t : t) : (unit -> unit) array =
  let time = Event_queue.min_time t.queue in
  let n = ref 0 in
  while Event_queue.due t.queue time do
    if !n >= Array.length t.scratch then begin
      let ncap = max 16 (2 * Array.length t.scratch) in
      let s = Array.make ncap noop in
      Array.blit t.scratch 0 s 0 !n;
      t.scratch <- s
    end;
    t.scratch.(!n) <- Event_queue.take t.queue ~clock:t.clock;
    incr n
  done;
  let batch = Array.sub t.scratch 0 !n in
  Array.fill t.scratch 0 !n noop;
  batch

(* Run until the queue drains or the clock passes [until]. Returns the
   number of events processed. Without a reorder hook the loop
   allocates nothing per event. With one, events sharing a timestamp
   are taken as a batch, passed through the hook (which returns them in
   the order to run), and executed; [max_events] is then only checked
   between batches. *)
let run (t : t) ?(until = infinity) ?(max_events = max_int) () : int =
  let processed_before = t.events_processed in
  let continue = ref true in
  while !continue && Event_queue.due t.queue until do
    if t.events_processed - processed_before >= max_events then continue := false
    else begin
      match t.reorder_hook with
      | Some hook ->
        Array.iter
          (fun f ->
            t.events_processed <- t.events_processed + 1;
            f ())
          (hook (pop_batch t))
      | None ->
        let f = Event_queue.take t.queue ~clock:t.clock in
        t.events_processed <- t.events_processed + 1;
        f ()
    end
  done;
  t.events_processed - processed_before

let pending (t : t) : int = Event_queue.length t.queue
let peak_pending (t : t) : int = Event_queue.peak t.queue
let events_processed (t : t) : int = t.events_processed

let next_time (t : t) : float option =
  if Event_queue.length t.queue = 0 then None else Some (Event_queue.min_time t.queue)

(* Move the clock forward without running anything: the real-time
   driver advances virtual time to the wall-clock mapping between
   polls, so callbacks invoked from socket readiness see an up-to-date
   [now]. Never advances past a pending event (which would make its
   later execution move the clock backwards) and never moves back. *)
let advance_to (t : t) (time : float) : unit =
  let ceiling = Float.min time (Event_queue.min_time t.queue) in
  if ceiling > t.clock.(0) then t.clock.(0) <- ceiling
