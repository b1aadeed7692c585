(** Binary min-heap of timestamped events with FIFO tie-breaking.

    The heap's own arrays hold only unboxed data (float times, int
    insertion sequence numbers, int slot ids), so moving an entry during
    a sift writes no pointer and never runs the GC write barrier.
    Payloads live in a slot store: a push writes its slot once and a
    take clears it once, so a taken payload is collectable at once and a
    drained queue keeps none alive. Freed slots are reused.

    [due] and [take] are what a dispatch loop needs per event, and
    neither allocates: floats only enter them as arguments, and [take]
    writes the taken time into a caller-owned float cell instead of
    returning it (a float returned across a module boundary is boxed
    unless the call is inlined). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int

val peak : 'a t -> int
(** High-water mark of simultaneously pending entries over the queue's
    lifetime. *)

val push : 'a t -> time:float -> 'a -> unit

val min_time : 'a t -> float
(** Time of the earliest entry; [infinity] when the queue is empty. *)

val due : 'a t -> float -> bool
(** [due q time]: the queue is non-empty and its earliest entry is not
    later than [time]. *)

val take : 'a t -> clock:float array -> 'a
(** Remove the earliest entry (ties in push order), store its time in
    [clock.(0)] and return its payload.
    @raise Invalid_argument when the queue is empty. *)
