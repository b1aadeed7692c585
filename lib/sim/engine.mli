(** Discrete-event simulation loop: a virtual clock plus a queue of
    thunks. Fully deterministic (FIFO tie-breaking). *)

type t

val create : unit -> t
val now : t -> float

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** @raise Invalid_argument on negative delays. *)

val at : t -> time:float -> (unit -> unit) -> unit
(** Absolute-time scheduling; past times are clamped to now. *)

val run : t -> ?until:float -> ?max_events:int -> unit -> int
(** Process events until the queue drains, the clock passes [until], or
    [max_events] have run. Returns the number processed. Without a
    reorder hook, the loop allocates nothing per event. *)

val set_reorder_hook : t -> ((unit -> unit) array -> (unit -> unit) array) option -> unit
(** Scheduler hook for the model checker: events sharing a timestamp
    are popped as a batch and the hook returns them in the order to
    execute, letting a checker permute FIFO tie-breaking (the one
    ordering freedom a discrete-event run has). Events a batch
    schedules at the same time form a later batch; [max_events] is
    checked between batches while a hook is installed, and the clock is
    already at the batch's time when the hook runs. [None] restores
    deterministic FIFO. *)

val pending : t -> int

val peak_pending : t -> int
(** High-water mark of simultaneously pending events over the engine's
    lifetime (the queue's live-heap peak). *)

val events_processed : t -> int
(** Total events executed since creation. *)

val next_time : t -> float option
(** Timestamp of the earliest pending event, if any. *)

val advance_to : t -> float -> unit
(** Move the virtual clock forward to [time] without running events -
    clamped so it never passes a pending event and never moves
    backwards. Used by real-time drivers that map wall-clock onto the
    virtual clock between socket polls. *)
