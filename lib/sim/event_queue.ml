(* A binary min-heap of timestamped events whose heap arrays hold no
   pointers. Three parallel columns are indexed by heap position (1 is
   the root; 0 is unused): an unboxed float array of times, an int
   array of insertion sequence numbers and an int array of slot ids.
   The payloads sit in a separate slot store and never move while the
   heap is sifted. Ties are broken by insertion sequence, so the order
   is (time, seq) and every run is deterministic.

   Why: a sift moves entries up or down O(log n) levels. When the
   payload column was part of the heap, each level swapped two pointer
   slots and each of those writes went through [caml_modify], the GC
   write barrier; at 30-50k pending events that was the largest cost
   left in the population engine's round. Float and int stores need no
   barrier. Sifts also move a hole rather than swapping, so each level
   writes one entry instead of two.

   The slot store is an [Obj.t] array created from an immediate
   ([Obj.repr 0]), so its runtime representation is a generic (boxed)
   array - never the flat-float form - and any value, boxed or
   immediate, can be stored in it. A live slot holds an ['a] written by
   [push]; a free slot holds, as an immediate int, the next free slot
   (-1 ends the list). The free list is threaded through the store, so
   it costs no column of its own, and clearing a slot on [take] is the
   same single write that links it into the list. Only [take] reads a
   slot back as ['a], and only through a heap entry, which always names
   a live slot. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable store : Obj.t array;
  mutable free : int;  (* head of the free-slot list, -1 when empty *)
  mutable size : int;
  mutable next_seq : int;
  mutable peak : int;
}

let create () : 'a t =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    store = [||];
    free = -1;
    size = 0;
    next_seq = 0;
    peak = 0;
  }

(* Sifts index the columns without bounds checks: every position they
   touch is in [1, size], and [push] grows the columns so that
   [size < Array.length times] always holds. *)
external unsafe_get : 'a array -> int -> 'a = "%array_unsafe_get"
external unsafe_set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

let length (t : 'a t) : int = t.size
let peak (t : 'a t) : int = t.peak

(* Fresh columns are seeded from constants, not from a live entry, so
   growth holds no stray reference to any payload. *)
let grow (t : 'a t) : unit =
  let cap = Array.length t.times in
  let ncap = max 16 (2 * cap) in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- extend t.times 0.0;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.store <- extend t.store (Obj.repr 0)

let push (t : 'a t) ~(time : float) (payload : 'a) : unit =
  if t.size + 1 >= Array.length t.times then grow t;
  (* With no free slot, every slot handed out so far is live, so the
     next fresh one is [size]. *)
  let slot =
    if t.free < 0 then t.size
    else begin
      let s = t.free in
      t.free <- (Obj.obj t.store.(s) : int);
      s
    end
  in
  t.store.(slot) <- Obj.repr payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  if t.size > t.peak then t.peak <- t.size;
  (* Sift a hole up from the new leaf. The new entry's seq is the
     largest in the heap, so it passes a parent only on a strictly
     earlier time. *)
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref t.size in
  while !i > 1 && time < unsafe_get times (!i / 2) do
    let p = !i / 2 in
    unsafe_set times !i (unsafe_get times p);
    unsafe_set seqs !i (unsafe_get seqs p);
    unsafe_set slots !i (unsafe_get slots p);
    i := p
  done;
  unsafe_set times !i time;
  unsafe_set seqs !i seq;
  unsafe_set slots !i slot

let min_time (t : 'a t) : float = if t.size = 0 then infinity else t.times.(1)
let due (t : 'a t) (time : float) : bool = t.size > 0 && not (t.times.(1) > time)

let take (t : 'a t) ~(clock : float array) : 'a =
  let n = t.size in
  if n = 0 then invalid_arg "Event_queue.take: empty queue";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  clock.(0) <- times.(1);
  let slot = slots.(1) in
  let payload : 'a = Obj.obj t.store.(slot) in
  t.store.(slot) <- Obj.repr t.free;
  t.free <- slot;
  let size = n - 1 in
  t.size <- size;
  (* Sift a hole down from the root and drop the last entry into it. *)
  let time = unsafe_get times n and seq = unsafe_get seqs n in
  let i = ref 1 in
  let sifting = ref true in
  while !sifting do
    let c = 2 * !i in
    if c > size then sifting := false
    else begin
      let c =
        if
          c < size
          && (unsafe_get times (c + 1) < unsafe_get times c
             || (unsafe_get times (c + 1) = unsafe_get times c
                && unsafe_get seqs (c + 1) < unsafe_get seqs c))
        then c + 1
        else c
      in
      if unsafe_get times c < time || (unsafe_get times c = time && unsafe_get seqs c < seq)
      then begin
        unsafe_set times !i (unsafe_get times c);
        unsafe_set seqs !i (unsafe_get seqs c);
        unsafe_set slots !i (unsafe_get slots c);
        i := c
      end
      else sifting := false
    end
  done;
  unsafe_set times !i time;
  unsafe_set seqs !i seq;
  unsafe_set slots !i (unsafe_get slots n);
  payload
