(** File-backed block/certificate storage (two Codec-encoded files per
    round, each written crash-atomically via temp file + rename).
    Loading returns an *unvalidated* history; feed it to
    {!History.replay}, which re-checks every certificate, so a tampered
    store is rejected rather than trusted. *)

val write_file : string -> string -> unit
(** [write_file path data], crash-atomically: under a temp name, then
    renamed into place. *)

val read_file : string -> string option
(** The whole file, or [None] when it does not exist. *)

val mkdir_p : string -> unit
(** Create a directory and any missing parents; an existing directory,
    or one a concurrent process creates first, is not an error. *)

val save : string -> History.item list -> unit
(** [save dir items] writes each round's block and certificate under
    [dir] (created if needed). Each file lands atomically; the
    certificate is written before the block, so a round whose block
    file exists is complete. *)

val stored_rounds : string -> int list

type load_error = [ `Missing of int | `Corrupt of int ]

val pp_load_error : Format.formatter -> load_error -> unit

val load : ?up_to_round:int -> string -> History.item list * load_error option
(** Read rounds 1.. (up to [up_to_round], default unlimited) back as a
    catch-up history. Tolerates a truncated or corrupted tail - the
    debris of a crash mid-checkpoint - by returning the longest valid
    prefix plus the reason the scan stopped ([None] when every
    requested round was read). *)

val size_bytes : string -> int
(** Total bytes on disk - the measured form of the section 10.3
    storage-cost accounting. *)

val node_dir : root:string -> pk:string -> string
(** The state directory for one identity under a shared root:
    [root/node-<hex16 of sha256(pk)>]. Daemons derive their directory
    from their own public key, so any number of processes can share
    one [--store] root without colliding. *)
