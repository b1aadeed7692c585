(** The ed25519 twisted Edwards curve with Schnorr signatures.

    Group constants are derived (not transcribed) and self-checked at
    module initialization. The signature scheme is Schnorr with SHA-256
    and is not RFC 8032 wire-compatible; Algorand is a closed system so
    no interop is required (see DESIGN.md, substitution 2). *)

module Fp : sig
  val p : Nat.t
  val zero : Nat.t
  val one : Nat.t
  val add : Nat.t -> Nat.t -> Nat.t
  val sub : Nat.t -> Nat.t -> Nat.t
  val mul : Nat.t -> Nat.t -> Nat.t
  val sqr : Nat.t -> Nat.t
  val neg : Nat.t -> Nat.t
  val inv : Nat.t -> Nat.t
  val pow : Nat.t -> Nat.t -> Nat.t
  val sqrt : Nat.t -> Nat.t option
  val of_int : int -> Nat.t
end

type point

val order : Nat.t
(** Order of the prime subgroup (the scalar group). *)

val mod_order : Nat.t -> Nat.t
(** [x mod order], by folding [2{^252} = -delta (mod L)], where
    [L = 2{^252} + delta]: three folds for a 512-bit input, against
    [Nat.rem]'s bit-by-bit division. *)

val scalar_of_hash : string -> Nat.t
(** A uniform nonzero scalar from hash bytes (read little-endian):
    [1 + (h mod (L - 1))], reduced by the same fold with [delta - 1]. *)

val identity : point
val base : point
val add : point -> point -> point
val double : point -> point
val neg : point -> point
val scalar_mult : Nat.t -> point -> point
(** Naive double-and-add. Kept as the randomized-test oracle for the
    fast paths below; production code uses the engine. It, [add] and
    [double] run the OCaml point formulas on every host, so they share
    no point code with the engine's C kernel. *)

val equal_points : point -> point -> bool
val on_curve : point -> bool
val to_affine : point -> Nat.t * Nat.t

val to_affine_many : point array -> (Nat.t * Nat.t) array
(** Affine coordinates for a whole array with a single field inversion
    (Montgomery-batched); identity maps to [(0, 1)]. *)

val encode : point -> string
(** 32-byte compressed encoding (little-endian y, x parity in the top bit). *)

val encode_many : point array -> string array
(** [encode] for a whole array with one shared field inversion. *)

val decode : string -> point option

(** {1 Fast scalar-multiplication engine}

    All fast paths are cross-checked against the naive [scalar_mult]
    oracle: once at module initialization, and on thousands of random
    scalars in the test suite. *)

val scalar_mult_base : Nat.t -> point
(** [k*B] off the precomputed radix-16 comb table for the base point
    (64 positions x 15 odd multiples): ~64 mixed additions, no
    doublings. The scalar is reduced mod [order]. *)

type table
(** Affine odd multiples [P, 3P, ..., 15P] of [P] and of its shifts
    [2{^s}P, 2{^2s}P, ...], one row each: a scalar below 2{^256} runs
    as [256/s] digit streams on one [s + 1]-step doubling chain. *)

val table_of_point : parts:int -> point -> table
(** [parts] rows ([s = 256 / parts]): [256 - s] doublings, [8 * parts]
    additions and one inversion. *)

val base_table : table
(** [B]'s 4-row table. *)

type term
(** A scalar (little-endian bytes) times a point, exact for a point of
    any order: [~neg:true] negates it. *)

val term : ?neg:bool -> string -> point -> term
(** Off odd multiples of the point built per call; any scalar length. *)

val table_term : ?neg:bool -> string -> table -> term
(** Off the point's table; at most 32 scalar bytes. *)

val mult : term list -> point
(** The sum of the terms, on one doubling chain: one C call where the
    field kernel is C ([Fe25519.kernel]), else the OCaml chain. *)

val ocaml_mult : term list -> point
(** [mult] on the OCaml chain and point formulas on every host: a probe
    for the tests, which hold the C chain against it. *)

val decode_checked : string -> point option
(** [decode] restricted to canonical encodings of prime-subgroup
    points. Memoized in a bounded cache: committee public keys repeat
    across votes, so the subgroup check amortizes to a hash lookup. *)

val key_term : ?neg:bool -> string -> string -> term option
(** A term for the scalar [k] (at most 32 bytes) times the key [pk], if
    [pk] passes [decode_checked]: off the key's 4-row table, which a
    single check ([key_term], [verify]) builds when the key's previous
    single check came fewer than 512 untabled keys before; else off
    per-call odd multiples. At most 1,024 tables are held. *)

val has_table : string -> bool
(** Whether the key holds a table now: a probe for tests. *)

(** {1 Schnorr signatures} *)

type secret
type public = string

val generate : seed:string -> secret
(** Deterministic key generation from an arbitrary seed string. *)

val public_key : secret -> public

val secret_scalar : secret -> Nat.t
(** The private scalar; consumed by the VRF (Gamma = scalar * H). *)

val secret_seed : secret -> string
(** The generation seed; consumed by the VRF for deterministic nonces. *)

val signature_length : int
val sign : secret -> string -> string

val verify : public:public -> msg:string -> signature:string -> bool
(** Checks [s*B - e*A = R] on one chain, 65 steps once [A] has a
    table. Rejects public keys outside the prime subgroup
    (small-order-component forgeries) and non-canonical encodings. *)

val verify_ref : public:public -> msg:string -> signature:string -> bool
(** The pre-engine naive verifier, kept as a behavioral oracle for the
    tests. No subgroup check — the small-order forgery test relies on
    this to demonstrate the attack [verify] now rejects. *)

val verify_batch : (public * string * string) list -> bool
(** [verify_batch \[(pk, msg, signature); ...\]] checks all signatures
    at once via a random linear combination with 128-bit coefficients
    drawn from a deterministic DRBG seeded by the batch contents; a
    batch with any invalid signature is rejected except with
    probability ~2{^-128}. Cheaper per signature than [verify] under
    keys without tables. It reads key tables but never builds one. The
    empty batch is valid. *)
