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
    fast paths below; production code uses the engine. *)

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

type split
(** Tables for a point [P] multiplied a few dozen times (the VRF's
    per-input hash-to-curve point): affine odd multiples of [P] and of
    [P' = 2{^128}P]. *)

val split_of_point : point -> split
(** Build [P]'s split tables: 128 doublings, two 8-entry tables and one
    shared inversion, about 150 point operations. *)

val split_mult : split -> Nat.t -> point
(** [k*P] for [k = k_lo + 2{^128}k_hi], unreduced and so exact for any
    [P]: two w-NAF digit streams on one doubling chain, 128 steps for
    [k] below 2{^256}. *)

val split_mult_sub : split -> Nat.t -> Nat.t -> point -> point
(** [split_mult_sub t k c Q = k*P - c*Q] on one shared doubling chain;
    [c] runs unreduced off a per-call table, so the result is exact for
    [Q] of any order. *)

val scalar_mult_fast : Nat.t -> point -> point
(** Variable-base width-5 w-NAF with an 8-entry odd-multiples table.
    The scalar is {e not} reduced mod [order], so the result is exact
    on the whole curve group including small-order and mixed-order
    points (this is what makes it usable as the subgroup test). *)

val double_scalar_mult_base : Nat.t -> Nat.t -> point -> point
(** [double_scalar_mult_base a b Q = a*B + b*Q] with one shared
    doubling chain (Strauss-Shamir); [a] runs width-7 off the base
    w-NAF table, [b] width-5 off a per-call table. *)

val double_scalar_mult : Nat.t -> point -> Nat.t -> point -> point
(** [double_scalar_mult a P b Q = a*P + b*Q], both variable-base. *)

val multi_scalar_mult_base : base_scalar:Nat.t -> (Nat.t * point) list -> point
(** [base_scalar*B + sum k_i*P_i] in a single interleaved chain; the
    workhorse of batch verification. *)

val in_prime_subgroup : point -> bool
(** [L]P = O — membership in the prime-order subgroup. *)

val decode_checked : string -> point option
(** [decode] restricted to canonical encodings of prime-subgroup
    points. Memoized in a bounded cache: committee public keys repeat
    across votes, so the subgroup check amortizes to a hash lookup. *)

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
(** Checks [s*B - e*A = R] with one Strauss-Shamir chain. Rejects
    public keys outside the prime subgroup (small-order-component
    forgeries) and non-canonical encodings. *)

val verify_ref : public:public -> msg:string -> signature:string -> bool
(** The pre-engine naive verifier, kept as a behavioral oracle for the
    tests. No subgroup check — the small-order forgery test relies on
    this to demonstrate the attack [verify] now rejects. *)

val verify_batch : (public * string * string) list -> bool
(** [verify_batch \[(pk, msg, signature); ...\]] checks all signatures
    at once via a random linear combination with 128-bit coefficients
    drawn from a deterministic DRBG seeded by the batch contents; a
    batch with any invalid signature is rejected except with
    probability ~2{^-128}. Several times cheaper per signature than
    [verify]. The empty batch is valid. *)
