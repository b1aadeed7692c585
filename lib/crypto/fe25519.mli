(** Fixed-limb arithmetic in GF(2{^255} - 19): ten 26-bit limbs in
    native ints, computed in place. The test suite cross-checks every
    operation against the generic [Nat] field ([Ed25519.Fp]).

    Multiply and square have two kernels that compute the same field
    elements. Where the C compiler has [unsigned __int128], each is one
    C call ([fe25519_stubs.c]), and so is each run of squarings in
    [inv] and [sqrt_ratio]; every other host runs a pure-OCaml kernel.
    The choice is made once, at module initialisation, from what the
    build observed and nothing else: there is no flag, setting or
    environment variable for it.

    Values are weakly reduced: limbs 0..8 lie in \[0, 2{^26}), limb 9
    in \[0, 2{^21} + 8), so a value is below 2{^255} + 2{^237} < 2p and
    one field element may have two representatives. Every operation
    takes and returns that form. Only [equal], [is_zero], [parity],
    [to_bytes] and [to_nat] canonicalise (reduce below p), and they do
    so without changing their argument.

    The [*_into] operations write their result into the destination,
    their first argument, which may alias an operand. The functional
    forms allocate the destination. *)

type t

val zero : unit -> t
val one : unit -> t
val copy : t -> t

val of_int : int -> t
(** A nonnegative int. *)

val of_nat : Nat.t -> t
(** Reduces mod p. *)

val to_nat : t -> Nat.t

val of_bytes : string -> t option
(** The low 255 bits of 32 little-endian bytes (bit 255 is ignored),
    or [None] if they are not below p. *)

val to_bytes : t -> bytes
(** The canonical value, 32 fresh little-endian bytes with bit 255
    clear. *)

val equal : t -> t -> bool
val is_zero : t -> bool

val parity : t -> int
(** The low bit of the canonical representative. *)

val add_into : t -> t -> t -> unit
val sub_into : t -> t -> t -> unit
val neg_into : t -> t -> unit
val mul_into : t -> t -> t -> unit
val sqr_into : t -> t -> unit
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val sqr : t -> t

val kernel : string
(** The kernel [mul_into] and [sqr_into] run on this host: ["c"] or
    ["ocaml"]. [Ed25519]'s point formulas and chains run in C exactly
    where this is ["c"]. *)

val ocaml_mul_into : t -> t -> t -> unit
val ocaml_sqr_into : t -> t -> unit
(** The pure-OCaml kernel, callable on every host: what [mul_into] and
    [sqr_into] are where the C kernel is missing, and what tests compare
    the C kernel against. Its result may be the other weakly reduced
    representative of the same element. *)

val pow : t -> Nat.t -> t
(** Square-and-multiply exponentiation (the generic oracle path). *)

val inv : t -> t
(** Multiplicative inverse: Fermat by addition chain (254 squarings in
    11 runs + 11 multiplies). *)

val inv_many : t array -> t array
(** All inverses with one field inversion (Montgomery's trick). Zero
    entries map to zero. *)

val sqrt_m1 : t
(** A square root of -1 (derived, not transcribed). *)

val sqrt_ratio : u:t -> v:t -> t option
(** [sqrt_ratio ~u ~v] is some [x] with [v * x^2 = u], if one exists:
    the combined decompression trick, one addition chain and no
    inversion. *)
