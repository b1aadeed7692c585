(** Addition chains for exponentiation in GF(2{^255} - 19), shared by
    the fixed-limb field ([Fe25519]) and the arbitrary-precision oracle
    field ([Ed25519.Fp]): 254 squarings + 11 multiplications instead of
    the generic square-and-multiply's ~127 multiplications.

    Both run over in-place operations: [mul r a b] sets [r] to [a * b]
    and [sqr_n r a n] sets [r] to [a{^2{^n}}] for [n >= 1], where [r]
    may alias an operand; [fresh ()] makes one of the chain's four
    registers. The squarings come in runs of up to 100, one [sqr_n]
    call each. The result is written to the first register argument,
    which may alias [z]. *)

val pow_p_minus_2 :
  mul:('a -> 'a -> 'a -> unit) -> sqr_n:('a -> 'a -> int -> unit) -> fresh:(unit -> 'a) -> 'a -> 'a -> unit
(** [pow_p_minus_2 ~mul ~sqr_n ~fresh r z] sets [r] to [z{^p-2}], the
    Fermat inverse exponent [2{^255} - 21]. *)

val pow_2_252_minus_3 :
  mul:('a -> 'a -> 'a -> unit) -> sqr_n:('a -> 'a -> int -> unit) -> fresh:(unit -> 'a) -> 'a -> 'a -> unit
(** [pow_2_252_minus_3 ~mul ~sqr_n ~fresh r z] sets [r] to
    [z{^(p-5)/8}] [= z{^2{^252} - 3}], the square-root exponent. *)
