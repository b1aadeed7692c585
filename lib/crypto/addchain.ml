(* Addition chains for the two exponents the curve arithmetic needs in
   GF(p), p = 2^255 - 19:

     p - 2       = 2^255 - 21   (Fermat inversion)
     (p - 5) / 8 = 2^252 - 3    (the square-root / sqrt-ratio exponent)

   Both share the classic ref10/libsodium ladder built from the values
   z^(2^k - 1): 254 squarings + 11 multiplications for the inverse,
   against ~255 squarings + ~127 multiplications for the generic
   bit-scan exponentiation they replace. The chain is written once,
   over in-place [mul r a b] (r := a * b) and [sqr_n r a n]
   (r := a^(2^n), n >= 1), where r may alias an operand, plus [fresh]
   for its four registers. The squarings come in runs, one [sqr_n]
   each, so a field can keep an element loaded through a whole run
   (Fe25519's C kernel does). The fixed-limb field (Fe25519) runs the
   chain on its limb arrays and the arbitrary-precision oracle field
   (Ed25519.Fp) on refs, so both run the identical sequence and
   cross-check each other in the tests. *)

(* The shared ladder: leaves z^11 in t0 and z^(2^250 - 1) in t1. *)
let ladder ~mul ~sqr_n ~fresh z =
  let t0 = fresh () and t1 = fresh () and t2 = fresh () and t3 = fresh () in
  sqr_n t0 z 1 (* z^2 *);
  sqr_n t1 t0 2 (* z^8 *);
  mul t1 z t1 (* z^9 *);
  mul t0 t0 t1 (* z^11 *);
  sqr_n t2 t0 1 (* z^22 *);
  mul t1 t1 t2 (* z^(2^5 - 1) *);
  sqr_n t2 t1 5;
  mul t1 t2 t1 (* z^(2^10 - 1) *);
  sqr_n t2 t1 10;
  mul t2 t2 t1 (* z^(2^20 - 1) *);
  sqr_n t3 t2 20;
  mul t2 t3 t2 (* z^(2^40 - 1) *);
  sqr_n t2 t2 10;
  mul t1 t2 t1 (* z^(2^50 - 1) *);
  sqr_n t2 t1 50;
  mul t2 t2 t1 (* z^(2^100 - 1) *);
  sqr_n t3 t2 100;
  mul t2 t3 t2 (* z^(2^200 - 1) *);
  sqr_n t2 t2 50;
  mul t1 t2 t1 (* z^(2^250 - 1) *);
  (t0, t1)

(* r := z^(p - 2) = z^(2^255 - 21) = (z^(2^250 - 1))^(2^5) * z^11. *)
let pow_p_minus_2 ~mul ~sqr_n ~fresh r z =
  let z11, z_250_0 = ladder ~mul ~sqr_n ~fresh z in
  sqr_n z_250_0 z_250_0 5;
  mul r z_250_0 z11

(* r := z^((p - 5) / 8) = z^(2^252 - 3) = (z^(2^250 - 1))^(2^2) * z. *)
let pow_2_252_minus_3 ~mul ~sqr_n ~fresh r z =
  let _, z_250_0 = ladder ~mul ~sqr_n ~fresh z in
  sqr_n z_250_0 z_250_0 2;
  mul r z_250_0 z
