(* Fixed-size field arithmetic for GF(p), p = 2^255 - 19.

   Ten 26-bit limbs in native ints (limb i is worth 2^26i), written in
   place: every [*_into] operation takes its destination first and
   computes into local ints before it stores, so the destination may
   alias either operand. The generic Nat-based field in Ed25519.Fp
   remains the oracle the tests compare against.

   Multiply, square and n-fold square have two kernels: the OCaml one
   below ([ocaml_mul_into], [ocaml_sqr_into]) and a C one over 128-bit
   columns (fe25519_stubs.c, over the word arithmetic of fe25519.h that
   Ed25519's point kernel shares), used wherever the C compiler has
   them.

   Values are kept *weakly* reduced. The invariant every operation
   takes and returns:

   - limbs 0..8 lie in [0, 2^26);
   - limb 9 lies in [0, 2^21 + 8);
   - hence the value is below 2^255 + 2^237 < 2p.

   Each integer below 2^255 + 2^237 has exactly one such limb form, but
   a field element has two candidates (v and v + p when v < 2^237 + 19),
   so values are canonicalised (reduced below p) only where the
   representative is observed: [equal], [is_zero], [parity], [to_bytes]
   and [to_nat].

   Bounds behind the arithmetic:

   - a product column sums at most 10 limb products, each below
     2^26 * 2^26, so it stays below 2^56 in a 63-bit native int;
   - column 10+k is worth 2^(260+26k) = 608 * 2^26k (mod p), since
     2^255 = 19 (mod p) and 19 * 2^5 = 608. Each high column is split at
     2^26 before the multiplication by 608, so no product overflows;
   - [add] sums stay below 2^27, and [sub] adds 4p limb by limb, which
     keeps every limb nonnegative; one carry pass, begun by folding
     limb 9's bits from 2^255 up with x19, restores the invariant. *)

let limbs = 10
let mask = (1 lsl 26) - 1
let mask21 = (1 lsl 21) - 1

type t = int array

let zero () : t = Array.make limbs 0

let one () : t =
  let a = zero () in
  a.(0) <- 1;
  a

let copy : t -> t = Array.copy

(* Monomorphic, so limb accesses compile to plain loads and stores. *)
let get (a : t) (i : int) : int = Array.unsafe_get a i [@@inline]
let set (a : t) (i : int) (v : int) : unit = Array.unsafe_set a i v [@@inline]

(* Store r0..r9 after one carry pass that starts by folding limb 9's
   bits from 2^255 up into limb 0. Limbs 1..8 below 5 * 2^26 and limb 0
   below 2^41 keep every carry into limbs 2..9 at most 5, so limb 9
   ends below 2^21 + 8. *)
let carry_store (dst : t) r0 r1 r2 r3 r4 r5 r6 r7 r8 r9 =
  let r0 = r0 + (19 * (r9 asr 21)) in
  let r9 = r9 land mask21 in
  let r1 = r1 + (r0 asr 26) in
  let r2 = r2 + (r1 asr 26) in
  let r3 = r3 + (r2 asr 26) in
  let r4 = r4 + (r3 asr 26) in
  let r5 = r5 + (r4 asr 26) in
  let r6 = r6 + (r5 asr 26) in
  let r7 = r7 + (r6 asr 26) in
  let r8 = r8 + (r7 asr 26) in
  set dst 9 (r9 + (r8 asr 26));
  set dst 0 (r0 land mask);
  set dst 1 (r1 land mask);
  set dst 2 (r2 land mask);
  set dst 3 (r3 land mask);
  set dst 4 (r4 land mask);
  set dst 5 (r5 land mask);
  set dst 6 (r6 land mask);
  set dst 7 (r7 land mask);
  set dst 8 (r8 land mask)

let add_into (dst : t) (a : t) (b : t) : unit =
  carry_store dst
    (get a 0 + get b 0) (get a 1 + get b 1) (get a 2 + get b 2) (get a 3 + get b 3)
    (get a 4 + get b 4) (get a 5 + get b 5) (get a 6 + get b 6) (get a 7 + get b 7)
    (get a 8 + get b 8) (get a 9 + get b 9)

(* 4p in limb form: [4 * (2^26 - 19); 4 * (2^26 - 1) x8; 4 * (2^21 - 1)].
   Each limb exceeds the matching limb bound of [b]. *)
let p4_0 = 4 * (mask - 18)
let p4_i = 4 * mask
let p4_9 = 4 * mask21

let sub_into (dst : t) (a : t) (b : t) : unit =
  carry_store dst
    (get a 0 + p4_0 - get b 0) (get a 1 + p4_i - get b 1) (get a 2 + p4_i - get b 2)
    (get a 3 + p4_i - get b 3) (get a 4 + p4_i - get b 4) (get a 5 + p4_i - get b 5)
    (get a 6 + p4_i - get b 6) (get a 7 + p4_i - get b 7) (get a 8 + p4_i - get b 8)
    (get a 9 + p4_9 - get b 9)

let neg_into (dst : t) (a : t) : unit =
  carry_store dst (p4_0 - get a 0) (p4_i - get a 1) (p4_i - get a 2) (p4_i - get a 3)
    (p4_i - get a 4) (p4_i - get a 5) (p4_i - get a 6) (p4_i - get a 7) (p4_i - get a 8)
    (p4_9 - get a 9)

(* Reduce a 19-column product into [dst]. Fold the high columns with
   608 (split at 2^26, see the header), carry once up to limb 9, fold
   limb 9's bits from 2^255 up with 19, and carry once more. The first
   carry leaves limb 9 below 2^56, so the second fold adds less than
   2^40 to limb 0, and the second pass leaves limb 9 at most 2^21. *)
let reduce_store (dst : t) c0 c1 c2 c3 c4 c5 c6 c7 c8 c9 c10 c11 c12 c13 c14 c15 c16 c17 c18
    =
  let r0 = c0 + (608 * (c10 land mask)) in
  let r1 = c1 + (608 * ((c11 land mask) + (c10 asr 26))) in
  let r2 = c2 + (608 * ((c12 land mask) + (c11 asr 26))) in
  let r3 = c3 + (608 * ((c13 land mask) + (c12 asr 26))) in
  let r4 = c4 + (608 * ((c14 land mask) + (c13 asr 26))) in
  let r5 = c5 + (608 * ((c15 land mask) + (c14 asr 26))) in
  let r6 = c6 + (608 * ((c16 land mask) + (c15 asr 26))) in
  let r7 = c7 + (608 * ((c17 land mask) + (c16 asr 26))) in
  let r8 = c8 + (608 * ((c18 land mask) + (c17 asr 26))) in
  let r9 = c9 + (608 * (c18 asr 26)) in
  let r1 = r1 + (r0 asr 26) in
  let r2 = r2 + (r1 asr 26) in
  let r3 = r3 + (r2 asr 26) in
  let r4 = r4 + (r3 asr 26) in
  let r5 = r5 + (r4 asr 26) in
  let r6 = r6 + (r5 asr 26) in
  let r7 = r7 + (r6 asr 26) in
  let r8 = r8 + (r7 asr 26) in
  let r9 = r9 + (r8 asr 26) in
  carry_store dst (r0 land mask) (r1 land mask) (r2 land mask) (r3 land mask) (r4 land mask)
    (r5 land mask) (r6 land mask) (r7 land mask) (r8 land mask) r9

let ocaml_mul_into (dst : t) (a : t) (b : t) : unit =
  let a0 = get a 0 and a1 = get a 1 and a2 = get a 2 and a3 = get a 3 and a4 = get a 4 in
  let a5 = get a 5 and a6 = get a 6 and a7 = get a 7 and a8 = get a 8 and a9 = get a 9 in
  let b0 = get b 0 and b1 = get b 1 and b2 = get b 2 and b3 = get b 3 and b4 = get b 4 in
  let b5 = get b 5 and b6 = get b 6 and b7 = get b 7 and b8 = get b 8 and b9 = get b 9 in
  reduce_store dst (a0 * b0)
    ((a0 * b1) + (a1 * b0))
    ((a0 * b2) + (a1 * b1) + (a2 * b0))
    ((a0 * b3) + (a1 * b2) + (a2 * b1) + (a3 * b0))
    ((a0 * b4) + (a1 * b3) + (a2 * b2) + (a3 * b1) + (a4 * b0))
    ((a0 * b5) + (a1 * b4) + (a2 * b3) + (a3 * b2) + (a4 * b1) + (a5 * b0))
    ((a0 * b6) + (a1 * b5) + (a2 * b4) + (a3 * b3) + (a4 * b2) + (a5 * b1) + (a6 * b0))
    ((a0 * b7) + (a1 * b6) + (a2 * b5) + (a3 * b4) + (a4 * b3) + (a5 * b2) + (a6 * b1)
    + (a7 * b0))
    ((a0 * b8) + (a1 * b7) + (a2 * b6) + (a3 * b5) + (a4 * b4) + (a5 * b3) + (a6 * b2)
    + (a7 * b1) + (a8 * b0))
    ((a0 * b9) + (a1 * b8) + (a2 * b7) + (a3 * b6) + (a4 * b5) + (a5 * b4) + (a6 * b3)
    + (a7 * b2) + (a8 * b1) + (a9 * b0))
    ((a1 * b9) + (a2 * b8) + (a3 * b7) + (a4 * b6) + (a5 * b5) + (a6 * b4) + (a7 * b3)
    + (a8 * b2) + (a9 * b1))
    ((a2 * b9) + (a3 * b8) + (a4 * b7) + (a5 * b6) + (a6 * b5) + (a7 * b4) + (a8 * b3)
    + (a9 * b2))
    ((a3 * b9) + (a4 * b8) + (a5 * b7) + (a6 * b6) + (a7 * b5) + (a8 * b4) + (a9 * b3))
    ((a4 * b9) + (a5 * b8) + (a6 * b7) + (a7 * b6) + (a8 * b5) + (a9 * b4))
    ((a5 * b9) + (a6 * b8) + (a7 * b7) + (a8 * b6) + (a9 * b5))
    ((a6 * b9) + (a7 * b8) + (a8 * b7) + (a9 * b6))
    ((a7 * b9) + (a8 * b8) + (a9 * b7))
    ((a8 * b9) + (a9 * b8))
    (a9 * b9)

(* Squaring computes the symmetric half of the product once, against
   doubled limbs (55 limb products instead of 100). A column holds at
   most five terms below 2^27 * 2^26 and one square, so below 2^56. *)
let ocaml_sqr_into (dst : t) (a : t) : unit =
  let a0 = get a 0 and a1 = get a 1 and a2 = get a 2 and a3 = get a 3 and a4 = get a 4 in
  let a5 = get a 5 and a6 = get a 6 and a7 = get a 7 and a8 = get a 8 and a9 = get a 9 in
  let d0 = 2 * a0 and d1 = 2 * a1 and d2 = 2 * a2 and d3 = 2 * a3 and d4 = 2 * a4 in
  let d5 = 2 * a5 and d6 = 2 * a6 and d7 = 2 * a7 and d8 = 2 * a8 in
  reduce_store dst (a0 * a0) (d0 * a1)
    ((d0 * a2) + (a1 * a1))
    ((d0 * a3) + (d1 * a2))
    ((d0 * a4) + (d1 * a3) + (a2 * a2))
    ((d0 * a5) + (d1 * a4) + (d2 * a3))
    ((d0 * a6) + (d1 * a5) + (d2 * a4) + (a3 * a3))
    ((d0 * a7) + (d1 * a6) + (d2 * a5) + (d3 * a4))
    ((d0 * a8) + (d1 * a7) + (d2 * a6) + (d3 * a5) + (a4 * a4))
    ((d0 * a9) + (d1 * a8) + (d2 * a7) + (d3 * a6) + (d4 * a5))
    ((d1 * a9) + (d2 * a8) + (d3 * a7) + (d4 * a6) + (a5 * a5))
    ((d2 * a9) + (d3 * a8) + (d4 * a7) + (d5 * a6))
    ((d3 * a9) + (d4 * a8) + (d5 * a7) + (a6 * a6))
    ((d4 * a9) + (d5 * a8) + (d6 * a7))
    ((d5 * a9) + (d6 * a8) + (a7 * a7))
    ((d6 * a9) + (d7 * a8))
    ((d7 * a9) + (a8 * a8))
    (d8 * a9) (a9 * a9)

(* The C kernel (fe25519_stubs.c): the same operations over five
   52-bit words and 128-bit columns, one [@@noalloc] call each; an
   n-fold squaring keeps its element in words from the first squaring
   to the last. Its
   results meet the invariant above but may be the other representative
   of the same element, so only canonical observers can tell the two
   kernels apart, and they see the same value. It is used wherever the
   C compiler has [unsigned __int128]; [c_available] reports that, once,
   at module initialisation. *)
external c_available : unit -> bool = "algorand_fe25519_available" [@@noalloc]
external c_mul_into : t -> t -> t -> unit = "algorand_fe25519_mul" [@@noalloc]
external c_sqr_into : t -> t -> unit = "algorand_fe25519_sqr" [@@noalloc]
external c_sqr_n_into : t -> t -> int -> unit = "algorand_fe25519_sqr_n" [@@noalloc]

let c_kernel = c_available ()
let kernel = if c_kernel then "c" else "ocaml"

let mul_into (dst : t) (a : t) (b : t) : unit =
  if c_kernel then c_mul_into dst a b else ocaml_mul_into dst a b

let sqr_into (dst : t) (a : t) : unit =
  if c_kernel then c_sqr_into dst a else ocaml_sqr_into dst a

(* dst := a^(2^n), n >= 1. *)
let sqr_n_into (dst : t) (a : t) (n : int) : unit =
  if c_kernel then c_sqr_n_into dst a n
  else begin
    ocaml_sqr_into dst a;
    for _ = 2 to n do
      ocaml_sqr_into dst dst
    done
  end

(* Functional forms: one fresh destination each. *)
let add a b = let r = zero () in add_into r a b; r
let sub a b = let r = zero () in sub_into r a b; r
let neg a = let r = zero () in neg_into r a; r
let mul a b = let r = zero () in mul_into r a b; r
let sqr a = let r = zero () in sqr_into r a; r

(* ------------------------------------------------------------------ *)
(* Canonicalisation: the value v < 2p is reduced to v - qp, where       *)
(* q = (v + 19) >> 255 is 1 exactly when v >= p. Canonical limbs come  *)
(* out of one carry chain over v + 19q, with limb 9 cut to 21 bits.     *)
(* ------------------------------------------------------------------ *)

let quotient (a : t) : int =
  let c = ref 19 in
  for i = 0 to limbs - 2 do
    c := (get a i + !c) asr 26
  done;
  (get a 9 + !c) asr 21

let limb_mask i = if i = limbs - 1 then mask21 else mask

let equal (a : t) (b : t) : bool =
  let ca = ref (19 * quotient a) and cb = ref (19 * quotient b) in
  let same = ref true in
  for i = 0 to limbs - 1 do
    let x = get a i + !ca and y = get b i + !cb in
    if (x lxor y) land limb_mask i <> 0 then same := false;
    ca := x asr 26;
    cb := y asr 26
  done;
  !same

let is_zero (a : t) : bool =
  let c = ref (19 * quotient a) in
  let all_zero = ref true in
  for i = 0 to limbs - 1 do
    let x = get a i + !c in
    if x land limb_mask i <> 0 then all_zero := false;
    c := x asr 26
  done;
  !all_zero

let parity (a : t) : int = (get a 0 + (19 * quotient a)) land 1

(* The canonical value, 32 bytes little-endian (bit 255 clear). *)
let to_bytes (a : t) : bytes =
  let out = Bytes.create 32 in
  let c = ref (19 * quotient a) in
  let acc = ref 0 and nbits = ref 0 and pos = ref 0 in
  for i = 0 to limbs - 1 do
    let x = get a i + !c in
    c := x asr 26;
    acc := !acc lor ((x land limb_mask i) lsl !nbits);
    nbits := !nbits + if i = limbs - 1 then 21 else 26;
    while !nbits >= 8 do
      Bytes.unsafe_set out !pos (Char.unsafe_chr (!acc land 0xff));
      acc := !acc lsr 8;
      nbits := !nbits - 8;
      incr pos
    done
  done;
  Bytes.unsafe_set out 31 (Char.unsafe_chr !acc);
  out

(* The low 255 bits of 32 little-endian bytes, if they are below p. *)
let of_bytes (s : string) : t option =
  if String.length s <> 32 then invalid_arg "Fe25519.of_bytes";
  let a = zero () in
  let acc = ref 0 and nbits = ref 0 and pos = ref 0 in
  for i = 0 to limbs - 1 do
    let want = if i = limbs - 1 then 21 else 26 in
    while !nbits < want do
      acc := !acc lor (Char.code (String.unsafe_get s !pos) lsl !nbits);
      nbits := !nbits + 8;
      incr pos
    done;
    set a i (!acc land ((1 lsl want) - 1));
    acc := !acc lsr want;
    nbits := !nbits - want
  done;
  if quotient a = 0 then Some a else None

let to_nat (a : t) : Nat.t = Nat.of_bytes_le (Bytes.unsafe_to_string (to_bytes a))

let of_nat (n : Nat.t) : t =
  match of_bytes (Nat.to_bytes_le (Nat.rem n Ed25519_p.p) ~len:32) with
  | Some a -> a
  | None -> assert false

let of_int (x : int) : t = of_nat (Nat.of_int x)

(* Square-and-multiply over the fast field: the generic path the tests
   hold the addition chains against. *)
let pow (base : t) (e : Nat.t) : t =
  let bits = Nat.bits e in
  let result = one () and b = copy base in
  let n = Array.length bits in
  for i = 0 to n - 1 do
    if bits.(i) = 1 then mul_into result result b;
    if i < n - 1 then sqr_into b b
  done;
  result

let chain f a =
  let r = zero () in
  f ~mul:mul_into ~sqr_n:sqr_n_into ~fresh:zero r a;
  r

(* Fermat inversion by addition chain: 254 squarings in 11 runs + 11
   multiplies. *)
let inv (a : t) : t = chain Addchain.pow_p_minus_2 a

(* ------------------------------------------------------------------ *)
(* Square roots and batched inversion.                                 *)
(* ------------------------------------------------------------------ *)

(* sqrt(-1) = 2^((p-1)/4); (p-1)/4 = 2^253 - 5 = 2*(2^252 - 3) + 1,
   so it falls out of the shared chain: (2^(2^252-3))^2 * 2. *)
let sqrt_m1 : t =
  let two = of_int 2 in
  mul (sqr (chain Addchain.pow_2_252_minus_3 two)) two

(* x with v * x^2 = u, if one exists: the combined Ed25519 decompression
   trick x = u * v^3 * (u * v^7)^((p-5)/8), patched by sqrt(-1) when the
   candidate squares to -u/v. One addition chain, no inversion. *)
let sqrt_ratio ~(u : t) ~(v : t) : t option =
  let v3 = sqr v in
  mul_into v3 v3 v;
  let x = sqr v3 in
  mul_into x x v;
  mul_into x x u (* u * v^7 *);
  let x = chain Addchain.pow_2_252_minus_3 x in
  mul_into x x v3;
  mul_into x x u;
  let check = sqr x in
  mul_into check check v;
  if equal check u then Some x
  else begin
    neg_into check check;
    if equal check u then begin
      mul_into x x sqrt_m1;
      Some x
    end
    else None
  end

(* All inverses with a single field inversion (Montgomery's trick):
   prefix products, one [inv], then walk back. Zero entries are mapped
   to zero (matching [neg]'s treatment of the non-invertible element). *)
let inv_many (xs : t array) : t array =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let prefix = Array.make n [||] in
    let acc = one () in
    for i = 0 to n - 1 do
      prefix.(i) <- copy acc;
      if not (is_zero xs.(i)) then mul_into acc acc xs.(i)
    done;
    let inv_acc = inv acc in
    let out = Array.init n (fun _ -> zero ()) in
    for i = n - 1 downto 0 do
      if not (is_zero xs.(i)) then begin
        mul_into out.(i) inv_acc prefix.(i);
        mul_into inv_acc inv_acc xs.(i)
      end
    done;
    out
  end
