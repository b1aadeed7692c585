(* The ed25519 twisted Edwards curve (-x^2 + y^2 = 1 + d x^2 y^2 over
   GF(2^255 - 19)) with Schnorr signatures.

   All group constants are computed rather than transcribed: d is
   -121665/121666, the base point is recovered from y = 4/5 with even x,
   and sqrt(-1) is 2^((p-1)/4). Module initialization asserts the base
   point is on the curve and that [L]B is the identity, so a derivation
   bug cannot go unnoticed.

   The signature scheme is textbook Schnorr over this curve with SHA-256
   as the hash (deliberately not RFC 8032 wire-compatible; this is a
   closed system with no interop requirement). *)

(* ------------------------------------------------------------------ *)
(* Field GF(p), p = 2^255 - 19, with pseudo-Mersenne reduction.        *)
(* ------------------------------------------------------------------ *)

module Fp = struct
  let p = Ed25519_p.p

  (* x mod p, folding the high part with 2^255 = 19 (mod p). *)
  let reduce (x : Nat.t) : Nat.t =
    let x = ref x in
    while Nat.bit_length !x > 255 do
      let lo = Nat.low_bits !x 255 and hi = Nat.shift_right !x 255 in
      x := Nat.add lo (Nat.mul_int hi 19)
    done;
    if Nat.compare !x p >= 0 then Nat.sub !x p else !x

  let zero = Nat.zero
  let one = Nat.one
  let add a b = reduce (Nat.add a b)
  let sub a b = if Nat.compare a b >= 0 then Nat.sub a b else Nat.sub (Nat.add a p) b
  let mul a b = reduce (Nat.mul a b)
  let sqr a = mul a a
  let neg a = if Nat.is_zero a then a else Nat.sub p a

  (* Generic square-and-multiply; the exponent's bits are extracted to
     an int array once rather than re-querying the arbitrary-precision
     layer per bit. *)
  let pow (base : Nat.t) (e : Nat.t) : Nat.t =
    let bits = Nat.bits e in
    let result = ref one in
    let b = ref (reduce base) in
    let n = Array.length bits in
    for i = 0 to n - 1 do
      if bits.(i) = 1 then result := mul !result !b;
      if i < n - 1 then b := sqr !b
    done;
    !result

  (* The shared addition chains run on refs as their registers. *)
  let chain f a =
    let r = ref zero in
    f
      ~mul:(fun r a b -> r := mul !a !b)
      ~sqr_n:(fun r a n ->
        r := sqr !a;
        for _ = 2 to n do
          r := sqr !r
        done)
      ~fresh:(fun () -> ref zero)
      r (ref a);
    !r

  let inv a = chain Addchain.pow_p_minus_2 a

  (* sqrt(-1) = 2^((p-1)/4); (p-1)/4 = 2*(2^252 - 3) + 1. *)
  let sqrt_m1 = mul (sqr (chain Addchain.pow_2_252_minus_3 Nat.two)) Nat.two

  (* Square root via the (p+3)/8 exponent trick, with the exponent
     (p+3)/8 = (p-5)/8 + 1 run as an addition chain. *)
  let sqrt (u : Nat.t) : Nat.t option =
    let u = reduce u in
    let cand = mul u (chain Addchain.pow_2_252_minus_3 u) in
    let c2 = sqr cand in
    if Nat.equal c2 u then Some cand
    else begin
      let cand' = mul cand sqrt_m1 in
      if Nat.equal (sqr cand') u then Some cand' else None
    end

  let of_int = Nat.of_int
end

(* Curve coefficient d = -121665/121666 and 2d. *)
let d = Fp.mul (Fp.neg (Fp.of_int 121665)) (Fp.inv (Fp.of_int 121666))
let two_d = Fp.add d d

(* ------------------------------------------------------------------ *)
(* Scalars mod L by folding.                                           *)
(*                                                                     *)
(* L = 2^252 + delta with delta below 2^125, so x = lo + hi * 2^252 is *)
(* congruent to lo - hi * delta, and hi * delta is 127 bits shorter    *)
(* than x: a 512-bit input folds three times. The same fold reduces   *)
(* mod L - 1 = 2^252 + (delta - 1). Nat's bit-by-bit division stays    *)
(* as the oracle the tests hold both folds against.                    *)
(* ------------------------------------------------------------------ *)

let delta = Nat.of_decimal "27742317777372353535851937790883648493"

(* Prime subgroup order L = 2^252 + delta. *)
let order = Nat.add (Nat.shift_left Nat.one 252) delta

(* x mod (2^252 + delta), for delta < 2^252. *)
let fold_rem ~(delta : Nat.t) ~(modulus : Nat.t) (x : Nat.t) : Nat.t =
  let rec go x =
    if Nat.bit_length x <= 252 then x
    else begin
      let m = go (Nat.mul (Nat.shift_right x 252) delta) in
      let lo = Nat.low_bits x 252 in
      if Nat.compare lo m >= 0 then Nat.sub lo m else Nat.sub (Nat.add lo modulus) m
    end
  in
  go x

let mod_order (x : Nat.t) : Nat.t = fold_rem ~delta ~modulus:order x
let order_minus_one = Nat.sub order Nat.one
let delta_minus_one = Nat.sub delta Nat.one

(* Uniform nonzero scalar: 1 + (h mod (L-1)). *)
let scalar_of_hash (h : string) : Nat.t =
  Nat.add Nat.one
    (fold_rem ~delta:delta_minus_one ~modulus:order_minus_one (Nat.of_bytes_le h))

(* ------------------------------------------------------------------ *)
(* Points in extended homogeneous coordinates (X : Y : Z : T).         *)
(*                                                                     *)
(* Coordinates live in the fixed-limb field (Fe25519). The point       *)
(* formulas exist twice: in OCaml below, writing into a destination   *)
(* point through four field registers, and in C (ed25519_stubs.c),    *)
(* one call per formula. The engine runs on the C formulas wherever   *)
(* the field kernel is C; the public [add], [double] and the naive    *)
(* [scalar_mult] always run the OCaml ones, so the oracle the tests   *)
(* hold the engine against shares no point code with it. The generic *)
(* Nat arithmetic remains the field oracle (Fp above). A point handed  *)
(* out by this module is never written again: only the fresh          *)
(* accumulators and tables of one call are destinations.              *)
(* ------------------------------------------------------------------ *)

module Fe = Fe25519

type point = { x : Fe.t; y : Fe.t; z : Fe.t; t : Fe.t }

(* Precomputed affine form (y+x, y-x, 2d*x*y), z = 1 implicit. *)
type precomp = { yplusx : Fe.t; yminusx : Fe.t; xy2d : Fe.t }

let two_d_fe = Fe.of_nat two_d
let d_fe = Fe.of_nat d
let fe_one = Fe.one ()

let fresh_identity () = { x = Fe.zero (); y = Fe.one (); z = Fe.one (); t = Fe.zero () }
let fresh_point () = { x = Fe.zero (); y = Fe.zero (); z = Fe.zero (); t = Fe.zero () }
let copy_point (p : point) = { x = Fe.copy p.x; y = Fe.copy p.y; z = Fe.copy p.z; t = Fe.copy p.t }
let identity = fresh_identity ()

let to_affine (p : point) : Nat.t * Nat.t =
  let zi = Fe.inv p.z in
  (Fe.to_nat (Fe.mul p.x zi), Fe.to_nat (Fe.mul p.y zi))

let on_curve (pt : point) : bool =
  let x, y = to_affine pt in
  let x2 = Fp.sqr x and y2 = Fp.sqr y in
  let lhs = Fp.sub y2 x2 in
  let rhs = Fp.add Fp.one (Fp.mul d (Fp.mul x2 y2)) in
  Nat.equal lhs rhs

(* The field registers the OCaml formulas work in. A formula runs no
   other formula while it holds them, so one set serves every call. *)
let s0 = Fe.zero ()
let s1 = Fe.zero ()
let s2 = Fe.zero ()
let s3 = Fe.zero ()

(* Every formula reads its operands completely before it writes its
   destination [r], so [r] may alias an operand. The shared tail: with
   E in r.x, H in r.t, F in s0 and G in s1, set X = EF, Y = GH,
   T = EH and Z = FG. *)
let output r ~with_t =
  Fe.mul_into r.z s0 s1;
  Fe.mul_into r.y s1 r.t;
  if with_t then Fe.mul_into r.t r.x r.t;
  Fe.mul_into r.x r.x s0

(* The addition tail: from A in s0, B in s1, C in s2 and D in s3,
   E = B - A, H = B + A, F = D - C and G = D + C. Negating the addend
   negates C, which swaps F and G. *)
let combine r ~neg =
  Fe.sub_into r.x s1 s0;
  Fe.add_into r.t s1 s0;
  if neg then begin
    Fe.add_into s0 s3 s2;
    Fe.sub_into s1 s3 s2
  end
  else begin
    Fe.sub_into s0 s3 s2;
    Fe.add_into s1 s3 s2
  end;
  output r ~with_t:true

(* RFC 8032 extended-coordinate addition (a = -1, complete formulas),
   r = p + q, or r = p - q with [~neg]: negating q = (X : Y : Z : T)
   gives (-X : Y : Z : -T), which swaps Y + X and Y - X and negates C. *)
let ocaml_add r p q ~neg =
  Fe.sub_into s0 p.y p.x;
  if neg then Fe.add_into s1 q.y q.x else Fe.sub_into s1 q.y q.x;
  Fe.mul_into s0 s0 s1 (* A *);
  Fe.add_into s1 p.y p.x;
  if neg then Fe.sub_into s2 q.y q.x else Fe.add_into s2 q.y q.x;
  Fe.mul_into s1 s1 s2 (* B *);
  Fe.mul_into s2 p.t two_d_fe;
  Fe.mul_into s2 s2 q.t (* C *);
  Fe.add_into s3 p.z p.z;
  Fe.mul_into s3 s3 q.z (* D *);
  combine r ~neg

(* Mixed addition r = p + q (or p - q with [~neg]) with q precomputed
   affine: the general addition with Z2 = 1 folded in, 7
   multiplications instead of 9. Negating an affine point swaps
   (y+x, y-x) and negates xy2d. *)
let ocaml_madd r p (q : precomp) ~neg =
  Fe.sub_into s0 p.y p.x;
  Fe.mul_into s0 s0 (if neg then q.yplusx else q.yminusx) (* A *);
  Fe.add_into s1 p.y p.x;
  Fe.mul_into s1 s1 (if neg then q.yminusx else q.yplusx) (* B *);
  Fe.mul_into s2 q.xy2d p.t (* C *);
  Fe.add_into s3 p.z p.z (* D *);
  combine r ~neg

(* Doubling never reads [p.t]. With [~with_t:false] it also skips the
   T = EH multiplication, leaving garbage in r.t, which only a
   following doubling may consume: at w-NAF chain positions whose digits
   are all zero the next operation is another doubling, so that
   multiplication is pure waste. The chain loops below use the full
   doubling at positions with a nonzero digit and at position 0, so
   every point that escapes a chain carries a valid extended
   coordinate. *)
let ocaml_double r p ~with_t =
  Fe.sqr_into s0 p.x (* A *);
  Fe.sqr_into s1 p.y (* B *);
  Fe.sqr_into s2 p.z;
  Fe.add_into s2 s2 s2 (* C = 2Z^2 *);
  Fe.add_into s3 p.x p.y;
  Fe.sqr_into s3 s3 (* (X + Y)^2 *);
  Fe.add_into r.t s0 s1 (* H = A + B *);
  Fe.sub_into r.x r.t s3 (* E = H - (X + Y)^2 *);
  Fe.sub_into s1 s0 s1 (* G = A - B *);
  Fe.add_into s0 s2 s1 (* F = C + G *);
  output r ~with_t

let add (p : point) (q : point) : point =
  let r = fresh_point () in
  ocaml_add r p q ~neg:false;
  r

let double (p : point) : point =
  let r = fresh_point () in
  ocaml_double r p ~with_t:true;
  r

let neg (p : point) : point = { x = Fe.neg p.x; y = Fe.copy p.y; z = Fe.copy p.z; t = Fe.neg p.t }

let scalar_mult (k : Nat.t) (p : point) : point =
  let acc = fresh_identity () in
  for i = Nat.bit_length k - 1 downto 0 do
    ocaml_double acc acc ~with_t:true;
    if Nat.testbit k i then ocaml_add acc acc p ~neg:false
  done;
  acc

let equal_points (p : point) (q : point) : bool =
  (* Cross-multiplied comparison avoids inversions. *)
  Fe.equal (Fe.mul p.x q.z) (Fe.mul q.x p.z)
  && Fe.equal (Fe.mul p.y q.z) (Fe.mul q.y p.z)

(* The engine's formulas: one [@@noalloc] C call each (ed25519_stubs.c),
   which loads its points into 52-bit words once, runs the whole
   formula there and stores once, against about 14 calls into the field
   kernel for an OCaml formula; a run of n doublings is one call too.
   Both need the compiler's [unsigned __int128], so the C formulas run
   wherever the field kernel is C, a choice made once, at module
   initialisation. The C addition takes 2d from here, so no curve
   constant is transcribed there. *)
external c_double_n : point -> point -> int -> unit = "algorand_ed25519_double_n" [@@noalloc]
external c_add : point -> point -> point -> bool -> Fe.t -> unit = "algorand_ed25519_add" [@@noalloc]
external c_madd : point -> point -> precomp -> bool -> unit = "algorand_ed25519_madd" [@@noalloc]

let c_kernel = String.equal Fe.kernel "c"

(* r := 2^n p, n >= 1, T only after the last doubling. *)
let double_n_into r p n =
  if c_kernel then c_double_n r p n
  else begin
    ocaml_double r p ~with_t:(n = 1);
    for i = 2 to n do
      ocaml_double r r ~with_t:(i = n)
    done
  end

let double_into r p = double_n_into r p 1
let add_into r p q ~neg = if c_kernel then c_add r p q neg two_d_fe else ocaml_add r p q ~neg
let madd_into r p q ~neg = if c_kernel then c_madd r p q neg else ocaml_madd r p q ~neg

(* ------------------------------------------------------------------ *)
(* The fast scalar-multiplication engine.                              *)
(*                                                                     *)
(* Building blocks: batched affine conversion (one shared inversion),  *)
(* precomputed affine points with mixed addition, and signed sliding- *)
(* window (w-NAF) scalar recoding. On top of these sit a fixed-base    *)
(* comb table for B (sign, keygen, VRF nonces) and one chain           *)
(* evaluator, [mult], for every other product: a sum of terms on one   *)
(* shared doubling chain (verification, batch verification, the VRF,  *)
(* the subgroup check). A chain runs in one C call where the kernel is *)
(* C, else in the OCaml loop, which also stays as the tests' reference *)
(* ([ocaml_mult]); the naive [scalar_mult] above is the oracle both    *)
(* are held against.                                                   *)
(* ------------------------------------------------------------------ *)

(* Normalize many points to z = 1 with a single field inversion
   (Montgomery's trick); used to build precomputed tables cheaply. *)
let normalize_many (ps : point array) : point array =
  let zinvs = Fe.inv_many (Array.map (fun p -> p.z) ps) in
  Array.mapi
    (fun i p ->
      let x = Fe.mul p.x zinvs.(i) and y = Fe.mul p.y zinvs.(i) in
      { x; y; z = Fe.one (); t = Fe.mul x y })
    ps

let to_affine_many (ps : point array) : (Nat.t * Nat.t) array =
  Array.map (fun p -> (Fe.to_nat p.x, Fe.to_nat p.y)) (normalize_many ps)

(* Requires p.z = 1 (see [normalize_many]). *)
let precomp_of_affine (p : point) : precomp =
  {
    yplusx = Fe.add p.y p.x;
    yminusx = Fe.sub p.y p.x;
    xy2d = Fe.mul (Fe.mul p.x p.y) two_d_fe;
  }

(* Signed sliding-window recoding, width 5: digits are odd with
   |d| < 16, and any 5 consecutive positions hold at most one nonzero
   digit, so n bits cost ~n/6 additions off an 8-entry table.
   [recode buf off k ~lo ~n] writes the w-NAF of bits [lo, lo + n) of
   the little-endian bytes [k] into buf.(off) .. buf.(off + n): n + 1
   digits, since a w-NAF is at most one digit longer than its scalar.
   A negative digit borrows 2^5 from the positions above it, carried in
   [carry]; a window whose low bit plus carry is even leaves the carry
   to the next position. *)
let window = 5

let byte_at k j = if j < String.length k then Char.code (String.unsafe_get k j) else 0

(* Bits [lo + i, lo + i + window) of [k], those from [lo + n] up read
   as zero. *)
let window_at k ~lo ~n i =
  let b = lo + i in
  ((byte_at k (b lsr 3) lor (byte_at k ((b lsr 3) + 1) lsl 8)) lsr (b land 7))
  land ((1 lsl max 0 (min window (n - i))) - 1)

let recode (buf : int array) (off : int) (k : string) ~(lo : int) ~(n : int) : unit =
  Array.fill buf off (n + 1) 0;
  let pos = ref 0 and carry = ref 0 in
  while !pos <= n do
    let u = !carry + window_at k ~lo ~n !pos in
    if u land 1 = 0 then incr pos
    else begin
      let d = if u < 1 lsl (window - 1) then u else u - (1 lsl window) in
      buf.(off + !pos) <- d;
      carry := if d < 0 then 1 else 0;
      pos := !pos + window
    end
  done

(* [p; 3p; ...; 15p] in extended coordinates, one entry per odd digit,
   by the formulas [double] and [add] of one kernel. *)
let odd_multiples ~double ~add (p : point) : point array =
  let p2 = fresh_point () in
  double p2 p;
  let tbl = Array.make (1 lsl (window - 2)) (copy_point p) in
  for i = 1 to Array.length tbl - 1 do
    let r = fresh_point () in
    add r tbl.(i - 1) p2 ~neg:false;
    tbl.(i) <- r
  done;
  tbl

(* ------------------------------------------------------------------ *)
(* Point compression: 32 bytes, little-endian y with x parity on top.  *)
(* Bytes go straight to and from limbs.                                *)
(* ------------------------------------------------------------------ *)

let encode_affine ~(x : Fe.t) ~(y : Fe.t) : string =
  let b = Fe.to_bytes y in
  if Fe.parity x = 1 then Bytes.set b 31 (Char.chr (Char.code (Bytes.get b 31) lor 0x80));
  Bytes.unsafe_to_string b

let encode (p : point) : string =
  let zi = Fe.inv p.z in
  encode_affine ~x:(Fe.mul p.x zi) ~y:(Fe.mul p.y zi)

(* Encode a whole array with one shared inversion; each [encode] above
   costs a full field inversion, so callers that need several encodings
   at once (the VRF's proof and verification points) batch them. *)
let encode_many (ps : point array) : string array =
  (* z = 1 after normalization, so x and y are affine. *)
  Array.map (fun p -> encode_affine ~x:p.x ~y:p.y) (normalize_many ps)

(* Decompression runs entirely in the fast field: x is recovered with
   the combined sqrt-ratio trick (one addition chain, no inversion).
   Non-canonical encodings (y >= p, or x = 0 with the sign bit set) are
   rejected. *)
let decode (s : string) : point option =
  if String.length s <> 32 then None
  else begin
    match Fe.of_bytes s with
    | None -> None
    | Some y ->
      let sign = Char.code s.[31] lsr 7 in
      let y2 = Fe.sqr y in
      let u = Fe.sub y2 fe_one in
      let v = Fe.mul d_fe y2 in
      Fe.add_into v v fe_one;
      (match Fe.sqrt_ratio ~u ~v with
      | None -> None
      | Some x ->
        if Fe.is_zero x && sign = 1 then None
        else begin
          if Fe.parity x <> sign then Fe.neg_into x x;
          Some { x; y; z = Fe.one (); t = Fe.mul x y }
        end)
  end

(* Base point: y = 4/5, even x. *)
let base =
  let y = Fp.mul (Fp.of_int 4) (Fp.inv (Fp.of_int 5)) in
  let enc = Nat.to_bytes_le y ~len:32 in
  match decode enc with
  | Some b -> b
  | None -> failwith "ed25519: base point derivation failed"

let () =
  (* Self-check the derived constants once at startup. *)
  assert (on_curve base);
  assert (equal_points (scalar_mult order base) identity)

(* ------------------------------------------------------------------ *)
(* Precomputed tables for the base point.                              *)
(* ------------------------------------------------------------------ *)

(* Fixed-base comb: radix-16 digits of the (mod-L-reduced) scalar, one
   precomputed row per digit position, so k*P costs ~64 mixed additions
   and zero doublings. comb.(i).(j-1) = j * 16^i * P. Built once, for
   the base point: at ~1000 point operations a table, it repays only
   for a point multiplied thousands of times. *)
let comb_positions = 64
let comb_row = 15

type comb = precomp array array

(* ~1000 point operations plus one shared inversion. [p] must lie in
   the prime-order subgroup, because [scalar_mult_comb] reduces scalars
   mod L before taking digits. *)
let comb_of_point (p : point) : comb =
  let buf = Array.make (comb_positions * comb_row) identity in
  let pos = copy_point p (* 16^i * P *) in
  for i = 0 to comb_positions - 1 do
    let row = i * comb_row in
    buf.(row) <- copy_point pos;
    for j = 1 to comb_row - 1 do
      let r = fresh_point () in
      add_into r buf.(row + j - 1) pos ~neg:false;
      buf.(row + j) <- r
    done;
    double_n_into pos pos 4
  done;
  let affine = normalize_many buf in
  Array.init comb_positions (fun i ->
      Array.init comb_row (fun j -> precomp_of_affine affine.((i * comb_row) + j)))

let comb_table : comb = comb_of_point base

(* k*P off a comb table. P has order L, so reducing k mod L first is
   exact and bounds the digit count. *)
let scalar_mult_comb (c : comb) (k : Nat.t) : point =
  let bytes = Nat.to_bytes_le (mod_order k) ~len:32 in
  let acc = fresh_identity () in
  for i = 0 to comb_positions - 1 do
    let byte = Char.code bytes.[i / 2] in
    let digit = if i land 1 = 0 then byte land 0xf else byte lsr 4 in
    if digit <> 0 then madd_into acc acc c.(i).(digit - 1) ~neg:false
  done;
  acc

let scalar_mult_base (k : Nat.t) : point = scalar_mult_comb comb_table k

(* ------------------------------------------------------------------ *)
(* Row tables and the chain evaluator.                                 *)
(*                                                                     *)
(* A table holds affine odd multiples of P and of its shifts           *)
(* 2^s P, 2^2s P, ... (one row each), so a scalar below 2^256 runs as  *)
(* 256/s digit streams on one (s+1)-step doubling chain instead of one *)
(* stream on a 254-step chain. B has a static 4-row table (s = 64);    *)
(* a VRF input's hash-to-curve point gets 2 rows (s = 128), since it   *)
(* is used only a dozen times; a verification key gets 4 rows when a   *)
(* single check repeats (below). Every product is one [mult] over a    *)
(* list of terms, each a scalar's digit streams paired with a table's  *)
(* rows or with odd multiples of a point, built by each chain.         *)
(*                                                                     *)
(* The C chain (ed25519_stubs.c) takes the digits and the streams as   *)
(* they are, builds the odd multiples in words, keeps the accumulator  *)
(* in words from the first doubling to the last, reads table rows      *)
(* straight from their limb arrays and stores once: a 65-step verify   *)
(* chain is one call, where the OCaml chain makes about 14 field       *)
(* calls per point formula.                                            *)
(* ------------------------------------------------------------------ *)

type table = { shift : int; rows : precomp array array }

(* 256 - s doublings, 8 * parts additions and one shared inversion. *)
let table_of_point ~(parts : int) (p : point) : table =
  if parts < 1 || 256 mod parts <> 0 then invalid_arg "Ed25519.table_of_point";
  let shift = 256 / parts and pj = copy_point p in
  let width = 1 lsl (window - 2) in
  let ext = Array.make (parts * width) identity in
  for j = 0 to parts - 1 do
    if j > 0 then double_n_into pj pj shift;
    Array.blit (odd_multiples ~double:double_into ~add:add_into pj) 0 ext (j * width) width
  done;
  let affine = Array.map precomp_of_affine (normalize_many ext) in
  { shift; rows = Array.init parts (fun j -> Array.sub affine (j * width) width) }

let base_table = table_of_point ~parts:4 base

type source = Rows of table | Odd of point
type term = { k : string; neg : bool; src : source }

let term ?(neg = false) k p = { k; neg; src = Odd p }

let table_term ?(neg = false) k t =
  if String.length k > 32 then invalid_arg "Ed25519.table_term: scalar above 2^256";
  { k; neg; src = Rows t }

(* One digit stream: its digits at buf.(off) .. buf.(off + top), top
   nonzero, and the affine table row they index, or the point (with a
   valid T) whose odd multiples they index. The C chain reads these
   records as they are (ed25519_stubs.c names the layout). *)
type row = Pre of precomp array | Ext of point
type stream = { off : int; top : int; row : row }

let rec any_digit buf i = function
  | [] -> false
  | (d, _) :: rest -> (i <= d.top && buf.(d.off + i) <> 0) || any_digit buf i rest

(* What the OCaml chain adds for a stream's digits: the table row, or
   the odd multiples it builds of the stream's point. *)
type addends = Affine of precomp array | Extended of point array

let rec add_digits acc buf i = function
  | [] -> ()
  | (d, addends) :: rest ->
    let x = if i <= d.top then buf.(d.off + i) else 0 in
    if x <> 0 then begin
      let j = (abs x - 1) / 2 and neg = x < 0 in
      match addends with
      | Affine t -> ocaml_madd acc acc t.(j) ~neg
      | Extended t -> ocaml_add acc acc t.(j) ~neg
    end;
    add_digits acc buf i rest

(* The OCaml chain: the OCaml formulas only, odd multiples built per
   call. *)
let ocaml_chain (buf : int array) (streams : stream list) : point =
  let acc = fresh_identity () in
  let streams =
    List.map
      (fun d ->
        match d.row with
        | Pre t -> (d, Affine t)
        | Ext p -> (d, Extended (odd_multiples ~double:(ocaml_double ~with_t:true) ~add:ocaml_add p)))
      streams
  in
  for i = List.fold_left (fun m (d, _) -> max m d.top) (-1) streams downto 0 do
    ocaml_double acc acc ~with_t:(i = 0 || any_digit buf i streams);
    add_digits acc buf i streams
  done;
  acc

(* The C chain: false only when a chain too long for its stack space
   cannot get the memory it needs. *)
external c_chain : point -> int array -> stream list -> Fe.t -> bool = "algorand_ed25519_chain"
[@@noalloc]

let c_chain_run (buf : int array) (streams : stream list) : point =
  let acc = fresh_point () in
  if not (c_chain acc buf streams two_d_fe) then raise Out_of_memory;
  acc

(* The digits of one call, in a buffer reused while it is big enough. *)
let digit_buf = Array.make 1024 0

let stream_digits t =
  match t.src with
  | Rows r -> Array.length r.rows * (r.shift + 1)
  | Odd _ -> (8 * String.length t.k) + 1

(* The sum of the terms on [chain], one doubling chain as long as the
   longest stream. Nothing here runs a chain again, so one shared
   buffer serves every call. *)
let mult_on chain (terms : term list) : point =
  let need = List.fold_left (fun n t -> n + stream_digits t) 0 terms in
  let buf = if need <= Array.length digit_buf then digit_buf else Array.make need 0 in
  let off = ref 0 and streams = ref [] in
  let stream t ~lo ~n row =
    let o = !off in
    off := o + n + 1;
    recode buf o t.k ~lo ~n;
    let top = ref n in
    while !top >= 0 && buf.(o + !top) = 0 do
      decr top
    done;
    if t.neg then
      for i = o to o + !top do
        buf.(i) <- -buf.(i)
      done;
    if !top >= 0 then streams := { off = o; top = !top; row } :: !streams
  in
  List.iter
    (fun t ->
      match t.src with
      | Rows r -> Array.iteri (fun j pre -> stream t ~lo:(j * r.shift) ~n:r.shift (Pre pre)) r.rows
      | Odd p -> stream t ~lo:0 ~n:(8 * String.length t.k) (Ext p))
    terms;
  chain buf !streams

let mult terms = mult_on (if c_kernel then c_chain_run else ocaml_chain) terms
let ocaml_mult terms = mult_on ocaml_chain terms

let order_bytes = Nat.to_bytes_le order ~len:32

(* Membership in the prime-order subgroup: [L]P = O. Curve points have
   order dividing 8L, so this rejects any small-order component. *)
let in_prime_subgroup (p : point) : bool = equal_points (mult [ term order_bytes p ]) identity

(* Decode a key that must lie in the prime subgroup, memoized: the
   subgroup check is a full scalar multiplication, and verification
   keys repeat heavily (every committee vote, every round), so the
   steady-state cost is one hash lookup. Bounded; reset on overflow. *)
let checked_cache : (string, point option) Hashtbl.t = Hashtbl.create 1024
let checked_cache_limit = 16_384

let decode_checked (s : string) : point option =
  match Hashtbl.find_opt checked_cache s with
  | Some r -> r
  | None ->
    let r =
      match decode s with
      | Some p when in_prime_subgroup p -> Some p
      | _ -> None
    in
    if Hashtbl.length checked_cache >= checked_cache_limit then
      Hashtbl.reset checked_cache;
    Hashtbl.add checked_cache s r;
    r

(* Keys in two generations of [size]: a hit in the old one moves the
   entry to the young one, and a full young generation becomes the old
   one, dropping the old. So an entry stays through any [size] later
   insertions, and at most [2 * size] are held. *)
type 'a generations = {
  size : int;
  mutable young : (string, 'a) Hashtbl.t;
  mutable old : (string, 'a) Hashtbl.t;
}

let generations size = { size; young = Hashtbl.create 16; old = Hashtbl.create 1 }

let remember g pk v =
  if Hashtbl.length g.young >= g.size then begin
    g.old <- g.young;
    g.young <- Hashtbl.create 16
  end;
  Hashtbl.replace g.young pk v

let recall g pk =
  match Hashtbl.find_opt g.young pk with
  | Some _ as hit -> hit
  | None -> (
    match Hashtbl.find_opt g.old pk with
    | Some v as hit ->
      Hashtbl.remove g.old pk;
      remember g pk v;
      hit
    | None -> None)

(* Key tables (~10 KB each; at most 1,024), and the keys of recent
   single checks without a table. A sighting lasts through fewer than
   512 later sightings and a table through at least 512 later tables:
   a key checked again after 512 other untabled keys builds no table,
   and a key that builds one keeps it while its checks come at most 512
   distinct keys apart. *)
let tables : table generations = generations 512
let sighted : unit generations = generations 256
let has_table pk = Hashtbl.mem tables.young pk || Hashtbl.mem tables.old pk

(* A key's table if it has one, else its point. A single check
   ([~single:true]) builds the table when the key's last single check
   is still sighted: a table costs about one verify to build and saves
   about half of each later one, so a key checked once never pays for
   it, and neither does a cycle of more keys than the tables keep. A
   batch only reads tables. *)
let key_source ~(single : bool) (pk : string) : source option =
  match recall tables pk with
  | Some t -> Some (Rows t)
  | None -> (
    match decode_checked pk with
    | Some p when single && recall sighted pk <> None ->
      let t = table_of_point ~parts:4 p in
      remember tables pk t;
      Some (Rows t)
    | Some p ->
      if single then remember sighted pk ();
      Some (Odd p)
    | None -> None)

let key_term ?(neg = false) k pk =
  if String.length k > 32 then invalid_arg "Ed25519.key_term: scalar above 2^256";
  Option.map (fun src -> { k; neg; src }) (key_source ~single:true pk)

let () =
  (* Cross-check every table-driven path against the naive oracle once
     at startup, so a table-construction bug cannot go unnoticed. *)
  let k = Nat.rem (Nat.of_bytes_le (Sha256.digest "ed25519-selfcheck")) order in
  let kb = Nat.to_bytes_le k ~len:32 in
  let expect = scalar_mult k base in
  assert (equal_points (scalar_mult_base k) expect);
  assert (equal_points (mult [ term kb base ]) expect);
  assert (equal_points (mult [ table_term kb (table_of_point ~parts:2 base) ]) expect);
  assert (
    equal_points
      (mult [ table_term kb base_table; term kb (double base) ])
      (scalar_mult_base (Nat.mul k (Nat.of_int 3))));
  assert (in_prime_subgroup base)

(* ------------------------------------------------------------------ *)
(* Schnorr signatures.                                                 *)
(* ------------------------------------------------------------------ *)

type secret = { seed : string; scalar : Nat.t; public : string }
type public = string

let derive_scalar ~seed = scalar_of_hash (Sha256.digest_concat [ "ed25519-scalar"; seed ])

let generate ~(seed : string) : secret =
  let scalar = derive_scalar ~seed in
  let public = encode (scalar_mult_base scalar) in
  { seed; scalar; public }

let public_key (sk : secret) : public = sk.public
let secret_scalar (sk : secret) : Nat.t = sk.scalar
let secret_seed (sk : secret) : string = sk.seed

let signature_length = 64

let challenge ~r_enc ~public ~msg =
  mod_order (Nat.of_bytes_le (Sha256.digest_concat [ "ed25519-chal"; r_enc; public; msg ]))

let sign (sk : secret) (msg : string) : string =
  let k = scalar_of_hash (Sha256.digest_concat [ "ed25519-nonce"; sk.seed; msg ]) in
  let r_enc = encode (scalar_mult_base k) in
  let e = challenge ~r_enc ~public:sk.public ~msg in
  let s = mod_order (Nat.add k (Nat.mul e sk.scalar)) in
  r_enc ^ Nat.to_bytes_le s ~len:32

(* Verification checks s*B - e*A = R on one chain: 65 steps off B's
   table and A's, or, until A has a table, 254 steps with e off per-call
   odd multiples of A.

   The public key must decode into the prime subgroup ([decode_checked]):
   a key A' = A + D with D of small order would otherwise validate
   signatures made for A whenever e*D = O (the classic small-order
   forgery). R needs no separate check: with A and B in the prime
   subgroup, s*B - e*A is too, and the *exact* (non-cofactored) point
   equality then forces R to match it exactly - an R with a small-order
   component can never satisfy the equation. *)

let below_order (s : string) : bool = Nat.compare (Nat.of_bytes_le s) order < 0

let verify ~(public : public) ~(msg : string) ~(signature : string) : bool =
  String.length signature = signature_length
  &&
  let r_enc = String.sub signature 0 32 and s = String.sub signature 32 32 in
  below_order s
  &&
  match (decode r_enc, key_source ~single:true public) with
  | Some r, Some a ->
    let e = Nat.to_bytes_le (challenge ~r_enc ~public ~msg) ~len:32 in
    equal_points (mult [ table_term s base_table; { k = e; neg = true; src = a } ]) r
  | _ -> false

(* The pre-engine verifier, kept verbatim as the randomized-test
   oracle (naive double-and-add, no subgroup check - the tests use the
   missing check to demonstrate the small-order forgery this module now
   rejects). *)
let verify_ref ~(public : public) ~(msg : string) ~(signature : string) : bool =
  String.length signature = signature_length
  &&
  let r_enc = String.sub signature 0 32 in
  let s = Nat.of_bytes_le (String.sub signature 32 32) in
  Nat.compare s order < 0
  &&
  match (decode r_enc, decode public) with
  | Some r, Some a ->
    let e = challenge ~r_enc ~public ~msg in
    (* s*B = R + e*A *)
    equal_points (scalar_mult s base) (add r (scalar_mult e a))
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Batch verification.                                                 *)
(*                                                                     *)
(* A random linear combination folds n verification equations into one *)
(* multi-scalar accumulation sharing a single doubling chain:          *)
(*                                                                     *)
(*   (sum z_i s_i mod L) * B - sum z_i R_i - sum (z_i e_i mod L) A_i   *)
(*     = sum z_i (s_i B - e_i A_i - R_i)  =  O                         *)
(*                                                                     *)
(* with 128-bit coefficients z_i drawn from the deterministic Drbg     *)
(* seeded by a hash of the whole batch (Fiat-Shamir style: the batch   *)
(* content is fixed before the coefficients exist). If some signature  *)
(* i fails s_i B - e_i A_i = R_i, the combination vanishes for at most *)
(* a 2^-128 fraction of coefficient vectors. Public keys go through    *)
(* the same prime-subgroup check as single verification, which is     *)
(* what makes reducing z_i e_i mod L exact; R_i may carry a           *)
(* small-order component, so its coefficient z_i stays unreduced. See *)
(* DESIGN.md for the soundness discussion.                             *)
(* ------------------------------------------------------------------ *)

(* Bounding the chunk size bounds the w-NAF table memory. *)
let batch_chunk = 256

let verify_batch (items : (public * string * string) list) : bool =
  let check_chunk chunk =
    let parsed =
      List.map
        (fun (pk, msg, signature) ->
          if String.length signature <> signature_length then None
          else begin
            let r_enc = String.sub signature 0 32 and s = String.sub signature 32 32 in
            if not (below_order s) then None
            else begin
              match (decode r_enc, key_source ~single:false pk) with
              | Some r, Some a ->
                let e = challenge ~r_enc ~public:pk ~msg in
                Some (pk, signature, Nat.of_bytes_le s, e, r, a)
              | _ -> None
            end
          end)
        chunk
    in
    List.for_all Option.is_some parsed
    &&
    let parsed = List.filter_map Fun.id parsed in
    let seed =
      Sha256.digest_concat
        ("ed25519-batch"
        :: List.concat_map (fun (pk, signature, _, _, _, _) -> [ pk; signature ]) parsed)
    in
    let drbg = Drbg.create ~seed in
    let terms =
      List.map (fun (_, _, s, e, r, a) -> (Drbg.random_nat drbg ~bytes:16, s, e, r, a)) parsed
    in
    (* A_i lies in the prime subgroup, so z_i*e_i reduces mod L
       exactly, from ~381 to 253 bits: 65 steps off A_i's table where
       it has one. R_i's 128-bit z_i runs off per-call odd multiples,
       so the shared chain is 129 steps long once every key has a
       table, and 254 while any has none. *)
    let scalar x = Nat.to_bytes_le x ~len:32 in
    let combined_s =
      List.fold_left (fun acc (z, s, _, _, _) -> Nat.add acc (Nat.mul z s)) Nat.zero terms
    in
    let points =
      List.concat_map
        (fun (z, _, e, r, a) ->
          [
            term ~neg:true (Nat.to_bytes_le z ~len:16) r;
            { k = scalar (mod_order (Nat.mul z e)); neg = true; src = a };
          ])
        terms
    in
    equal_points (mult (table_term (scalar (mod_order combined_s)) base_table :: points)) identity
  in
  let rec chunks = function
    | [] -> true
    | items ->
      let rec split n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> split (n - 1) (x :: acc) rest
      in
      let chunk, rest = split batch_chunk [] items in
      check_chunk chunk && chunks rest
  in
  chunks items
