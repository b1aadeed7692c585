(* Arbitrary-precision natural numbers.

   Representation: little-endian array of limbs, each limb holding
   [limb_bits] = 26 bits. Normalized form has no trailing (most
   significant) zero limbs; zero is the empty array. 26-bit limbs keep
   every intermediate product of a schoolbook multiplication within an
   OCaml 63-bit int even after thousands of accumulated additions. *)

type t = int array

let limb_bits = 26
let limb_mask = (1 lsl limb_bits) - 1

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int (x : int) : t =
  if x < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs x = if x = 0 then [] else (x land limb_mask) :: limbs (x lsr limb_bits) in
  Array.of_list (limbs x)

let to_int_opt (a : t) : int option =
  (* Fits when the bit length is at most 62 (OCaml int is 63-bit). *)
  let n = Array.length a in
  if n * limb_bits <= 62 || (n <= 3 && a.(n - 1) lsr (62 - ((n - 1) * limb_bits)) = 0) then begin
    let v = ref 0 in
    for i = n - 1 downto 0 do
      v := (!v lsl limb_bits) lor a.(i)
    done;
    Some !v
  end
  else None

let one = of_int 1
let two = of_int 2

let compare (a : t) (b : t) : int =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let equal a b = compare a b = 0

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = max la lb + 1 in
  let r = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize r

(* [sub a b] requires a >= b. *)
let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: underflow";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + limb_mask + 1;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    done;
    normalize r
  end

let mul_int (a : t) (m : int) : t =
  if m < 0 then invalid_arg "Nat.mul_int: negative"
  else if m <= limb_mask then begin
    let la = Array.length a in
    if la = 0 || m = 0 then zero
    else begin
      let r = Array.make (la + 1) 0 in
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let s = (a.(i) * m) + !carry in
        r.(i) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      r.(la) <- !carry;
      normalize r
    end
  end
  else mul a (of_int m)

let bit_length (a : t) : int =
  let n = Array.length a in
  if n = 0 then 0
  else begin
    let top = a.(n - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((n - 1) * limb_bits) + width 0
  end

let testbit (a : t) (i : int) : bool =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length a && (a.(limb) lsr off) land 1 = 1

(* All bits at once, least significant first. Reads the limbs directly,
   so exponentiation loops can scan an int array instead of paying the
   per-bit [testbit] indexing arithmetic. *)
let bits (a : t) : int array =
  let n = bit_length a in
  let r = Array.make n 0 in
  for i = 0 to Array.length a - 1 do
    let limb = a.(i) in
    let base = i * limb_bits in
    for j = 0 to limb_bits - 1 do
      if base + j < n then r.(base + j) <- (limb lsr j) land 1
    done
  done;
  r

let shift_left (a : t) (k : int) : t =
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land limb_mask);
      r.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize r
  end

let shift_right (a : t) (k : int) : t =
  if is_zero a || k = 0 then a
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let la = Array.length a in
    if limb_shift >= la then zero
    else begin
      let n = la - limb_shift in
      let r = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.(i + limb_shift) lsr bit_shift in
        let hi =
          if bit_shift = 0 || i + limb_shift + 1 >= la then 0
          else (a.(i + limb_shift + 1) lsl (limb_bits - bit_shift)) land limb_mask
        in
        r.(i) <- lo lor hi
      done;
      normalize r
    end
  end

(* [low_bits a k] is a mod 2^k. *)
let low_bits (a : t) (k : int) : t =
  let limb = k / limb_bits and off = k mod limb_bits in
  let la = Array.length a in
  if limb >= la then a
  else begin
    let n = if off = 0 then limb else limb + 1 in
    let r = Array.sub a 0 (min n la) in
    if off > 0 && limb < Array.length r then r.(limb) <- r.(limb) land ((1 lsl off) - 1);
    normalize r
  end

(* Shift-and-subtract long division; adequate for the <=1024-bit numbers
   used in this codebase (field elements go through the dedicated
   pseudo-Mersenne reduction in Ed25519 instead). *)
let divmod (a : t) (d : t) : t * t =
  if is_zero d then raise Division_by_zero;
  if compare a d < 0 then (zero, a)
  else begin
    let bits_a = bit_length a and bits_d = bit_length d in
    let q = Array.make ((bits_a / limb_bits) + 1) 0 in
    let r = ref zero in
    for i = bits_a - 1 downto 0 do
      r := shift_left !r 1;
      if testbit a i then r := add !r one;
      if compare !r d >= 0 then begin
        r := sub !r d;
        q.(i / limb_bits) <- q.(i / limb_bits) lor (1 lsl (i mod limb_bits))
      end
    done;
    ignore bits_d;
    (normalize q, !r)
  end

let div a d = fst (divmod a d)
let rem a d = snd (divmod a d)

let mod_add m a b = rem (add a b) m
let mod_sub m a b = if compare a b >= 0 then rem (sub a b) m else sub m (rem (sub b a) m)
let mod_mul m a b = rem (mul a b) m

let mod_pow (m : t) (base : t) (e : t) : t =
  if equal m one then zero
  else begin
    let result = ref one in
    let b = ref (rem base m) in
    let bits = bit_length e in
    for i = 0 to bits - 1 do
      if testbit e i then result := mod_mul m !result !b;
      if i < bits - 1 then b := mod_mul m !b !b
    done;
    !result
  end

(* Modular inverse via Fermat (prime modulus only). *)
let mod_inv_prime (m : t) (a : t) : t = mod_pow m a (sub m two)

let of_bytes_be (s : string) : t =
  let r = ref zero in
  String.iter (fun c -> r := add (shift_left !r 8) (of_int (Char.code c))) s;
  !r

(* Bytes are packed straight into limbs: scalars and challenges arrive
   as hash bytes on every signature and VRF check. *)
let of_bytes_le (s : string) : t =
  let r = Array.make (((8 * String.length s) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and nbits = ref 0 and limb = ref 0 in
  for i = 0 to String.length s - 1 do
    acc := !acc lor (Char.code s.[i] lsl !nbits);
    nbits := !nbits + 8;
    if !nbits >= limb_bits then begin
      r.(!limb) <- !acc land limb_mask;
      acc := !acc lsr limb_bits;
      nbits := !nbits - limb_bits;
      incr limb
    end
  done;
  if !nbits > 0 then r.(!limb) <- !acc;
  normalize r

let to_bytes_be (a : t) ~(len : int) : string =
  if bit_length a > 8 * len then invalid_arg "Nat.to_bytes_be: does not fit";
  String.init len (fun i ->
      let bit = 8 * (len - 1 - i) in
      let limb = bit / limb_bits and off = bit mod limb_bits in
      let v =
        if limb >= Array.length a then 0
        else begin
          let lo = a.(limb) lsr off in
          let hi =
            if off + 8 <= limb_bits || limb + 1 >= Array.length a then 0
            else a.(limb + 1) lsl (limb_bits - off)
          in
          lo lor hi
        end
      in
      Char.chr (v land 0xff))

let to_bytes_le (a : t) ~(len : int) : string =
  let be = to_bytes_be a ~len in
  String.init len (fun i -> be.[len - 1 - i])

let of_decimal (s : string) : t =
  let r = ref zero in
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' -> r := add (mul_int !r 10) (of_int (Char.code c - Char.code '0'))
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_decimal")
    s;
  !r

let to_decimal (a : t) : string =
  if is_zero a then "0"
  else begin
    let ten = of_int 10 in
    let buf = Buffer.create 32 in
    let rec go x =
      if not (is_zero x) then begin
        let q, r = divmod x ten in
        go q;
        let d = match to_int_opt r with Some d -> d | None -> assert false in
        Buffer.add_char buf (Char.chr (Char.code '0' + d))
      end
    in
    go a;
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_decimal a)
