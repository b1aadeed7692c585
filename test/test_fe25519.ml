(* The fixed-limb field vs the generic Nat oracle: every operation is
   cross-checked on random field elements. *)

open Algorand_crypto

let t name f = Alcotest.test_case name `Quick f
let qt ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let p = Ed25519.Fp.p

(* Random field elements via hashing an integer seed. *)
let gen_fe : Nat.t QCheck2.Gen.t =
  QCheck2.Gen.(
    map
      (fun (i, full) ->
        let n = Nat.of_bytes_le (Sha256.digest (string_of_int i)) in
        if full then Nat.rem n p
        else Nat.of_int (abs i land 0xFFFF) (* small values hit carry edges *))
      (pair int bool))

let to_fe = Fe25519.of_nat
let eq_nat msg a b = Alcotest.(check string) msg (Nat.to_decimal a) (Nat.to_decimal b)

let roundtrip () =
  List.iter
    (fun n ->
      let v = Nat.rem n p in
      eq_nat "roundtrip" v (Fe25519.to_nat (to_fe v)))
    [
      Nat.zero;
      Nat.one;
      Nat.of_int 123456789;
      Nat.sub p Nat.one;
      Nat.sub p (Nat.of_int 19);
      Nat.shift_left Nat.one 254;
    ];
  (* of_nat reduces mod p. *)
  eq_nat "reduces" Nat.one (Fe25519.to_nat (to_fe (Nat.add p Nat.one)))

let constants () =
  eq_nat "zero" Nat.zero (Fe25519.to_nat (Fe25519.zero ()));
  eq_nat "one" Nat.one (Fe25519.to_nat (Fe25519.one ()));
  eq_nat "of_int" (Nat.of_int 121665) (Fe25519.to_nat (Fe25519.of_int 121665));
  Alcotest.(check bool) "is_zero" true (Fe25519.is_zero (Fe25519.zero ()));
  Alcotest.(check bool) "one not zero" false (Fe25519.is_zero (Fe25519.one ()))

let edge_values () =
  (* p-1 squared, (p-1) + 1 = 0, etc. *)
  let pm1 = to_fe (Nat.sub p Nat.one) in
  eq_nat "(p-1)+1 = 0" Nat.zero (Fe25519.to_nat (Fe25519.add pm1 (Fe25519.one ())));
  eq_nat "(p-1)^2 = 1" Nat.one (Fe25519.to_nat (Fe25519.sqr pm1));
  eq_nat "0 - 1 = p-1" (Nat.sub p Nat.one)
    (Fe25519.to_nat (Fe25519.sub (Fe25519.zero ()) (Fe25519.one ())));
  eq_nat "neg 0 = 0" Nat.zero (Fe25519.to_nat (Fe25519.neg (Fe25519.zero ())))

let inversion_and_pow () =
  let x = to_fe (Nat.of_int 987654321) in
  eq_nat "x * x^-1 = 1" Nat.one (Fe25519.to_nat (Fe25519.mul x (Fe25519.inv x)));
  (* Fermat via pow. *)
  let y = to_fe (Nat.of_int 31337) in
  eq_nat "y^(p-1) = 1" Nat.one (Fe25519.to_nat (Fe25519.pow y (Nat.sub p Nat.one)))

let sqrt_m1_and_parity () =
  (* sqrt(-1)^2 = -1, and parity is the canonical low bit. *)
  let m1 = Fe25519.neg (Fe25519.one ()) in
  Alcotest.(check bool) "sqrt_m1^2 = -1" true
    (Fe25519.equal (Fe25519.sqr Fe25519.sqrt_m1) m1);
  Alcotest.(check int) "parity 0" 0 (Fe25519.parity (Fe25519.zero ()));
  Alcotest.(check int) "parity 1" 1 (Fe25519.parity (Fe25519.one ()));
  Alcotest.(check int) "parity p-1" 0 (Fe25519.parity (to_fe (Nat.sub p Nat.one)))

let sqrt_ratio_cases () =
  (* For random u, v: either a root of u/v exists and checks, or
     u * v^-1 is a non-residue (cross-checked against Fp.sqrt). *)
  let d = ref 0 in
  for k = 1 to 200 do
    let u = Nat.rem (Nat.of_bytes_le (Sha256.digest ("sru" ^ string_of_int k))) p in
    let v = Nat.rem (Nat.of_bytes_le (Sha256.digest ("srv" ^ string_of_int k))) p in
    if not (Nat.is_zero v) then begin
      let fu = to_fe u and fv = to_fe v in
      match Fe25519.sqrt_ratio ~u:fu ~v:fv with
      | Some x ->
        incr d;
        Alcotest.(check bool) "v*x^2 = u" true
          (Fe25519.equal (Fe25519.mul fv (Fe25519.sqr x)) fu)
      | None ->
        let ratio = Ed25519.Fp.mul u (Ed25519.Fp.inv v) in
        Alcotest.(check bool) "oracle agrees: no root" true
          (Ed25519.Fp.sqrt ratio = None)
    end
  done;
  (* About half the ratios are residues. *)
  Alcotest.(check bool) "some roots found" true (!d > 60 && !d < 140);
  (* u = 0 has the root 0. *)
  match Fe25519.sqrt_ratio ~u:(Fe25519.zero ()) ~v:(Fe25519.one ()) with
  | Some x -> Alcotest.(check bool) "sqrt(0) = 0" true (Fe25519.is_zero x)
  | None -> Alcotest.fail "sqrt_ratio 0/1 must exist"

let inv_many_matches () =
  let xs =
    Array.init 23 (fun i ->
        if i mod 7 = 3 then Fe25519.zero ()
        else to_fe (Nat.of_bytes_le (Sha256.digest ("invm" ^ string_of_int i))))
  in
  let invs = Fe25519.inv_many xs in
  Array.iteri
    (fun i x ->
      if Fe25519.is_zero x then
        Alcotest.(check bool) "zero maps to zero" true (Fe25519.is_zero invs.(i))
      else
        Alcotest.(check bool) "matches inv" true (Fe25519.equal invs.(i) (Fe25519.inv x)))
    xs;
  Alcotest.(check int) "empty" 0 (Array.length (Fe25519.inv_many [||]))

(* Long random chains of in-place operations against the oracle. A
   limb bound that slowly loosens across operations only overflows after
   many steps, so single-operation properties cannot show it. Each step
   writes one of four registers from one or two of them (often itself),
   and occasionally reloads a register with an edge value. *)
let long_chains () =
  let rng = Random.State.make [| 25519 |] in
  let edges =
    [| Nat.zero; Nat.one; Nat.sub p Nat.one; Nat.sub p (Nat.of_int 19);
       Nat.sub (Nat.shift_left Nat.one 255) Nat.one |]
  in
  let random_nat () =
    Nat.of_bytes_le (String.init 32 (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  for chain = 1 to 2 do
    let fe = Array.init 4 (fun _ -> to_fe (random_nat ())) in
    let nat = Array.map Fe25519.to_nat fe in
    let check where =
      Array.iteri
        (fun i r ->
          if not (Nat.equal (Fe25519.to_nat r) nat.(i)) then
            Alcotest.failf "chain %d diverges from the oracle at %s (register %d)" chain where i)
        fe
    in
    for step = 1 to 10_000 do
      let d = Random.State.int rng 4 in
      let a = Random.State.int rng 4 and b = Random.State.int rng 4 in
      (match Random.State.int rng 21 with
      | 0 | 1 | 2 | 3 ->
        Fe25519.add_into fe.(d) fe.(a) fe.(b);
        nat.(d) <- Ed25519.Fp.add nat.(a) nat.(b)
      | 4 | 5 | 6 | 7 ->
        Fe25519.sub_into fe.(d) fe.(a) fe.(b);
        nat.(d) <- Ed25519.Fp.sub nat.(a) nat.(b)
      | 8 | 9 ->
        Fe25519.neg_into fe.(d) fe.(a);
        nat.(d) <- Ed25519.Fp.neg nat.(a)
      | 10 | 11 | 12 | 13 | 14 ->
        Fe25519.mul_into fe.(d) fe.(a) fe.(b);
        nat.(d) <- Ed25519.Fp.mul nat.(a) nat.(b)
      | 15 | 16 | 17 | 18 | 19 ->
        Fe25519.sqr_into fe.(d) fe.(a);
        nat.(d) <- Ed25519.Fp.sqr nat.(a)
      | _ ->
        let v = Nat.rem edges.(Random.State.int rng (Array.length edges)) p in
        fe.(d) <- to_fe v;
        nat.(d) <- v);
      if Random.State.int rng 100 = 0 then check (Printf.sprintf "step %d" step)
    done;
    check "the end"
  done

(* Weak forms at and above p: (p-1) + k lands in [p, p + 40) for k >= 1,
   where the carry reaches limb 9 (2^21 exactly for k >= 20), and
   2(p-1) folds. Every canonicalising observer must see through it. *)
let weak_forms_above_p () =
  let pm1 = to_fe (Nat.sub p Nat.one) in
  let through_bytes x =
    match Fe25519.of_bytes (Bytes.to_string (Fe25519.to_bytes x)) with
    | Some y -> y
    | None -> Alcotest.fail "to_bytes output must decode"
  in
  let observe name x expect =
    eq_nat (name ^ ": to_nat") expect (Fe25519.to_nat x);
    Alcotest.(check bool) (name ^ ": equal") true (Fe25519.equal x (to_fe expect));
    Alcotest.(check bool) (name ^ ": is_zero") (Nat.is_zero expect) (Fe25519.is_zero x);
    Alcotest.(check int) (name ^ ": parity")
      (if Nat.testbit expect 0 then 1 else 0)
      (Fe25519.parity x);
    Alcotest.(check string) (name ^ ": bytes")
      (Nat.to_bytes_le expect ~len:32)
      (Bytes.to_string (Fe25519.to_bytes x));
    eq_nat (name ^ ": bytes roundtrip") expect (Fe25519.to_nat (through_bytes x))
  in
  for k = 1 to 40 do
    observe (Printf.sprintf "(p-1)+%d" k) (Fe25519.add pm1 (Fe25519.of_int k)) (Nat.of_int (k - 1))
  done;
  observe "2(p-1)" (Fe25519.add pm1 pm1) (Nat.sub p (Nat.of_int 2));
  observe "(p-1)+1 = 0" (Fe25519.add pm1 (Fe25519.one ())) Nat.zero;
  (* Two weak forms of one element compare equal, and unequal elements
     do not. *)
  let weak_one = Fe25519.add pm1 (Fe25519.of_int 2) in
  Alcotest.(check bool) "weak 1 = 1" true (Fe25519.equal weak_one (Fe25519.one ()));
  Alcotest.(check bool) "weak 1 <> 2" false (Fe25519.equal weak_one (Fe25519.of_int 2));
  (* of_bytes takes the low 255 bits and rejects values >= p. *)
  let bytes n = Nat.to_bytes_le n ~len:32 in
  Alcotest.(check bool) "of_bytes p" true (Fe25519.of_bytes (bytes p) = None);
  Alcotest.(check bool) "of_bytes 2^255 - 1" true
    (Fe25519.of_bytes (bytes (Nat.sub (Nat.shift_left Nat.one 255) Nat.one)) = None);
  (match Fe25519.of_bytes (bytes (Nat.add (Nat.sub p Nat.one) (Nat.shift_left Nat.one 255))) with
  | Some x -> eq_nat "bit 255 ignored" (Nat.sub p Nat.one) (Fe25519.to_nat x)
  | None -> Alcotest.fail "p-1 with bit 255 set must decode")

(* Kernel agreement. [mul_into]/[sqr_into] run the kernel this host
   selected ([Fe25519.kernel]); [ocaml_mul_into]/[ocaml_sqr_into] are the
   OCaml kernel. Both must give the Nat oracle's value, compared
   canonically, and return the limb invariant. The cases are raw limb
   arrays, so they reach weak forms no public operation returns
   directly. *)

(* [Fe25519.t] is an int array of limbs; the interface keeps it
   abstract, so only these tests see through it. *)
let of_limbs (l : int array) : Fe25519.t = Obj.magic (Array.copy l)
let limbs_of (x : Fe25519.t) : int array = Array.copy (Obj.magic x : int array)

let limb_max i = if i = 9 then (1 lsl 21) + 7 else (1 lsl 26) - 1
let show_limbs l = String.concat ";" (Array.to_list (Array.map string_of_int l))

let check_invariant what (x : Fe25519.t) =
  Array.iteri
    (fun i v ->
      if v < 0 || v > limb_max i then
        Alcotest.failf "%s: limb %d = %d breaks the invariant [%s]" what i v
          (show_limbs (limbs_of x)))
    (limbs_of x)

(* Hand-picked representatives: the largest weak form (2^255 + 2^237 - 1,
   every limb at its bound), zero, p - 1, p (the weak zero), p + 18
   (2^255 - 1) and p + 19 (2^255, limb 9 alone at 2^21). *)
let extremes =
  let m26 = (1 lsl 26) - 1 and m21 = (1 lsl 21) - 1 in
  let with0 l0 l9 = Array.init 10 (fun i -> if i = 0 then l0 else if i = 9 then l9 else m26) in
  [
    ("max weak form", Array.init 10 limb_max);
    ("zero", Array.make 10 0);
    ("p-1", with0 (m26 - 19) m21);
    ("p", with0 (m26 - 18) m21);
    ("p+18", with0 m26 m21);
    ("p+19", Array.init 10 (fun i -> if i = 9 then 1 lsl 21 else 0));
  ]

(* Random limbs within the invariant; each limb sits at 0 or at its
   bound one time in eight, so carries ripple the whole way. *)
let gen_limbs : int array QCheck2.Gen.t =
  QCheck2.Gen.(
    array_size (return 10) (pair (int_bound 7) (int_bound max_int))
    >|= Array.mapi (fun i (edge, r) ->
            match edge with
            | 0 -> 0
            | 1 -> limb_max i
            | _ -> r mod (limb_max i + 1)))

(* One operation through the selected kernel and the OCaml kernel, each
   into a fresh destination, against the oracle's value. *)
let agree what (expect : Nat.t) (kernel : Fe25519.t -> unit) (ocaml : Fe25519.t -> unit) =
  let expect = Hex.of_string (Nat.to_bytes_le expect ~len:32) in
  List.iter
    (fun (name, run) ->
      let dst = Fe25519.zero () in
      run dst;
      let what = Printf.sprintf "%s (%s kernel)" what name in
      check_invariant what dst;
      Alcotest.(check string) (what ^ " = oracle") expect
        (Hex.of_string (Bytes.to_string (Fe25519.to_bytes dst))))
    [ (Fe25519.kernel, kernel); ("ocaml", ocaml) ];
  true

let mul_agrees what a b =
  let a = of_limbs a and b = of_limbs b in
  agree what
    (Ed25519.Fp.mul (Fe25519.to_nat a) (Fe25519.to_nat b))
    (fun d -> Fe25519.mul_into d a b)
    (fun d -> Fe25519.ocaml_mul_into d a b)

let sqr_agrees what a =
  let a = of_limbs a in
  agree what
    (Ed25519.Fp.sqr (Fe25519.to_nat a))
    (fun d -> Fe25519.sqr_into d a)
    (fun d -> Fe25519.ocaml_sqr_into d a)

let kernels_at_extremes () =
  List.iter
    (fun (na, a) ->
      ignore (sqr_agrees (Printf.sprintf "sqr %s" na) a);
      List.iter
        (fun (nb, b) -> ignore (mul_agrees (Printf.sprintf "%s * %s" na nb) a b))
        extremes)
    extremes

(* The destination may be either operand, or both: each aliased call
   must store the very limbs a call into a fresh destination stores. *)
let kernels_alias () =
  let cases =
    List.map snd extremes @ [ limbs_of (Fe25519.of_int 121665); limbs_of Fe25519.sqrt_m1 ]
  in
  let into_fresh f =
    let d = Fe25519.zero () in
    f d;
    d
  in
  let same what ~expect x =
    check_invariant what x;
    Alcotest.(check string) what (show_limbs (limbs_of expect)) (show_limbs (limbs_of x))
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expect = into_fresh (fun d -> Fe25519.mul_into d (of_limbs a) (of_limbs b)) in
          let x = of_limbs a in
          Fe25519.mul_into x x (of_limbs b);
          same "dst == a" ~expect x;
          let y = of_limbs b in
          Fe25519.mul_into y (of_limbs a) y;
          same "dst == b" ~expect y)
        cases;
      let x = of_limbs a in
      Fe25519.mul_into x x x;
      same "a == b == dst"
        ~expect:(into_fresh (fun d -> Fe25519.mul_into d (of_limbs a) (of_limbs a)))
        x;
      let x = of_limbs a in
      Fe25519.sqr_into x x;
      same "sqr dst == a" ~expect:(into_fresh (fun d -> Fe25519.sqr_into d (of_limbs a))) x)
    cases

let suite =
  [
    ( "fe25519",
      [
        t "10,000-op chains vs oracle" long_chains;
        t "kernels agree at the extremes" kernels_at_extremes;
        t "kernels are alias-safe" kernels_alias;
        qt ~count:1000 "mul: kernels agree with the oracle" QCheck2.Gen.(pair gen_limbs gen_limbs)
          (fun (a, b) -> mul_agrees "mul" a b);
        qt ~count:1000 "sqr: kernels agree with the oracle" gen_limbs (fun a -> sqr_agrees "sqr" a);
        t "weak forms at and above p" weak_forms_above_p;
        t "nat roundtrip" roundtrip;
        t "sqrt_m1 and parity" sqrt_m1_and_parity;
        t "sqrt_ratio" sqrt_ratio_cases;
        t "inv_many" inv_many_matches;
        t "constants" constants;
        t "edge values" edge_values;
        t "inversion and pow" inversion_and_pow;
        qt "add matches oracle" QCheck2.Gen.(pair gen_fe gen_fe) (fun (a, b) ->
            Nat.equal
              (Fe25519.to_nat (Fe25519.add (to_fe a) (to_fe b)))
              (Ed25519.Fp.add a b));
        qt "sub matches oracle" QCheck2.Gen.(pair gen_fe gen_fe) (fun (a, b) ->
            Nat.equal
              (Fe25519.to_nat (Fe25519.sub (to_fe a) (to_fe b)))
              (Ed25519.Fp.sub (Nat.rem a p) (Nat.rem b p)));
        qt "mul matches oracle" QCheck2.Gen.(pair gen_fe gen_fe) (fun (a, b) ->
            Nat.equal
              (Fe25519.to_nat (Fe25519.mul (to_fe a) (to_fe b)))
              (Ed25519.Fp.mul a b));
        qt "sqr matches mul" gen_fe (fun a ->
            Fe25519.equal (Fe25519.sqr (to_fe a)) (Fe25519.mul (to_fe a) (to_fe a)));
        qt "neg matches oracle" gen_fe (fun a ->
            Nat.equal (Fe25519.to_nat (Fe25519.neg (to_fe a))) (Ed25519.Fp.neg (Nat.rem a p)));
        qt "inv matches oracle" gen_fe (fun a ->
            Nat.is_zero (Nat.rem a p)
            || Nat.equal (Fe25519.to_nat (Fe25519.inv (to_fe a))) (Ed25519.Fp.inv a));
        qt "distributivity" QCheck2.Gen.(triple gen_fe gen_fe gen_fe) (fun (a, b, c) ->
            let a = to_fe a and b = to_fe b and c = to_fe c in
            Fe25519.equal
              (Fe25519.mul a (Fe25519.add b c))
              (Fe25519.add (Fe25519.mul a b) (Fe25519.mul a c)));
      ] );
  ]
