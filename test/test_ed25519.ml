(* Curve group laws, encoding, and Schnorr signature behavior. The
   group constants are derived at module init (with internal asserts);
   these tests re-verify the algebra independently. *)

open Algorand_crypto

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let point_eq = Ed25519.equal_points

let base_checks () =
  Alcotest.(check bool) "base on curve" true (Ed25519.on_curve Ed25519.base);
  Alcotest.(check bool) "order * base = identity" true
    (point_eq (Ed25519.scalar_mult Ed25519.order Ed25519.base) Ed25519.identity);
  Alcotest.(check bool) "base <> identity" false (point_eq Ed25519.base Ed25519.identity)

let group_laws () =
  let p2 = Ed25519.double Ed25519.base in
  let p2' = Ed25519.add Ed25519.base Ed25519.base in
  Alcotest.(check bool) "double = add self" true (point_eq p2 p2');
  let p3 = Ed25519.add p2 Ed25519.base in
  let p3' = Ed25519.scalar_mult (Nat.of_int 3) Ed25519.base in
  Alcotest.(check bool) "3B two ways" true (point_eq p3 p3');
  Alcotest.(check bool) "identity is neutral" true
    (point_eq (Ed25519.add p3 Ed25519.identity) p3);
  Alcotest.(check bool) "P + (-P) = O" true
    (point_eq (Ed25519.add p3 (Ed25519.neg p3)) Ed25519.identity);
  (* (a+b)B = aB + bB *)
  let a = Nat.of_int 123456 and b = Nat.of_int 654321 in
  let lhs = Ed25519.scalar_mult (Nat.add a b) Ed25519.base in
  let rhs =
    Ed25519.add (Ed25519.scalar_mult a Ed25519.base) (Ed25519.scalar_mult b Ed25519.base)
  in
  Alcotest.(check bool) "scalar mult is homomorphic" true (point_eq lhs rhs)

let encoding_roundtrip () =
  List.iter
    (fun k ->
      let p = Ed25519.scalar_mult (Nat.of_int k) Ed25519.base in
      let enc = Ed25519.encode p in
      Alcotest.(check int) "32 bytes" 32 (String.length enc);
      match Ed25519.decode enc with
      | Some p' -> Alcotest.(check bool) "roundtrip" true (point_eq p p')
      | None -> Alcotest.fail "decode failed")
    [ 1; 2; 3; 7; 1000; 99999 ]

let decode_garbage () =
  (* Most random strings are not curve points; none may crash, and a
     y >= p encoding must be rejected. *)
  Alcotest.(check bool) "y = p rejected" true
    (Ed25519.decode (Nat.to_bytes_le Ed25519.Fp.p ~len:32) = None);
  Alcotest.(check bool) "short string rejected" true (Ed25519.decode "abc" = None);
  let d = Drbg.create ~seed:"garbage" in
  let decoded = ref 0 in
  for _ = 1 to 50 do
    match Ed25519.decode (Drbg.random_bytes d 32) with
    | Some p -> incr decoded; Alcotest.(check bool) "on curve" true (Ed25519.on_curve p)
    | None -> ()
  done;
  (* About half of random y values decode. *)
  Alcotest.(check bool) "some decode" true (!decoded > 5 && !decoded < 45)

let sqrt_correct () =
  (* sqrt returns a value whose square matches, for quadratic residues. *)
  let open Ed25519.Fp in
  for k = 2 to 20 do
    let x = of_int k in
    let sq = mul x x in
    match sqrt sq with
    | None -> Alcotest.fail "square must have a root"
    | Some r ->
      Alcotest.(check bool)
        (Printf.sprintf "root of %d^2" k)
        true
        (Nat.equal (mul r r) sq)
  done

let sign_verify () =
  let sk = Ed25519.generate ~seed:"signer" in
  let pk = Ed25519.public_key sk in
  let s = Ed25519.sign sk "a message" in
  Alcotest.(check int) "signature length" Ed25519.signature_length (String.length s);
  Alcotest.(check bool) "verifies" true
    (Ed25519.verify ~public:pk ~msg:"a message" ~signature:s);
  Alcotest.(check bool) "wrong message" false
    (Ed25519.verify ~public:pk ~msg:"b message" ~signature:s);
  Alcotest.(check bool) "wrong key" false
    (Ed25519.verify
       ~public:(Ed25519.public_key (Ed25519.generate ~seed:"other"))
       ~msg:"a message" ~signature:s);
  (* Deterministic signatures. *)
  Alcotest.(check string) "deterministic" s (Ed25519.sign sk "a message")

let signature_malleability () =
  let sk = Ed25519.generate ~seed:"malleable" in
  let pk = Ed25519.public_key sk in
  let s = Ed25519.sign sk "m" in
  (* Flipping any byte must break the signature. *)
  for i = 0 to Ed25519.signature_length - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    if Ed25519.verify ~public:pk ~msg:"m" ~signature:(Bytes.to_string b) then
      Alcotest.fail (Printf.sprintf "bit flip at byte %d still verifies" i)
  done;
  (* s >= order must be rejected even if congruent. *)
  let r_enc = String.sub s 0 32 in
  let s_val = Nat.of_bytes_le (String.sub s 32 32) in
  let bumped = Nat.add s_val Ed25519.order in
  if Nat.bit_length bumped <= 256 then begin
    let forged = r_enc ^ Nat.to_bytes_le bumped ~len:32 in
    Alcotest.(check bool) "s + order rejected" false
      (Ed25519.verify ~public:pk ~msg:"m" ~signature:forged)
  end

let distinct_seeds_distinct_keys () =
  let pks =
    List.init 20 (fun i ->
        Ed25519.public_key (Ed25519.generate ~seed:(string_of_int i)))
  in
  Alcotest.(check int) "all distinct" 20 (List.length (List.sort_uniq compare pks))

(* Known-answer pins, recorded before the field and point layers were
   rewritten in place: keys and signatures must stay byte-identical. *)
let known_answers () =
  let sk = Ed25519.generate ~seed:"kat" in
  Alcotest.(check string) "pk"
    "215bb3199a73ebefc0e9fa444219c15ebfc1443101a9bdca3c65cd2ebcbea09f"
    (Hex.of_string (Ed25519.public_key sk));
  Alcotest.(check string) "signature"
    "06da69ab68234557af1af52025f4f1510c8533ef9db37a6217df303e9ade4c8e\
     f53354f630e28e43b5b7bf3d82d03099906d4ccfdd4a1dd2c9bb16eecfca0909"
    (Hex.of_string (Ed25519.sign sk "msg"))

let suite =
  [
    ( "ed25519",
      [
        t "known answers" known_answers;
        t "base point checks" base_checks;
        ts "group laws" group_laws;
        ts "encoding roundtrip" encoding_roundtrip;
        ts "decode garbage" decode_garbage;
        t "sqrt" sqrt_correct;
        ts "sign/verify" sign_verify;
        ts "malleability resistance" signature_malleability;
        ts "distinct keys" distinct_seeds_distinct_keys;
      ] );
  ]
