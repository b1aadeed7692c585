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

(* Byte-identity pins over three seeds and three message lengths,
   recorded while multiply and square ran only in OCaml: the field kernel
   must leave every public key and signature unchanged. *)
let ed25519_pins =
  [
    ( "pin-0",
      "c80b5abbd6e92a52c2ae2b214487f9d7cb9103fdabf4531796e40f41b4e4e951",
      [
        ( "",
          "b02ff8da5aa00e2c041864276c4bdf4842735dd157cd6f7ed6af577c0bb8bf4c\
           f45d409c7408d905c74ecc0c9589fb54246c0ba833823793fc8a88cd5e69140a" );
        ( "vote|round=7|step=3",
          "11834ebd4f7417c744c717fcc39668e08c6020c9fdba45a64603e26ec7fe9a76\
           6672fa3df409a0e45913504c0c2b91466a84bb485f456e1ab9a4dce5e935b204" );
        ( String.make 1024 'x',
          "a1120b260f625624580758569b1c68bd94b11ff335c78a9ccac15bb05be4d287\
           2158b5ae1b413d2e9178e80d9ead33e8860cfff1cfa97a70dfc2b279ba95f000" );
      ] );
    ( "pin-1",
      "440ef4bf619a9dc104946aa1f8fe5e4bbddddaecbdec4a9b9e5a4ecd1c09e774",
      [
        ( "",
          "ced4e6fc8a75826c8e83ff48c1fc727837c2d60da64790ab3cf5623fb76f43c5\
           df86293214bd94bce5a23806bf33ceec6d600c549c8936f37230399d9d943104" );
        ( "vote|round=7|step=3",
          "8a5022d5f8f8ac5afc59a3dd5ad0ae9500e39628aff20bb519a0f1e4276a7338\
           08b74932145ce676aea4f11880a245a4b7e0713119db4b45ac14dc7fa775bd02" );
        ( String.make 1024 'x',
          "479502cd5869370d2b23c04c2a8f40e18816694bf7dc1ec5b41a05f566378b29\
           b544c85668d73f13054c547eeac3a181444f9f351497388bda1348470dc02709" );
      ] );
    ( "pin-2",
      "17727a4c7bd690621b7a0ed31dc2164fd00ab8095761134f13d8b3e6c610d580",
      [
        ( "",
          "25a7d2038d1c0e0863d11648480f1ad90f76322ae4ca304bb578d0cfc3f4b8ed\
           73d3786fa23818a9c7a89bbf3f20fd40457b51cfef7428153e3939cbe0a8fb06" );
        ( "vote|round=7|step=3",
          "f670ac437bfcee1f71bb8f0e5e6b4a94a540579b1ccf970a1632bfadb596541f\
           1e4fd3f1db1dc54f918486197df500c5bf5623895b347ec7d0b1737c0f42100c" );
        ( String.make 1024 'x',
          "3d1f430e33fd53e26d906b7119b65214dedc98c86b4a39d75d9a250457f718bd\
           28a980273e575194d03c1f036311e6dda5f3393f832adcbad00c23164c562005" );
      ] );
  ]

let pinned_keys_and_signatures () =
  List.iter
    (fun (seed, pk, sigs) ->
      let sk = Ed25519.generate ~seed in
      let public = Ed25519.public_key sk in
      Alcotest.(check string) (seed ^ " pk") pk (Hex.of_string public);
      List.iter
        (fun (msg, signature) ->
          let what = Printf.sprintf "%s, %d-byte message" seed (String.length msg) in
          let s = Ed25519.sign sk msg in
          Alcotest.(check string) (what ^ ": signature") signature (Hex.of_string s);
          Alcotest.(check bool) (what ^ ": verifies") true
            (Ed25519.verify ~public ~msg ~signature:s))
        sigs)
    ed25519_pins

(* A verify makes thousands of field multiplies and squares, which
   allocate nothing on either kernel; what it allocates is its scalar
   and point bookkeeping, 599 minor words per call (once the key has its
   table) when this bound was set, about 1.2x below it. One word per
   field operation would multiply that several times. *)
let verify_allocation () =
  let sk = Ed25519.generate ~seed:"alloc" in
  let public = Ed25519.public_key sk and msg = "m" in
  let signature = Ed25519.sign sk msg in
  let verify () =
    if not (Ed25519.verify ~public ~msg ~signature) then Alcotest.fail "must verify"
  in
  for _ = 1 to 5 do verify () done;
  let n = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do verify () done;
  let per_verify = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_verify > 700.0 then
    Alcotest.failf "verify allocates %.0f minor words, above 700 (field kernel %s)" per_verify
      Fe25519.kernel

let suite =
  [
    ( "ed25519",
      [
        t "known answers" known_answers;
        t "pinned keys and signatures, three seeds" pinned_keys_and_signatures;
        t "verify allocation stays bounded" verify_allocation;
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
