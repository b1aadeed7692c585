(* VRF properties shared by both implementations (determinism,
   verifiability, input sensitivity) plus ECVRF-specific soundness:
   proofs must not transplant across inputs or keys, and tampered
   proofs must fail. *)

open Algorand_crypto

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

let roundtrip (scheme : Vrf.scheme) () =
  let prover, pk = scheme.generate ~seed:"alice" in
  let hash, proof = prover.prove "input-1" in
  Alcotest.(check int) "output length" scheme.output_length (String.length hash);
  Alcotest.(check int) "proof length" scheme.proof_length (String.length proof);
  (match scheme.verify ~pk ~input:"input-1" ~proof with
  | Some h -> Alcotest.(check string) "verified hash matches" hash h
  | None -> Alcotest.fail "valid proof rejected");
  (* Determinism. *)
  let hash', proof' = prover.prove "input-1" in
  Alcotest.(check string) "hash deterministic" hash hash';
  Alcotest.(check string) "proof deterministic" proof proof';
  (* Input sensitivity. *)
  let hash2, _ = prover.prove "input-2" in
  Alcotest.(check bool) "different input, different hash" false (String.equal hash hash2)

let wrong_input (scheme : Vrf.scheme) () =
  let prover, pk = scheme.generate ~seed:"alice" in
  let our_hash, proof = prover.prove "input-1" in
  match scheme.verify ~pk ~input:"input-2" ~proof with
  | None -> ()
  | Some h ->
    (* The sim scheme "verifies" anything but must return a *different*
       hash for a different input, so transplanted proofs still lose. *)
    Alcotest.(check bool) "hash differs for other input" false (String.equal h our_hash)

let ecvrf_soundness () =
  let scheme = Vrf.ecvrf in
  let prover, pk = scheme.generate ~seed:"alice" in
  let _, pk2 = scheme.generate ~seed:"bob" in
  let _, proof = prover.prove "in" in
  Alcotest.(check bool) "wrong key rejected" true (scheme.verify ~pk:pk2 ~input:"in" ~proof = None);
  Alcotest.(check bool) "wrong input rejected" true
    (scheme.verify ~pk ~input:"other" ~proof = None);
  (* Tamper with each component of the proof. *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string proof in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x04));
      Alcotest.(check bool)
        (Printf.sprintf "tampered byte %d rejected" pos)
        true
        (scheme.verify ~pk ~input:"in" ~proof:(Bytes.to_string b) = None))
    [ 0; 31; 32; 47; 48; 79 ];
  Alcotest.(check bool) "truncated proof rejected" true
    (scheme.verify ~pk ~input:"in" ~proof:(String.sub proof 0 40) = None)

let hash_to_curve_valid () =
  (* h2c output must be a curve point of prime order (cofactor cleared). *)
  List.iter
    (fun input ->
      let p = Vrf.hash_to_curve input in
      Alcotest.(check bool) "on curve" true (Ed25519.on_curve p);
      Alcotest.(check bool) "prime order" true
        (Ed25519.equal_points (Ed25519.scalar_mult Ed25519.order p) Ed25519.identity))
    [ "a"; "b"; "longer input string"; "" ]

let outputs_uniform_bits () =
  (* Cheap sanity: over 200 evaluations, top-bit frequency near 1/2. *)
  let scheme = Vrf.sim in
  let prover, _ = scheme.generate ~seed:"uniform" in
  let ones = ref 0 in
  for i = 1 to 200 do
    let h, _ = prover.prove (string_of_int i) in
    if Char.code h.[0] land 0x80 <> 0 then incr ones
  done;
  Alcotest.(check bool) "top bit balanced" true (!ones > 60 && !ones < 140)

let sim_matches_interface () =
  Alcotest.(check int) "proof_length" 0 Vrf.sim.proof_length;
  let _, pk = Vrf.sim.generate ~seed:"x" in
  Alcotest.(check bool) "nonempty pk" true (String.length pk = 32)

(* Known-answer pins for ECVRF, recorded before the field and point
   layers were rewritten in place. *)
let ecvrf_known_answers () =
  let prover, pk = Vrf.ecvrf.generate ~seed:"kat" in
  let output, proof = prover.prove "kat-input" in
  Alcotest.(check string) "pk"
    "54925b4fe11f411f916ef25b8eb161f6b96cb04339d40d28fc57ba23f2f7599b" (Hex.of_string pk);
  Alcotest.(check string) "output"
    "bcdee8a0d98f3b98370ffa14669bda0c52cdd01358b37c4d0eecb7c188a2e7fe"
    (Hex.of_string output);
  Alcotest.(check string) "proof"
    "305d54229117e80ed8f9d95e1235477579aaaf5d3f25552b1931085e39e9d172\
     fd7e33803a96acc38eecde559e65b2f4\
     828d5f1c5eb443ceb1cd0be3f2f66fcff39ea78be8ef359e6760dedb0fdcfb04"
    (Hex.of_string proof);
  Alcotest.(check (option string)) "verifies to the output" (Some output)
    (Vrf.ecvrf.verify ~pk ~input:"kat-input" ~proof)

(* Byte-identity pins over three seeds and two inputs, recorded while
   multiply and square ran only in OCaml: the field kernel must leave
   every public key, output and proof unchanged. *)
let ecvrf_pins =
  [
    ( "pin-0",
      "96dc123a7dc20ebf86773d31678de16b2438c28d125489cbe46a52377a1946ea",
      [
        ( "",
          "75886e1d52cc1f290f7ad53604819e08c14056e264419cfecc3bbb79f654f725",
          "5449cd5ec4147e52f83e6a483a5922c45fcfc7cbbf862a426c11f68ece9664b1\
           064350fa139e0476f386ea6a41b36029efeeac6f77c4997f428e04bdd9061aa9\
           4b6ce71e2269133474bf682b80b0e20e" );
        ( "seed|round=7|role=committee",
          "e16daccf95b36112955f78bf29641caf9bab6e14a9a979f20dae4be0760cadea",
          "4f5801c94793c9ae12f63a5c2f1d4f4563ace6e298d15176c24347c869f8e48b\
           b17e9365e98f018c327ecd6f5c327b9b2482b586dfe0184321a13436bfec08c2\
           04ca6180df64e9b8bb6f41e38226d70d" );
      ] );
    ( "pin-1",
      "fd28a9d0afa1e03589e0a1844a5979c7b82986b05fb954636fb624ecc11df07e",
      [
        ( "",
          "1943ecb3877f7c6312e2fcf159b36714c157d734a4727472f1d27613e11fe4d2",
          "3f7ce92cf6d3c12887fd98f5d2dcc58951999d8c9a2958da885a11b44be8cdd6\
           ae5971b6afab5baf26fae5c9774d3084471ed97385466d537a3ddf360f2844ec\
           b9265972689dcc7f50959ca84268dc05" );
        ( "seed|round=7|role=committee",
          "22dc239d09d5d7506607a5530962d5c10225d9421417517c5933b10d0870212f",
          "bb19f5057039c33c4f792ad9fd6f0a0b0a414cdbd0e559d3097b137b8c2be815\
           6cf5f16cea11151972503c5ea8421915e72f14fea71493360b0c2fb87ef9897d\
           c5fc90cf67d3267af97053b823cea30c" );
      ] );
    ( "pin-2",
      "cd5a8cd6f872798bb6499007993952c9326d65d05f06ed81ed0191d1f8e24670",
      [
        ( "",
          "46131ba27f869f06de9f64e4ede9158b5888de417077f0e22a2c0e273b0a4aa4",
          "43f4236d6b2575959baa2abbe0eb9152600b61ee3ebf3f78ca08b770c50bd30e\
           eba1ff6893f75a0e3236264b6828acfeef75f63d5f3f5a16a22196af834b3e5c\
           3d05e9da31c1baef3c96e0f046374209" );
        ( "seed|round=7|role=committee",
          "fadbb1cf8a103f04c9f75dac1a0afc29ac94ec057769622f696c2abab3102753",
          "7d814e5a2881b8c066a0d46bb2b687d8652381ebcc35f1e6edb0f8b9ece048ba\
           d7b7b2a306333502c1217883c8a23c62694473e76b4d4bbc383cd87d9bc23378\
           7ed2ec76c412f8d5efecfa1c6c96390c" );
      ] );
  ]

let ecvrf_pinned () =
  List.iter
    (fun (seed, pk_hex, cases) ->
      let prover, pk = Vrf.ecvrf.generate ~seed in
      Alcotest.(check string) (seed ^ " pk") pk_hex (Hex.of_string pk);
      List.iter
        (fun (input, output_hex, proof_hex) ->
          let what = Printf.sprintf "%s, input %S" seed input in
          let output, proof = prover.prove input in
          Alcotest.(check string) (what ^ ": output") output_hex (Hex.of_string output);
          Alcotest.(check string) (what ^ ": proof") proof_hex (Hex.of_string proof);
          Alcotest.(check (option string)) (what ^ ": verifies") (Some output)
            (Vrf.ecvrf.verify ~pk ~input ~proof))
        cases)
    ecvrf_pins

(* The sim VRF's flat fraction, what [Vrf.sim_sweep] reads off a key
   word, must be bit for bit [Sortition.hash_fraction] of
   [Vrf.sim.verify]'s output for the same pk and input. *)
let hash_fraction_of ~pk ~input =
  match Vrf.sim.verify ~pk ~input ~proof:"" with
  | Some h -> Algorand_sortition.Sortition.hash_fraction h
  | None -> Alcotest.fail "sim verify rejected an empty proof"

let one_key = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 1

let flat_fraction key input =
  one_key.{0} <- key;
  let frac = ref nan in
  Vrf.sim_sweep one_key ~input ~floor:neg_infinity (fun _ f -> frac := f);
  !frac

let check_fraction ~pk ~input =
  let flat = flat_fraction (Vrf.sim_key pk) input in
  let slow = hash_fraction_of ~pk ~input in
  if Int64.bits_of_float flat <> Int64.bits_of_float slow then
    Alcotest.failf "pk %s input %S: flat %h, hash_fraction %h" (Hex.of_string pk) input flat
      slow

let sim_fraction_random () =
  let rng = Random.State.make [| 2017 |] in
  let bytes n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  for _ = 1 to 100_000 do
    check_fraction ~pk:(bytes 32) ~input:(bytes (1 + Random.State.int rng 40))
  done

(* SplitMix64's finaliser and its inverse, so the test can pick the
   output word x = mix (key xor input_key) and build a pk whose key
   word gives it. *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let unmix64 x =
  let unshift s y =
    let z = ref y in
    for _ = 1 to (63 / s) + 1 do
      z := Int64.logxor y (Int64.shift_right_logical !z s)
    done;
    !z
  in
  let inverse c =
    (* Newton's iteration: each step doubles the correct low bits. *)
    let i = ref c in
    for _ = 1 to 6 do
      i := Int64.mul !i (Int64.sub 2L (Int64.mul c !i))
    done;
    !i
  in
  let z = unshift 31 x in
  let z = unshift 27 (Int64.mul z (inverse 0x94d049bb133111ebL)) in
  unshift 30 (Int64.mul z (inverse 0xbf58476d1ce4e5b9L))

(* A 32-byte pk whose [Vrf.sim_key] is [key]: three fixed words, and a
   last word that steers the chained mix onto [key]. *)
let pk_with_key key =
  let b = Bytes.make 32 '\x5a' in
  let k = ref 0L in
  for i = 0 to 2 do
    k := mix64 (Int64.logxor !k (Bytes.get_int64_le b (8 * i)))
  done;
  Bytes.set_int64_le b 24 (Int64.logxor (unmix64 key) !k);
  Bytes.to_string b

let sim_fraction_rounding_edges () =
  List.iter
    (fun x -> Alcotest.(check int64) "unmix inverts mix" x (mix64 (unmix64 x)))
    [ 0L; 1L; -1L; Int64.min_int; 0x0123456789abcdefL ];
  let input = "seed|committee-7" in
  (* The input's key word, read back off the output of a key-0 pk. *)
  let pk0 = pk_with_key 0L in
  Alcotest.(check int64) "steered key" 0L (Vrf.sim_key pk0);
  let input_key =
    match Vrf.sim.verify ~pk:pk0 ~input ~proof:"" with
    | Some h -> unmix64 (String.get_int64_be h 0)
    | None -> Alcotest.fail "sim verify rejected an empty proof"
  in
  (* Top 56 bits around the 53-bit rounding edges (ties to even at
     every scale, the carry into 2^56), under every kind of low byte. *)
  let tops =
    [
      0L; 1L; 0xfL; 0xfffffffffffffL; 0x1fffffffffffffL; 0x20000000000000L;
      0x20000000000001L; 0x40000000000001L; 0x40000000000002L; 0x40000000000003L;
      0x40000000000006L; 0x80000000000003L; 0x80000000000004L; 0x80000000000005L;
      0x8000000000000cL; 0xfffffffffffff8L; 0xfffffffffffffbL; 0xfffffffffffffcL;
      0xfffffffffffffdL; 0xffffffffffffffL;
    ]
  in
  let words =
    (-1L :: Int64.min_int :: Int64.max_int
    :: List.concat_map
         (fun top ->
           List.map
             (fun low -> Int64.logor (Int64.shift_left top 8) low)
             [ 0L; 0x01L; 0x7fL; 0x80L; 0xffL ])
         tops)
  in
  List.iter
    (fun x ->
      let pk = pk_with_key (Int64.logxor (unmix64 x) input_key) in
      (match Vrf.sim.verify ~pk ~input ~proof:"" with
      | Some h -> Alcotest.(check int64) "steered output word" x (String.get_int64_be h 0)
      | None -> Alcotest.fail "sim verify rejected an empty proof");
      check_fraction ~pk ~input)
    words;
  Alcotest.(check (float 0.0)) "all-ones reads 1.0" 1.0
    (flat_fraction (Int64.logxor (unmix64 (-1L)) input_key) input)

(* An evaluation that stays below the floor allocates nothing, so a
   sweep's minor words do not grow with the number of keys. *)
let sim_sweep_allocates_nothing () =
  let pk i = Sha256.digest (string_of_int i) in
  let keys n =
    let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout n in
    for i = 0 to n - 1 do
      a.{i} <- Vrf.sim_key (pk i)
    done;
    a
  in
  let words keys =
    let calls = ref 0 in
    Vrf.sim_sweep keys ~input:"warm" ~floor:2.0 (fun _ _ -> incr calls);
    let w0 = Gc.minor_words () in
    for r = 1 to 14 do
      Vrf.sim_sweep keys ~input:("seed|role-" ^ string_of_int (r mod 2)) ~floor:2.0
        (fun _ _ -> incr calls)
    done;
    let w = Gc.minor_words () -. w0 in
    Alcotest.(check int) "nothing reaches a floor above 1" 0 !calls;
    w
  in
  let small = words (keys 1_000) and large = words (keys 100_000) in
  if large -. small > 64.0 then
    Alcotest.failf "14 sweeps: %.0f minor words over 100,000 keys, %.0f over 1,000" large
      small;
  (* Every key at or above the floor reaches [f], in index order. *)
  let k = keys 5_000 in
  let input = "seed|role" in
  let seen = ref [] in
  Vrf.sim_sweep k ~input ~floor:0.9 (fun u frac ->
      Alcotest.(check (float 0.0)) "fraction passed" (hash_fraction_of ~pk:(pk u) ~input) frac;
      seen := u :: !seen);
  let expected =
    List.filter
      (fun u -> hash_fraction_of ~pk:(pk u) ~input >= 0.9)
      (List.init 5_000 Fun.id)
  in
  Alcotest.(check (list int)) "selected in order" expected (List.rev !seen)

let suite =
  [
    ( "vrf",
      [
        t "ecvrf known answers" ecvrf_known_answers;
        t "ecvrf pinned keys, outputs and proofs, three seeds" ecvrf_pinned;
        ts "ecvrf roundtrip" (roundtrip Vrf.ecvrf);
        t "sim roundtrip" (roundtrip Vrf.sim);
        ts "ecvrf wrong input" (wrong_input Vrf.ecvrf);
        t "sim wrong input" (wrong_input Vrf.sim);
        ts "ecvrf soundness" ecvrf_soundness;
        ts "hash_to_curve validity" hash_to_curve_valid;
        t "output bits balanced" outputs_uniform_bits;
        t "sim interface" sim_matches_interface;
        t "sim fraction = hash_fraction (100k random)" sim_fraction_random;
        t "sim fraction at the rounding edges" sim_fraction_rounding_edges;
        t "sim sweep allocates nothing per evaluation" sim_sweep_allocates_nothing;
        t "signature schemes" (fun () ->
            List.iter
              (fun (scheme : Signature_scheme.scheme) ->
                let signer, pk = scheme.generate ~seed:"s" in
                let s = signer.sign "m" in
                Alcotest.(check int) "length" scheme.signature_length (String.length s);
                Alcotest.(check bool) "verify" true
                  (scheme.verify ~pk ~msg:"m" ~signature:s);
                Alcotest.(check bool) "wrong msg" false
                  (scheme.verify ~pk ~msg:"m2" ~signature:s))
              [ Signature_scheme.sim ]);
      ] );
  ]
