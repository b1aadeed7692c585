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

let suite =
  [
    ( "vrf",
      [
        t "ecvrf known answers" ecvrf_known_answers;
        ts "ecvrf roundtrip" (roundtrip Vrf.ecvrf);
        t "sim roundtrip" (roundtrip Vrf.sim);
        ts "ecvrf wrong input" (wrong_input Vrf.ecvrf);
        t "sim wrong input" (wrong_input Vrf.sim);
        ts "ecvrf soundness" ecvrf_soundness;
        ts "hash_to_curve validity" hash_to_curve_valid;
        t "output bits balanced" outputs_uniform_bits;
        t "sim interface" sim_matches_interface;
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
