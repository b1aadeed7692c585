(* The fast scalar-multiplication engine cross-checked against the
   naive double-and-add oracle on random and edge-case scalars, batch
   verification soundness (a single corrupted signature must sink the
   batch), and the small-order-component forgery that the engine's
   subgroup check rejects (and the retained naive verifier accepts,
   demonstrating the bug this PR fixes). *)

open Algorand_crypto

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let point_eq = Ed25519.equal_points
let order = Ed25519.order

(* Scalars the recoders historically get wrong: zero, one, around the
   group order, and around the w-NAF carry horizon at 2^252. *)
let edge_scalars =
  [
    Nat.zero;
    Nat.one;
    Nat.of_int 2;
    Nat.sub order Nat.one;
    order;
    Nat.add order Nat.one;
    Nat.shift_left Nat.one 252;
    Nat.sub (Nat.shift_left Nat.one 252) Nat.one;
  ]

let random_scalars ~seed ~bytes n =
  let d = Drbg.create ~seed in
  List.init n (fun _ -> Nat.of_bytes_le (Drbg.random_bytes d bytes))

(* A point of order 2: (0, -1). On the curve since -0 + 1 = 1 + 0. *)
let torsion2 () =
  match Ed25519.decode (Nat.to_bytes_le (Nat.sub Ed25519.Fp.p Nat.one) ~len:32) with
  | Some p -> p
  | None -> Alcotest.fail "torsion point (0,-1) must decode"

let fixed_base_oracle () =
  (* scalar_mult_base reduces mod L; the naive oracle doesn't need to,
     because B generates the order-L subgroup. *)
  let scalars =
    edge_scalars
    @ random_scalars ~seed:"comb" ~bytes:32 300
    @ random_scalars ~seed:"comb-wide" ~bytes:40 40
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) "comb = naive" true
        (point_eq (Ed25519.scalar_mult_base k) (Ed25519.scalar_mult k Ed25519.base)))
    scalars

let split_table_oracle () =
  (* The VRF's split tables, built for a hash-to-curve point: k*P on
     the two-stream chain and k*P - c*Q with Q of prime, small and mixed
     order, against the naive oracle. The edges sit at the split. *)
  let p = Vrf.hash_to_curve "split-table-test" in
  let tbl = Ed25519.split_of_point p in
  let pow2 k = Nat.shift_left Nat.one k in
  let clamped =
    (* An RFC 8032-style clamped secret: bit 254 set, bits 0-2 and 255 clear. *)
    let b = Bytes.of_string (Sha256.digest "split-clamped") in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 0xf8));
    Bytes.set b 31 (Char.chr ((Char.code (Bytes.get b 31) land 0x7f) lor 0x40));
    Nat.of_bytes_le (Bytes.to_string b)
  in
  let edges =
    [
      Nat.zero; Nat.one; Nat.sub (pow2 128) Nat.one; pow2 128; Nat.sub order Nat.one; clamped;
    ]
  in
  let scalars = edges @ random_scalars ~seed:"split" ~bytes:32 100 in
  List.iter
    (fun k ->
      Alcotest.(check bool) "split k*P = naive" true
        (point_eq (Ed25519.split_mult tbl k) (Ed25519.scalar_mult k p)))
    scalars;
  let tor = torsion2 () in
  let qs =
    [ Ed25519.scalar_mult (Nat.of_int 977) Ed25519.base; tor; Ed25519.add Ed25519.base tor ]
  in
  let cs = edges @ random_scalars ~seed:"split-c" ~bytes:16 20 in
  List.iteri
    (fun i k ->
      let c = List.nth cs (i mod List.length cs) and q = List.nth qs (i mod 3) in
      let expect = Ed25519.add (Ed25519.scalar_mult k p) (Ed25519.neg (Ed25519.scalar_mult c q)) in
      Alcotest.(check bool) "split k*P - c*Q = naive" true
        (point_eq (Ed25519.split_mult_sub tbl k c q) expect))
    scalars

let wnaf_oracle () =
  let p = Ed25519.scalar_mult (Nat.of_int 87654321) Ed25519.base in
  let scalars = edge_scalars @ random_scalars ~seed:"wnaf" ~bytes:32 300 in
  List.iter
    (fun k ->
      Alcotest.(check bool) "wnaf = naive" true
        (point_eq (Ed25519.scalar_mult_fast k p) (Ed25519.scalar_mult k p)))
    scalars;
  (* Exactness on the whole group: w-NAF is not allowed to reduce mod L,
     so it must agree with the oracle on a small-order point too. *)
  let tor = torsion2 () in
  List.iter
    (fun k ->
      Alcotest.(check bool) "wnaf exact on torsion" true
        (point_eq (Ed25519.scalar_mult_fast k tor) (Ed25519.scalar_mult k tor)))
    (edge_scalars @ random_scalars ~seed:"wnaf-tor" ~bytes:32 20)

let strauss_oracle () =
  let d = Drbg.create ~seed:"strauss" in
  let rand () = Nat.of_bytes_le (Drbg.random_bytes d 32) in
  for _ = 1 to 150 do
    let a = rand () and b = rand () in
    let q = Ed25519.scalar_mult (rand ()) Ed25519.base in
    let expect =
      Ed25519.add (Ed25519.scalar_mult a Ed25519.base) (Ed25519.scalar_mult b q)
    in
    Alcotest.(check bool) "aB + bQ" true
      (point_eq (Ed25519.double_scalar_mult_base a b q) expect);
    let p = Ed25519.scalar_mult (rand ()) Ed25519.base in
    let expect2 = Ed25519.add (Ed25519.scalar_mult a p) (Ed25519.scalar_mult b q) in
    Alcotest.(check bool) "aP + bQ" true
      (point_eq (Ed25519.double_scalar_mult a p b q) expect2)
  done;
  (* Edge scalars through the interleaved path. *)
  let q = Ed25519.scalar_mult (Nat.of_int 5) Ed25519.base in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let expect =
            Ed25519.add (Ed25519.scalar_mult a Ed25519.base) (Ed25519.scalar_mult b q)
          in
          Alcotest.(check bool) "edge aB + bQ" true
            (point_eq (Ed25519.double_scalar_mult_base a b q) expect))
        edge_scalars)
    edge_scalars

let multi_oracle () =
  let d = Drbg.create ~seed:"multi" in
  let rand () = Nat.of_bytes_le (Drbg.random_bytes d 32) in
  for n = 0 to 12 do
    let base_scalar = rand () in
    let pairs =
      List.init n (fun _ -> (rand (), Ed25519.scalar_mult (rand ()) Ed25519.base))
    in
    let expect =
      List.fold_left
        (fun acc (k, p) -> Ed25519.add acc (Ed25519.scalar_mult k p))
        (Ed25519.scalar_mult base_scalar Ed25519.base)
        pairs
    in
    Alcotest.(check bool)
      (Printf.sprintf "msm with %d terms" n)
      true
      (point_eq (Ed25519.multi_scalar_mult_base ~base_scalar pairs) expect)
  done

let affine_many () =
  let d = Drbg.create ~seed:"affine" in
  let pts =
    Array.init 17 (fun i ->
        if i = 0 then Ed25519.identity
        else Ed25519.scalar_mult (Nat.of_bytes_le (Drbg.random_bytes d 32)) Ed25519.base)
  in
  let batch = Ed25519.to_affine_many pts in
  Array.iteri
    (fun i p ->
      let x, y = Ed25519.to_affine p in
      let bx, by = batch.(i) in
      Alcotest.(check bool) "batch affine x" true (Nat.equal x bx);
      Alcotest.(check bool) "batch affine y" true (Nat.equal y by))
    pts;
  let ix, iy = batch.(0) in
  Alcotest.(check bool) "identity -> (0,1)" true
    (Nat.equal ix Nat.zero && Nat.equal iy Nat.one)

let subgroup_membership () =
  Alcotest.(check bool) "base in subgroup" true (Ed25519.in_prime_subgroup Ed25519.base);
  Alcotest.(check bool) "identity in subgroup" true
    (Ed25519.in_prime_subgroup Ed25519.identity);
  let tor = torsion2 () in
  Alcotest.(check bool) "torsion not in subgroup" false (Ed25519.in_prime_subgroup tor);
  let mixed = Ed25519.add Ed25519.base tor in
  Alcotest.(check bool) "mixed-order not in subgroup" false
    (Ed25519.in_prime_subgroup mixed);
  (* decode_checked mirrors the membership test. *)
  Alcotest.(check bool) "decode_checked rejects torsion" true
    (Ed25519.decode_checked (Ed25519.encode tor) = None);
  Alcotest.(check bool) "decode_checked rejects mixed" true
    (Ed25519.decode_checked (Ed25519.encode mixed) = None);
  Alcotest.(check bool) "decode_checked accepts honest pk" true
    (Ed25519.decode_checked (Ed25519.public_key (Ed25519.generate ~seed:"member"))
    <> None)

(* A signature under pk' = A + T (T of order 2) that the naive verifier
   accepts whenever the challenge is even: s*B = R + e*A = R + e*(A+T)
   - e*T and e*T = O for even e. The engine's verify must reject pk'
   outright (prime-subgroup check), closing the forgery. *)
let small_order_forgery () =
  let sk = Ed25519.generate ~seed:"forgery-victim" in
  let a = Ed25519.secret_scalar sk in
  let a_pt = Ed25519.scalar_mult_base a in
  let tor = torsion2 () in
  let pk' = Ed25519.encode (Ed25519.add a_pt tor) in
  let k = Nat.of_bytes_le (Sha256.digest_concat [ "forgery-nonce"; "x" ]) in
  let r_enc = Ed25519.encode (Ed25519.scalar_mult_base k) in
  let challenge msg =
    Nat.rem
      (Nat.of_bytes_le (Sha256.digest_concat [ "ed25519-chal"; r_enc; pk'; msg ]))
      order
  in
  (* Grind the message until the challenge is even (~1 bit). *)
  let rec find i =
    if i > 64 then Alcotest.fail "no even challenge in 64 tries (p ~ 2^-64)"
    else begin
      let msg = Printf.sprintf "forged-%d" i in
      let e = challenge msg in
      if Nat.testbit e 0 then find (i + 1) else (msg, e)
    end
  in
  let msg, e = find 0 in
  let s = Nat.rem (Nat.add k (Nat.mul e a)) order in
  let signature = r_enc ^ Nat.to_bytes_le s ~len:32 in
  Alcotest.(check bool) "naive verifier accepts the forgery" true
    (Ed25519.verify_ref ~public:pk' ~msg ~signature);
  Alcotest.(check bool) "engine verifier rejects the forgery" false
    (Ed25519.verify ~public:pk' ~msg ~signature);
  (* Control: the engine still accepts the honest signature. *)
  let honest = Ed25519.sign sk msg in
  Alcotest.(check bool) "honest signature accepted" true
    (Ed25519.verify ~public:(Ed25519.public_key sk) ~msg ~signature:honest)

let verify_matches_ref () =
  (* On honest keys the engine and the naive verifier agree, for both
     valid and corrupted signatures. *)
  let sk = Ed25519.generate ~seed:"agree" in
  let pk = Ed25519.public_key sk in
  let d = Drbg.create ~seed:"agree-msgs" in
  for i = 1 to 40 do
    let msg = Drbg.random_bytes d 48 in
    let signature = Ed25519.sign sk msg in
    let signature =
      if i mod 3 = 0 then begin
        (* Corrupt one byte. *)
        let b = Bytes.of_string signature in
        let j = Drbg.random_int d (Bytes.length b) in
        Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor 0x40));
        Bytes.to_string b
      end
      else signature
    in
    Alcotest.(check bool) "verify = verify_ref"
      (Ed25519.verify_ref ~public:pk ~msg ~signature)
      (Ed25519.verify ~public:pk ~msg ~signature)
  done

let batch_sigs n ~seed =
  List.init n (fun i ->
      let sk = Ed25519.generate ~seed:(Printf.sprintf "%s-%d" seed i) in
      let msg = Printf.sprintf "batch message %d" i in
      (Ed25519.public_key sk, msg, Ed25519.sign sk msg))

let batch_accepts () =
  Alcotest.(check bool) "empty batch" true (Ed25519.verify_batch []);
  Alcotest.(check bool) "singleton" true (Ed25519.verify_batch (batch_sigs 1 ~seed:"b1"));
  Alcotest.(check bool) "32 sigs" true (Ed25519.verify_batch (batch_sigs 32 ~seed:"b32"))

let batch_rejects_one_corruption () =
  let items = batch_sigs 24 ~seed:"corrupt" in
  Alcotest.(check bool) "clean batch accepted" true (Ed25519.verify_batch items);
  (* Corrupting exactly one signature - any position - must sink the
     whole batch. *)
  List.iteri
    (fun victim _ ->
      let corrupted =
        List.mapi
          (fun i (pk, msg, signature) ->
            if i = victim then begin
              let b = Bytes.of_string signature in
              Bytes.set b 33 (Char.chr (Char.code (Bytes.get b 33) lxor 0x01));
              (pk, msg, Bytes.to_string b)
            end
            else (pk, msg, signature))
          items
      in
      if Ed25519.verify_batch corrupted then
        Alcotest.fail (Printf.sprintf "batch with corrupted sig %d accepted" victim))
    items;
  (* One wrong message also sinks it. *)
  let wrong_msg =
    List.mapi
      (fun i (pk, msg, signature) -> if i = 7 then (pk, msg ^ "!", signature) else (pk, msg, signature))
      items
  in
  Alcotest.(check bool) "wrong message rejected" false (Ed25519.verify_batch wrong_msg);
  (* A non-canonical s (s + order) is rejected even though it is
     congruent mod L. *)
  let bumped =
    List.mapi
      (fun i (pk, msg, signature) ->
        if i <> 3 then (pk, msg, signature)
        else begin
          let r_enc = String.sub signature 0 32 in
          let s = Nat.of_bytes_le (String.sub signature 32 32) in
          (pk, msg, r_enc ^ Nat.to_bytes_le (Nat.add s order) ~len:32)
        end)
      items
  in
  Alcotest.(check bool) "non-canonical s rejected" false (Ed25519.verify_batch bumped)

let batch_rejects_small_order_pk () =
  let items = batch_sigs 8 ~seed:"batch-tor" in
  let tor = torsion2 () in
  let poisoned =
    List.mapi
      (fun i (pk, msg, signature) ->
        if i <> 2 then (pk, msg, signature)
        else begin
          match Ed25519.decode pk with
          | Some a -> (Ed25519.encode (Ed25519.add a tor), msg, signature)
          | None -> Alcotest.fail "pk must decode"
        end)
      items
  in
  Alcotest.(check bool) "mixed-order pk rejected" false (Ed25519.verify_batch poisoned)

let scheme_batch_matches_single () =
  (* The scheme record's batch agrees with per-signature verify, for
     both implementations. *)
  List.iter
    (fun (scheme : Signature_scheme.scheme) ->
      let items =
        List.init 12 (fun i ->
            let signer, pk =
              scheme.generate ~seed:(Printf.sprintf "scheme-%s-%d" scheme.name i)
            in
            let msg = Printf.sprintf "m%d" i in
            (pk, msg, signer.sign msg))
      in
      Alcotest.(check bool) (scheme.name ^ " batch ok") true (scheme.verify_batch items);
      let bad =
        List.mapi
          (fun i (pk, msg, s) -> if i = 5 then (pk, msg ^ "x", s) else (pk, msg, s))
          items
      in
      Alcotest.(check bool) (scheme.name ^ " batch bad") false (scheme.verify_batch bad))
    [ Signature_scheme.ed25519; Signature_scheme.sim ]

(* The fold reductions against Nat's division: mod L through
   [mod_order], and mod L - 1 through [scalar_of_hash] (which is
   1 + (h mod (L - 1)) for the 64 little-endian bytes h). *)
let fold_reduction_matches_rem () =
  let l_minus_1 = Nat.sub order Nat.one in
  let pow2 k = Nat.shift_left Nat.one k in
  let check x =
    let name = Nat.to_decimal x in
    Alcotest.(check string) ("mod L " ^ name)
      (Nat.to_decimal (Nat.rem x order))
      (Nat.to_decimal (Ed25519.mod_order x));
    Alcotest.(check string) ("mod L-1 " ^ name)
      (Nat.to_decimal (Nat.add Nat.one (Nat.rem x l_minus_1)))
      (Nat.to_decimal (Ed25519.scalar_of_hash (Nat.to_bytes_le x ~len:64)))
  in
  List.iter check
    [
      Nat.zero;
      Nat.sub order Nat.one;
      order;
      Nat.add order Nat.one;
      Nat.sub l_minus_1 Nat.one;
      Nat.mul order (Nat.of_int 5);
      pow2 252;
      Nat.sub (pow2 253) Nat.one;
      Nat.sub (pow2 512) Nat.one;
    ];
  let d = Drbg.create ~seed:"fold" in
  for i = 0 to 1999 do
    let bits = i mod 513 in
    let x = Nat.low_bits (Nat.of_bytes_le (Drbg.random_bytes d 64)) bits in
    check x
  done

(* Allocation gates: deterministic on any host, unlike the timing gates.
   After a warm-up (the pk's subgroup check, the VRF input's split
   tables), one [Ed25519.verify] and one ECVRF verify must each stay
   under about 1.5x the minor words measured when the in-place engine
   landed: 1,552 and 3,026 words for these keys, where the allocating
   field took 227,711 and 296,941. Neither may allocate directly in the
   major heap (blocks over 256 words): the old w-NAF recoding put 1,066
   words a verify there, out of sight of the minor count. *)
let verify_allocation_bounded () =
  let per_call f =
    for _ = 1 to 3 do
      ignore (Sys.opaque_identity (f ()))
    done;
    let n = 20 in
    let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (f ()))
    done;
    let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
    let per x = x /. float_of_int n in
    (per (minor1 -. minor0), per (major1 -. major0 -. (promoted1 -. promoted0)))
  in
  let sk = Ed25519.generate ~seed:"alloc" in
  let public = Ed25519.public_key sk in
  let signature = Ed25519.sign sk "msg" in
  let verify_words, verify_major =
    per_call (fun () ->
        if not (Ed25519.verify ~public ~msg:"msg" ~signature) then
          Alcotest.fail "signature must verify")
  in
  let prover, pk = Vrf.ecvrf.generate ~seed:"alloc" in
  let _, proof = prover.prove "alloc-input" in
  let vrf_words, vrf_major =
    per_call (fun () ->
        if Vrf.ecvrf.verify ~pk ~input:"alloc-input" ~proof = None then
          Alcotest.fail "proof must verify")
  in
  if verify_words > 2_300. then
    Alcotest.failf "Ed25519.verify allocates %.0f minor words (bound 2,300)" verify_words;
  if vrf_words > 4_500. then
    Alcotest.failf "ECVRF verify allocates %.0f minor words (bound 4,500)" vrf_words;
  if verify_major > 0. || vrf_major > 0. then
    Alcotest.failf "direct major-heap words per call: verify %.0f, ECVRF verify %.0f"
      verify_major vrf_major

let suite =
  [
    ( "scalarmult",
      [
        t "fold reduction mod L and L-1 vs Nat.rem" fold_reduction_matches_rem;
        t "verify allocation bounded" verify_allocation_bounded;
        ts "fixed-base comb vs oracle" fixed_base_oracle;
        ts "split table vs oracle" split_table_oracle;
        ts "variable-base w-NAF vs oracle" wnaf_oracle;
        ts "Strauss-Shamir vs oracle" strauss_oracle;
        ts "multi-scalar vs oracle" multi_oracle;
        t "batched affine conversion" affine_many;
        ts "prime-subgroup membership" subgroup_membership;
        ts "small-order forgery rejected" small_order_forgery;
        ts "verify agrees with reference" verify_matches_ref;
        ts "batch accepts valid" batch_accepts;
        ts "batch rejects single corruption" batch_rejects_one_corruption;
        ts "batch rejects mixed-order pk" batch_rejects_small_order_pk;
        ts "scheme batch matches single" scheme_batch_matches_single;
      ] );
  ]
