(* The fast scalar-multiplication engine cross-checked against the
   naive double-and-add oracle on random and edge-case scalars, batch
   verification soundness (a single corrupted signature must sink the
   batch), and the small-order-component forgery that the engine's
   subgroup check rejects (and the retained naive verifier accepts,
   demonstrating the bug this PR fixes). *)

open Algorand_crypto
module Transaction = Algorand_ledger.Transaction

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let point_eq = Ed25519.equal_points
let order = Ed25519.order

let pow2 k = Nat.shift_left Nat.one k

(* An RFC 8032-style clamped secret: bit 254 set, bits 0-2 and 255 clear. *)
let clamped =
  let b = Bytes.of_string (Sha256.digest "split-clamped") in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land 0xf8));
  Bytes.set b 31 (Char.chr ((Char.code (Bytes.get b 31) land 0x7f) lor 0x40));
  Nat.of_bytes_le (Bytes.to_string b)

(* Scalars the recoders historically get wrong: zero, one, around the
   group order, around the w-NAF carry horizon at 2^252, and at the
   row boundaries of 2- and 4-row tables. *)
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
    Nat.sub (pow2 64) Nat.one;
    pow2 64;
    Nat.sub (pow2 128) Nat.one;
    pow2 128;
    pow2 192;
    Nat.sub (pow2 256) Nat.one;
    clamped;
  ]

let random_scalars ~seed ~bytes n =
  let d = Drbg.create ~seed in
  List.init n (fun _ -> Nat.of_bytes_le (Drbg.random_bytes d bytes))

(* A scalar's little-endian bytes, at least 32 of them. *)
let le k = Nat.to_bytes_le k ~len:(max 32 ((Nat.bit_length k + 7) / 8))

(* A point of order 2: (0, -1). On the curve since -0 + 1 = 1 + 0. *)
let torsion2 () =
  match Ed25519.decode (Nat.to_bytes_le (Nat.sub Ed25519.Fp.p Nat.one) ~len:32) with
  | Some p -> p
  | None -> Alcotest.fail "torsion point (0,-1) must decode"

(* Points of prime, small and mixed order. *)
let orders () =
  let tor = torsion2 () in
  [ Ed25519.scalar_mult (Nat.of_int 977) Ed25519.base; tor; Ed25519.add Ed25519.base tor ]

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

let table_oracle () =
  (* Row tables, 2 rows as for the VRF's hash-to-curve point and 4 as
     for a key: k*P, and k*P - c*Q with Q of prime, small and mixed
     order off per-call odd multiples, against the naive oracle. Tables
     are exact for points of any order too. *)
  let p = Vrf.hash_to_curve "split-table-test" in
  let tables = [ Ed25519.table_of_point ~parts:2 p; Ed25519.table_of_point ~parts:4 p ] in
  let scalars = edge_scalars @ random_scalars ~seed:"split" ~bytes:32 100 in
  List.iter
    (fun k ->
      let expect = Ed25519.scalar_mult k p in
      List.iter
        (fun tbl ->
          Alcotest.(check bool) "table k*P = naive" true
            (point_eq (Ed25519.mult [ Ed25519.table_term (le k) tbl ]) expect))
        tables)
    scalars;
  let qs = orders () in
  let cs = edge_scalars @ random_scalars ~seed:"split-c" ~bytes:16 20 in
  List.iteri
    (fun i k ->
      let c = List.nth cs (i mod List.length cs) and q = List.nth qs (i mod 3) in
      let expect = Ed25519.add (Ed25519.scalar_mult k p) (Ed25519.neg (Ed25519.scalar_mult c q)) in
      Alcotest.(check bool) "table k*P - c*Q = naive" true
        (point_eq
           (Ed25519.mult
              [ Ed25519.table_term (le k) (List.nth tables (i mod 2)); Ed25519.term ~neg:true (le c) q ])
           expect))
    scalars;
  List.iter
    (fun q ->
      let tbl = Ed25519.table_of_point ~parts:4 q in
      List.iter
        (fun k ->
          Alcotest.(check bool) "table of any order = naive" true
            (point_eq (Ed25519.mult [ Ed25519.table_term (le k) tbl ]) (Ed25519.scalar_mult k q)))
        (edge_scalars @ random_scalars ~seed:"split-q" ~bytes:32 10))
    qs

let wnaf_oracle () =
  let p = Ed25519.scalar_mult (Nat.of_int 87654321) Ed25519.base in
  let scalars = edge_scalars @ random_scalars ~seed:"wnaf" ~bytes:32 300 in
  List.iter
    (fun k ->
      Alcotest.(check bool) "wnaf = naive" true
        (point_eq (Ed25519.mult [ Ed25519.term (le k) p ]) (Ed25519.scalar_mult k p)))
    scalars;
  (* Exactness on the whole group: per-call terms are not reduced mod
     L, so they must agree with the oracle on small- and mixed-order
     points too, and on scalars wider than 256 bits. *)
  List.iter
    (fun q ->
      List.iter
        (fun k ->
          Alcotest.(check bool) "wnaf exact on any order" true
            (point_eq (Ed25519.mult [ Ed25519.term (le k) q ]) (Ed25519.scalar_mult k q)))
        (edge_scalars @ random_scalars ~seed:"wnaf-tor" ~bytes:40 20))
    (List.tl (orders ()))

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
      (point_eq (Ed25519.mult [ Ed25519.table_term (le a) Ed25519.base_table; Ed25519.term (le b) q ]) expect);
    let p = Ed25519.scalar_mult (rand ()) Ed25519.base in
    let expect2 = Ed25519.add (Ed25519.scalar_mult a p) (Ed25519.scalar_mult b q) in
    Alcotest.(check bool) "aP + bQ" true
      (point_eq (Ed25519.mult [ Ed25519.term (le a) p; Ed25519.term (le b) q ]) expect2)
  done;
  (* Edge scalars through the interleaved path, with Q of prime, small
     and mixed order. *)
  List.iter
    (fun q ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let expect =
                Ed25519.add (Ed25519.scalar_mult a Ed25519.base) (Ed25519.scalar_mult b q)
              in
              Alcotest.(check bool) "edge aB + bQ" true
                (point_eq
                   (Ed25519.mult
                      [ Ed25519.table_term (le a) Ed25519.base_table; Ed25519.term (le b) q ])
                   expect))
            edge_scalars)
        edge_scalars)
    (orders ())

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
    let terms =
      Ed25519.table_term (le base_scalar) Ed25519.base_table
      :: List.map (fun (k, p) -> Ed25519.term (le k) p) pairs
    in
    Alcotest.(check bool)
      (Printf.sprintf "msm with %d terms" n)
      true
      (point_eq (Ed25519.mult terms) expect)
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
  let member p = Ed25519.decode_checked (Ed25519.encode p) <> None in
  Alcotest.(check bool) "base in subgroup" true (member Ed25519.base);
  Alcotest.(check bool) "identity in subgroup" true (member Ed25519.identity);
  let tor = torsion2 () in
  Alcotest.(check bool) "torsion not in subgroup" false (member tor);
  let mixed = Ed25519.add Ed25519.base tor in
  Alcotest.(check bool) "mixed-order not in subgroup" false (member mixed);
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

let flip_byte s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
  Bytes.to_string b

(* On random keys and messages the table-driven verifier agrees with
   the naive one: valid signatures, a flipped R or s byte, a wrong
   message, a wrong key. Keys come from a small pool so that most
   checks run off a key table (built at a key's second check). *)
let verify_matches_ref_random =
  let keys = Array.init 6 (fun i -> Ed25519.generate ~seed:(Printf.sprintf "qc-key-%d" i)) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"verify = verify_ref on random keys"
       QCheck2.Gen.(
         quad (int_bound 5) (string_size (int_range 0 64)) (int_bound 4) (int_bound 31))
       (fun (key, msg, fault, byte) ->
         let sk = keys.(key) in
         let signature = Ed25519.sign sk msg in
         let public, msg, signature =
           match fault with
           | 0 -> (Ed25519.public_key sk, msg, signature)
           | 1 -> (Ed25519.public_key sk, msg, flip_byte signature byte)
           | 2 -> (Ed25519.public_key sk, msg, flip_byte signature (32 + byte))
           | 3 -> (Ed25519.public_key sk, msg ^ "!", signature)
           | _ -> (Ed25519.public_key keys.((key + 1) mod 6), msg, signature)
         in
         let expect = Ed25519.verify_ref ~public ~msg ~signature in
         Ed25519.verify ~public ~msg ~signature = expect && expect = (fault = 0)))

(* A key with a small-order component is rejected on every check, by
   single and batch verification alike, and never gets a table. *)
let small_order_keys_untabled () =
  let tor = torsion2 () in
  let sk = Ed25519.generate ~seed:"untabled" in
  let a = Ed25519.scalar_mult_base (Ed25519.secret_scalar sk) in
  List.iter
    (fun (what, key) ->
      let public = Ed25519.encode key in
      let signature = Ed25519.sign sk "m" in
      for _ = 1 to 3 do
        Alcotest.(check bool) (what ^ " rejected") false
          (Ed25519.verify ~public ~msg:"m" ~signature);
        Alcotest.(check bool) (what ^ " has no key term") true
          (Option.is_none (Ed25519.key_term "\001" public))
      done;
      Alcotest.(check bool) (what ^ " rejected in a batch") false
        (Ed25519.verify_batch [ (public, "m", signature) ]);
      Alcotest.(check bool) (what ^ " has no table") false (Ed25519.has_table public))
    [ ("small-order", tor); ("mixed-order", Ed25519.add a tor) ]

(* More keys than the table cache holds (1,024), each checked twice in a
   row (which builds its table), then every signature checked again
   after the early keys' tables were evicted: the verdicts must not
   change. One signature in five is corrupted. *)
let key_table_churn () =
  let n = 1_064 in
  let items =
    Array.init n (fun i ->
        let sk = Ed25519.generate ~seed:(Printf.sprintf "churn-%d" i) in
        let msg = string_of_int i in
        let signature = Ed25519.sign sk msg in
        (Ed25519.public_key sk, msg, if i mod 5 = 2 then flip_byte signature 40 else signature))
  in
  let verdict (public, msg, signature) = Ed25519.verify ~public ~msg ~signature in
  let expect = Array.init n (fun i -> i mod 5 <> 2) in
  let pk i = let public, _, _ = items.(i) in public in
  let twice =
    Array.mapi
      (fun i item ->
        let a = verdict item in
        if i = 0 then
          Alcotest.(check bool) "no table after a key's first check" false (Ed25519.has_table (pk 0));
        let b = verdict item in
        if i = 0 then
          Alcotest.(check bool) "a table after its second" true (Ed25519.has_table (pk 0));
        (a, b))
      items
  in
  let first = Array.map fst twice and second = Array.map snd twice in
  Alcotest.(check (array bool)) "first check" expect first;
  Alcotest.(check (array bool)) "second check" expect second;
  Alcotest.(check bool) "a late key has a table" true (Ed25519.has_table (pk (n - 1)));
  Alcotest.(check bool) "the first key's table was evicted" false (Ed25519.has_table (pk 0));
  Alcotest.(check (array bool)) "after eviction" expect (Array.map verdict items)

(* A batch over keys with tables (checked twice before) and keys
   without agrees with one-by-one verification, also with one
   corrupted signature at a random position, and builds no table; the
   bisection filter isolates that signature. *)
let batch_warm_and_cold () =
  let scheme = Signature_scheme.ed25519 in
  let signers =
    Array.init 16 (fun i -> scheme.generate ~seed:(Printf.sprintf "warm-cold-%d" i))
  in
  let txs =
    List.init 32 (fun i ->
        let signer, pk = signers.(i mod 16) in
        Transaction.make ~signer ~sender:pk ~recipient:(snd signers.((i + 1) mod 16)) ~amount:1
          ~nonce:(i / 16))
  in
  (* Even signers are warm. *)
  List.iteri
    (fun i tx ->
      if i < 16 && i mod 2 = 0 then
        for _ = 1 to 2 do
          ignore (Transaction.verify_signature ~scheme tx)
        done)
    txs;
  let warm i = Ed25519.has_table (snd signers.(i mod 16)) in
  let tables_as_warmed () =
    List.iteri (fun i _ -> Alcotest.(check bool) "a table iff warmed" (i mod 2 = 0) (warm i)) txs
  in
  tables_as_warmed ();
  Alcotest.(check bool) "clean batch" true (Transaction.verify_batch ~scheme txs);
  let victim = Drbg.random_int (Drbg.create ~seed:"warm-cold-victim") 32 in
  let tainted =
    List.mapi
      (fun i (tx : Transaction.t) ->
        if i = victim then { tx with signature = flip_byte tx.signature 33 } else tx)
      txs
  in
  let batch = Transaction.verify_batch ~scheme tainted in
  tables_as_warmed ();
  let one_by_one = List.for_all (Transaction.verify_signature ~scheme) tainted in
  Alcotest.(check bool) "batch = one by one" one_by_one batch;
  Alcotest.(check bool) "tainted batch rejected" false batch;
  let valid, rejected = Transaction.filter_valid_batch ~scheme tainted in
  Alcotest.(check int) "31 valid" 31 (List.length valid);
  Alcotest.(check bool) "the corrupted one rejected" true
    (rejected = [ List.nth tainted victim ])

(* The C chain ([mult] where the field kernel is C) against the OCaml
   chain ([ocaml_mult]) and the naive oracle: the same group element,
   the same encoding, and a valid extended coordinate T, which an
   addition reads (X and Y alone would not show a wrong T). *)
let chains_agree what terms expect =
  let c = Ed25519.mult terms and o = Ed25519.ocaml_mult terms in
  let plus_b p = Ed25519.add p Ed25519.base in
  List.iter
    (fun (chain, r) ->
      if not (point_eq r expect) then Alcotest.failf "%s: %s chain <> oracle" what chain;
      if not (point_eq (plus_b r) (plus_b expect)) then Alcotest.failf "%s: %s chain's T" what chain)
    [ ("OCaml", o); ("C", c) ];
  Alcotest.(check string) (what ^ ": one encoding") (Ed25519.encode o) (Ed25519.encode c)

let signed ~neg p = if neg then Ed25519.neg p else p
let sum = List.fold_left Ed25519.add Ed25519.identity

(* Edge scalars, either sign, off a point's odd multiples (one stream)
   and off its 2- and 4-row tables, for points of prime, small and
   mixed order; two streams (k*P -/+ c*Q) over pairs of edge scalars;
   then 64 and 260 streams of random terms, some negated. *)
let kernels_at_extremes () =
  let qs = Vrf.hash_to_curve "kernels" :: List.tl (orders ()) in
  let tables q = [ Ed25519.table_of_point ~parts:2 q; Ed25519.table_of_point ~parts:4 q ] in
  List.iteri
    (fun qi q ->
      let tbls = tables q in
      List.iteri
        (fun ki k ->
          let kq = Ed25519.scalar_mult k q in
          List.iter
            (fun neg ->
              let what = Printf.sprintf "point %d, edge %d, neg %b" qi ki neg in
              let expect = signed ~neg kq in
              chains_agree (what ^ ", odd multiples") [ Ed25519.term ~neg (le k) q ] expect;
              List.iter
                (fun tbl -> chains_agree (what ^ ", table") [ Ed25519.table_term ~neg (le k) tbl ] expect)
                tbls)
            [ false; true ])
        edge_scalars)
    qs;
  let products = List.map (fun k -> List.map (fun q -> Ed25519.scalar_mult k q) qs) edge_scalars in
  List.iteri
    (fun i k ->
      List.iteri
        (fun j c ->
          let p = List.nth qs (i mod 3) and q = List.nth qs ((i + j) mod 3) in
          let kp = List.nth (List.nth products i) (i mod 3)
          and cq = List.nth (List.nth products j) ((i + j) mod 3) in
          let neg = j mod 2 = 0 in
          chains_agree
            (Printf.sprintf "two streams, edges %d and %d" i j)
            [ Ed25519.term (le k) p; Ed25519.term ~neg (le c) q ]
            (Ed25519.add kp (signed ~neg cq)))
        edge_scalars)
    edge_scalars;
  let d = Drbg.create ~seed:"kernels-many" in
  let random_terms ~tabled ~odd =
    List.init (tabled + odd) (fun i ->
        let k = Nat.of_bytes_le (Drbg.random_bytes d (if i mod 3 = 0 then 16 else 32)) in
        let q = Ed25519.scalar_mult_base (Nat.of_bytes_le (Drbg.random_bytes d 32)) in
        let q = if i mod 5 = 0 then Ed25519.add q (torsion2 ()) else q in
        let neg = i mod 2 = 1 in
        let term =
          if i < tabled then Ed25519.table_term ~neg (le k) (Ed25519.table_of_point ~parts:4 q)
          else Ed25519.term ~neg (le k) q
        in
        (term, signed ~neg (Ed25519.scalar_mult k q)))
  in
  List.iter
    (fun (what, terms) ->
      chains_agree what (List.map fst terms) (sum (List.map snd terms)))
    [
      ("64 streams", random_terms ~tabled:8 ~odd:32);
      ("260 streams", random_terms ~tabled:0 ~odd:260);
    ]

(* 256 signatures, one batch (516 streams on one chain: 256 R terms,
   256 keys off odd multiples, B's 4 rows), clean and with one
   signature corrupted at a random position. *)
let batch_of_256 () =
  let items = batch_sigs 256 ~seed:"batch-256" in
  Alcotest.(check bool) "clean batch of 256" true (Ed25519.verify_batch items);
  let victim = Drbg.random_int (Drbg.create ~seed:"batch-256-victim") 256 in
  let tainted =
    List.mapi
      (fun i (pk, msg, signature) -> if i = victim then (pk, msg, flip_byte signature 40) else (pk, msg, signature))
      items
  in
  Alcotest.(check bool) "one corrupted signature sinks it" false (Ed25519.verify_batch tainted);
  Alcotest.(check (list bool))
    "one by one, only the corrupted one fails"
    (List.init 256 (fun i -> i <> victim))
    (List.map (fun (public, msg, signature) -> Ed25519.verify ~public ~msg ~signature) tainted)

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

(* Calls of [f], after [warm] more, per call: minor words, and words
   allocated directly in the major heap (blocks over 256 words, which
   the minor count never sees). *)
let per_call ?(warm = 3) ~n f =
  for _ = 1 to warm do
    ignore (Sys.opaque_identity (f ()))
  done;
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let per x = x /. float_of_int n in
  (per (minor1 -. minor0), per (major1 -. major0 -. (promoted1 -. promoted0)))

let bounded what ~bound (minor, major) =
  if minor > bound then Alcotest.failf "%s allocates %.0f minor words (bound %.0f)" what minor bound;
  if major > 0. then Alcotest.failf "%s allocates %.0f words directly in the major heap" what major

(* Allocation gates: deterministic on any host, unlike the timing gates.
   After a warm-up (the pk's subgroup check and table, the VRF input's
   table), one [Ed25519.verify], one ECVRF verify and a batch of one
   (which never builds a table, so it runs its key off odd multiples)
   must each stay under about 1.2x the minor words they measured when
   their chains moved into one C call each: 518, 998 and 942 words,
   bounds 620, 1,200 and 1,130. The C chain allocates only its result;
   the OCaml chain, which runs where the field kernel is OCaml, also
   allocates its odd multiples per call and keeps the bounds set before
   the C chain (it measures 582, 1,530 and 1,910 words; bounds 700,
   2,100 and 2,300). None may allocate directly in the major heap: the
   old w-NAF recoding put 1,066 words a verify there. *)
let c_chain = String.equal Fe25519.kernel "c"
let chain_bound ~c ~ocaml = if c_chain then c else ocaml

let verify_allocation_bounded () =
  let sk = Ed25519.generate ~seed:"alloc" in
  let public = Ed25519.public_key sk in
  let signature = Ed25519.sign sk "msg" in
  bounded "Ed25519.verify" ~bound:(chain_bound ~c:620. ~ocaml:700.)
    (per_call ~n:20 (fun () ->
         if not (Ed25519.verify ~public ~msg:"msg" ~signature) then
           Alcotest.fail "signature must verify"));
  let prover, pk = Vrf.ecvrf.generate ~seed:"alloc" in
  let _, proof = prover.prove "alloc-input" in
  bounded "ECVRF verify" ~bound:(chain_bound ~c:1_200. ~ocaml:2_100.)
    (per_call ~n:20 (fun () ->
         if Vrf.ecvrf.verify ~pk ~input:"alloc-input" ~proof = None then
           Alcotest.fail "proof must verify"));
  let sk = Ed25519.generate ~seed:"alloc-batch" in
  let item = (Ed25519.public_key sk, "msg", Ed25519.sign sk "msg") in
  bounded "a batch of one" ~bound:(chain_bound ~c:1_130. ~ocaml:2_300.)
    (per_call ~n:20 (fun () ->
         if not (Ed25519.verify_batch [ item ]) then Alcotest.fail "batch must verify"));
  let public, _, _ = item in
  Alcotest.(check bool) "the batch built no table" false (Ed25519.has_table public)

(* Keys checked in turn, more than 512 apart, build no table: each
   check runs the key off per-call odd multiples, as every key's first
   check does. Two passes over 600 Ed25519 keys and 600 VRF keys (the
   first runs each key's subgroup check), then one measured pass, which
   must build nothing and stay under about 1.2x the minor words a check
   measured when the bounds were set: on the C chain 487 a verify and
   984 an ECVRF verify, on the OCaml chain 1,008 and 2,165 (1,451 and
   2,829 before key tables). *)
let cycling_keys_build_no_table () =
  let n = 600 in
  let sigs =
    Array.init n (fun i ->
        let sk = Ed25519.generate ~seed:(Printf.sprintf "cycle-%d" i) in
        (Ed25519.public_key sk, Ed25519.sign sk "m"))
  in
  let vrfs =
    Array.init n (fun i ->
        let prover, pk = Vrf.ecvrf.generate ~seed:(Printf.sprintf "cycle-%d" i) in
        (pk, snd (prover.prove "cycle-input")))
  in
  let next = ref 0 in
  let cycle f () =
    f (!next mod n);
    incr next
  in
  let verify i =
    let public, signature = sigs.(i) in
    if not (Ed25519.verify ~public ~msg:"m" ~signature) then Alcotest.fail "must verify"
  in
  let vrf_verify i =
    let pk, proof = vrfs.(i) in
    if Vrf.ecvrf.verify ~pk ~input:"cycle-input" ~proof = None then Alcotest.fail "must verify"
  in
  let r1 = per_call ~warm:(2 * n) ~n (cycle verify) in
  let r2 = per_call ~warm:(2 * n) ~n (cycle vrf_verify) in
  bounded "Ed25519.verify without a table" ~bound:(chain_bound ~c:590. ~ocaml:1_200.) r1;
  bounded "ECVRF verify without a table" ~bound:(chain_bound ~c:1_190. ~ocaml:2_600.) r2;
  Array.iter
    (fun (public, _) -> Alcotest.(check bool) "no Ed25519 key table" false (Ed25519.has_table public))
    sigs;
  Array.iter (fun (pk, _) -> Alcotest.(check bool) "no VRF key table" false (Ed25519.has_table pk)) vrfs

(* Keys checked in turn at most 512 apart keep the tables they build:
   over 300 keys, four passes give every key one (a key builds it at
   its first check that finds its previous one still sighted), and in
   the next two every check finds its key's table. *)
let cycling_keys_keep_tables () =
  let n = 300 in
  let sigs =
    Array.init n (fun i ->
        let sk = Ed25519.generate ~seed:(Printf.sprintf "keep-%d" i) in
        (Ed25519.public_key sk, Ed25519.sign sk "m"))
  in
  let pass () =
    Array.fold_left
      (fun found (public, signature) ->
        let had = Ed25519.has_table public in
        if not (Ed25519.verify ~public ~msg:"m" ~signature) then Alcotest.fail "must verify";
        if had then found + 1 else found)
      0 sigs
  in
  for _ = 1 to 4 do
    ignore (pass ())
  done;
  Alcotest.(check (list int)) "checks that found a table" [ n; n ] [ pass (); pass () ]

(* A scalar above 2^256 is refused off a table, and off a key whether
   or not the key holds a table yet: a table reads 256 bits. *)
let long_scalar_refused () =
  let sk = Ed25519.generate ~seed:"long-scalar" in
  let public = Ed25519.public_key sk and long = String.make 33 '\001' in
  let refused what f =
    Alcotest.check_raises what (Invalid_argument "Ed25519.key_term: scalar above 2^256") (fun () ->
        ignore (f ()))
  in
  refused "before a table" (fun () -> Ed25519.key_term long public);
  for _ = 1 to 2 do
    ignore (Ed25519.verify ~public ~msg:"m" ~signature:(Ed25519.sign sk "m"))
  done;
  Alcotest.(check bool) "the key has a table" true (Ed25519.has_table public);
  refused "after it" (fun () -> Ed25519.key_term long public);
  Alcotest.check_raises "off a table" (Invalid_argument "Ed25519.table_term: scalar above 2^256")
    (fun () -> ignore (Ed25519.table_term long Ed25519.base_table))

let suite =
  [
    ( "scalarmult",
      [
        t "fold reduction mod L and L-1 vs Nat.rem" fold_reduction_matches_rem;
        t "verify allocation bounded" verify_allocation_bounded;
        ts "kernels agree at the extremes" kernels_at_extremes;
        ts "batch of 256, one corrupted" batch_of_256;
        ts "keys cycling past the tables build none" cycling_keys_build_no_table;
        ts "keys cycling within the tables keep them" cycling_keys_keep_tables;
        t "scalars above 2^256 refused off tables" long_scalar_refused;
        ts "fixed-base comb vs oracle" fixed_base_oracle;
        ts "split table vs oracle" table_oracle;
        ts "variable-base w-NAF vs oracle" wnaf_oracle;
        ts "Strauss-Shamir vs oracle" strauss_oracle;
        ts "multi-scalar vs oracle" multi_oracle;
        t "batched affine conversion" affine_many;
        ts "prime-subgroup membership" subgroup_membership;
        ts "small-order forgery rejected" small_order_forgery;
        ts "verify agrees with reference" verify_matches_ref;
        verify_matches_ref_random;
        ts "small- and mixed-order keys get no table" small_order_keys_untabled;
        ts "key table churn keeps verdicts" key_table_churn;
        ts "batch over warm and cold keys" batch_warm_and_cold;
        ts "batch accepts valid" batch_accepts;
        ts "batch rejects single corruption" batch_rejects_one_corruption;
        ts "batch rejects mixed-order pk" batch_rejects_small_order_pk;
        ts "scheme batch matches single" scheme_batch_matches_single;
      ] );
  ]
