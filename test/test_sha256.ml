(* SHA-256 against FIPS/NIST known-answer vectors; since the constants
   are derived at runtime, these vectors transitively pin the whole
   constant-derivation path. *)

open Algorand_crypto

let t name f = Alcotest.test_case name `Quick f
let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* The kernel this library shipped before the optimized one, kept
   verbatim (constants derived the same way, through [Nat]) as the
   oracle for the differential tests below. *)
module Reference = struct
  let first_primes n =
    let rec is_prime k d = d * d > k || (k mod d <> 0 && is_prime k (d + 1)) in
    let rec collect acc k =
      if List.length acc = n then List.rev acc
      else collect (if is_prime k 2 then k :: acc else acc) (k + 1)
    in
    collect [] 2

  let scaled_root ~k p =
    let target = Nat.shift_left (Nat.of_int p) (32 * k) in
    let pow_k x =
      let nx = Nat.of_int x in
      let rec go acc i = if i = 0 then acc else go (Nat.mul acc nx) (i - 1) in
      go nx (k - 1)
    in
    let rec search lo hi =
      if lo = hi then lo
      else begin
        let mid = (lo + hi + 1) / 2 in
        if Nat.compare (pow_k mid) target <= 0 then search mid hi else search lo (mid - 1)
      end
    in
    search 0 (1 lsl 36)

  let mask32 = 0xFFFFFFFF

  let k_table =
    lazy (Array.of_list (List.map (fun p -> scaled_root ~k:3 p land mask32) (first_primes 64)))

  let h_init =
    lazy (Array.of_list (List.map (fun p -> scaled_root ~k:2 p land mask32) (first_primes 8)))

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

  let compress (h : int array) (block : string) (off : int) =
    let k = Lazy.force k_table in
    let w = Array.make 64 0 in
    for t = 0 to 15 do
      let b i = Char.code block.[off + (4 * t) + i] in
      w.(t) <- (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land mask32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land mask32 in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask32;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land mask32
    done;
    h.(0) <- (h.(0) + !a) land mask32;
    h.(1) <- (h.(1) + !b) land mask32;
    h.(2) <- (h.(2) + !c) land mask32;
    h.(3) <- (h.(3) + !d) land mask32;
    h.(4) <- (h.(4) + !e) land mask32;
    h.(5) <- (h.(5) + !f) land mask32;
    h.(6) <- (h.(6) + !g) land mask32;
    h.(7) <- (h.(7) + !hh) land mask32

  let digest (msg : string) : string =
    let h = Array.copy (Lazy.force h_init) in
    let len = String.length msg in
    let full_blocks = len / 64 in
    for i = 0 to full_blocks - 1 do
      compress h msg (i * 64)
    done;
    let rem = len - (full_blocks * 64) in
    let pad_len = if rem < 56 then 64 else 128 in
    let tail = Bytes.make pad_len '\000' in
    Bytes.blit_string msg (full_blocks * 64) tail 0 rem;
    Bytes.set tail rem '\x80';
    let bitlen = len * 8 in
    for i = 0 to 7 do
      Bytes.set tail (pad_len - 1 - i) (Char.chr ((bitlen lsr (8 * i)) land 0xff))
    done;
    let tail = Bytes.unsafe_to_string tail in
    compress h tail 0;
    if pad_len = 128 then compress h tail 64;
    String.init 32 (fun i -> Char.chr ((h.(i / 4) lsr (8 * (3 - (i mod 4)))) land 0xff))
end

let random_string rng len = String.init len (fun _ -> Char.chr (Random.State.int rng 256))

(* Both kernels: the one [digest_concat] runs on this host and the
   OCaml one, which is the same kernel where the SHA extensions are
   missing. *)
let kernels =
  [ (Sha256.kernel, Sha256.digest_concat); ("ocaml", Sha256.ocaml_digest_concat) ]

let check_kernels what expected parts =
  List.iter
    (fun (kernel, digest_concat) ->
      Alcotest.(check string) (Printf.sprintf "%s (%s kernel)" what kernel) expected
        (Hex.of_string (digest_concat parts)))
    kernels

let check_against_reference what msg =
  check_kernels what (Hex.of_string (Reference.digest msg)) [ msg ]

let every_short_length () =
  (* Every padding case: 0..300 bytes covers remainders 0..63 of one,
     two, three and four whole blocks, and both one- and two-block
     tails. *)
  let rng = Random.State.make [| 256 |] in
  for len = 0 to 300 do
    check_against_reference (Printf.sprintf "length %d" len) (random_string rng len)
  done

let random_messages () =
  let rng = Random.State.make [| 4096 |] in
  for i = 1 to 2_000 do
    let len = Random.State.int rng 4097 in
    check_against_reference (Printf.sprintf "message %d (%d bytes)" i len) (random_string rng len)
  done

let concat_random_splits () =
  (* Parts of every size, empty ones included, so block boundaries fall
     inside parts, on part boundaries, and across several short parts. *)
  let rng = Random.State.make [| 1024 |] in
  for i = 1 to 500 do
    let msg = random_string rng (Random.State.int rng 600) in
    let rec split pos acc =
      if pos >= String.length msg && Random.State.bool rng then List.rev acc
      else begin
        let max_part = if Random.State.int rng 4 = 0 then 200 else 70 in
        let n = min (String.length msg - pos) (Random.State.int rng max_part) in
        split (pos + n) (String.sub msg pos n :: acc)
      end
    in
    let parts = split 0 [] in
    check_kernels
      (Printf.sprintf "split %d into %d parts" i (List.length parts))
      (Hex.of_string (Reference.digest msg))
      parts
  done

let vector msg expected () =
  Alcotest.(check string) "digest" expected (Sha256.digest_hex msg);
  Alcotest.(check string) "reference digest" expected (Hex.of_string (Reference.digest msg))

let nist_vectors =
  [
    ("empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "two-block",
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "896-bit",
      "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
      "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1" );
  ]

let million_a () =
  (* The classic 1,000,000 x 'a' vector. *)
  Alcotest.(check string) "digest"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_hex (String.make 1_000_000 'a'));
  check_kernels "one part per 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (List.init 1_000_000 (fun _ -> "a"))

(* On the SHA-NI kernel a digest is one C call that writes into its
   result, so the result is all it allocates: a 32-byte string is a
   header, 4 words of bytes and a word for the padding byte. The OCaml
   kernel allocates its working state too, so the bound is asserted
   only where SHA-NI is in use. *)
let hardware_allocates_only_result () =
  if String.equal Sha256.kernel "sha-ni" then begin
    let parts = [ String.make 100 'p'; "q"; String.make 200 'r' ] in
    let n = 1_000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Sha256.digest_concat parts))
    done;
    let per_digest = (Gc.minor_words () -. before) /. float_of_int n in
    let result_words = float_of_int ((Sha256.digest_length / (Sys.word_size / 8)) + 2) in
    if per_digest > result_words then
      Alcotest.failf "%.2f words per digest, more than the %.0f-word result" per_digest
        result_words
  end

let padding_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries must not crash
     and must be distinct. *)
  let lengths = [ 0; 1; 54; 55; 56; 57; 63; 64; 65; 119; 120; 127; 128; 129 ] in
  let digests = List.map (fun n -> Sha256.digest (String.make n 'x')) lengths in
  let distinct = List.sort_uniq compare digests in
  Alcotest.(check int) "all distinct" (List.length lengths) (List.length distinct)

let length_is_32 () =
  Alcotest.(check int) "digest length" 32 (String.length (Sha256.digest "anything"))

let hex_roundtrip () =
  let d = Sha256.digest "x" in
  Alcotest.(check string) "roundtrip" d (Hex.to_string (Hex.of_string d))

let hmac_self_consistency () =
  (* HMAC distinguishes keys and messages; same inputs agree. *)
  let t1 = Hmac.sha256 ~key:"k1" "msg" in
  Alcotest.(check string) "deterministic" t1 (Hmac.sha256 ~key:"k1" "msg");
  Alcotest.(check bool) "key matters" false (String.equal t1 (Hmac.sha256 ~key:"k2" "msg"));
  Alcotest.(check bool) "msg matters" false (String.equal t1 (Hmac.sha256 ~key:"k1" "msh"));
  (* Long keys are hashed down to block size first. *)
  let long_key = String.make 200 'k' in
  Alcotest.(check string) "long key = hashed key"
    (Hmac.sha256 ~key:long_key "m")
    (Hmac.sha256 ~key:(Sha256.digest long_key) "m")

let drbg_deterministic () =
  let d1 = Drbg.create ~seed:"s" and d2 = Drbg.create ~seed:"s" in
  Alcotest.(check string) "same stream" (Drbg.random_bytes d1 100) (Drbg.random_bytes d2 100);
  let d3 = Drbg.create ~seed:"other" in
  Alcotest.(check bool) "different seed differs" false
    (String.equal (Drbg.random_bytes (Drbg.create ~seed:"s") 100) (Drbg.random_bytes d3 100))

let drbg_int_bounds () =
  let d = Drbg.create ~seed:"bounds" in
  for _ = 1 to 1000 do
    let v = Drbg.random_int d 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of range"
  done

let suite =
  [
    ( "sha256",
      List.map (fun (name, msg, expected) -> t name (vector msg expected)) nist_vectors
      @ [
          t "million 'a'" million_a;
          t "kernel = reference, lengths 0..300" every_short_length;
          t "kernel = reference, 2000 random messages" random_messages;
          t "digest_concat = digest over random splits" concat_random_splits;
          t "sha-ni digest allocates only its result" hardware_allocates_only_result;
          t "padding boundaries" padding_boundaries;
          t "digest length" length_is_32;
          t "hex roundtrip" hex_roundtrip;
          t "hmac self-consistency" hmac_self_consistency;
          t "drbg deterministic" drbg_deterministic;
          t "drbg int bounds" drbg_int_bounds;
          qt "incremental vs concat" QCheck2.Gen.(pair string string) (fun (a, b) ->
              String.equal (Sha256.digest_concat [ a; b ]) (Sha256.digest (a ^ b)));
        ] );
  ]
