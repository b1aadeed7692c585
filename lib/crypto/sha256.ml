(* SHA-256 (FIPS 180-4), with two kernels that give the same digests.

   On x86-64 CPUs with the SHA extensions (plus SSSE3 and SSE4.1), each
   digest is one call into the SHA-NI kernel in sha256_stubs.c. Every
   other host runs the pure-OCaml kernel below, which also stays
   callable everywhere as [ocaml_digest_concat]. The kernel is chosen
   once, at module initialisation, from cpuid and nothing else.

   The round constants are the first 32 bits of the fractional parts of
   the cube roots of the first 64 primes, and the initial hash state
   comes from the square roots of the first 8 primes. Rather than
   transcribing 72 magic words (and risking a silent typo), we derive
   them exactly at module initialization with integer root extraction,
   and the test suite pins the resulting digests to known vectors. *)

let first_primes n =
  let rec is_prime k d = d * d > k || (k mod d <> 0 && is_prime k (d + 1)) in
  let rec collect acc k = if List.length acc = n then List.rev acc else collect (if is_prime k 2 then k :: acc else acc) (k + 1) in
  collect [] 2

(* Integer k-th root of [p * 2^(32k)]; the result fits easily in an int. *)
let scaled_root ~k p =
  let target = Nat.shift_left (Nat.of_int p) (32 * k) in
  let pow_k x =
    let nx = Nat.of_int x in
    let rec go acc i = if i = 0 then acc else go (Nat.mul acc nx) (i - 1) in
    go nx (k - 1)
  in
  let rec search lo hi =
    (* invariant: lo^k <= target < (hi+1)^k *)
    if lo = hi then lo
    else begin
      let mid = (lo + hi + 1) / 2 in
      if Nat.compare (pow_k mid) target <= 0 then search mid hi else search lo (mid - 1)
    end
  in
  search 0 (1 lsl 36)

let mask32 = 0xFFFFFFFF

(* Derived eagerly, once, at module initialization: a [lazy] would be
   forced on every block, a tag check the inner loop need not pay. Both
   arrays are read-only from here on, so the kernel holds no mutable
   state outside the call it serves. *)
let k_table = Array.of_list (List.map (fun p -> scaled_root ~k:3 p land mask32) (first_primes 64))
let h_init = Array.of_list (List.map (fun p -> scaled_root ~k:2 p land mask32) (first_primes 8))

(* The kernel works on 63-bit ints holding 32-bit words and masks only
   where a word must be exact: the new [a] and [e] of a round, and each
   schedule word. Sums may carry garbage above bit 31 in between, which
   never reaches the low 32 bits. A rotation reads the word doubled,
   [x lor (x lsl 32)]: bits n..n+31 of it are x rotated right by n. The
   copy loses x's top bit off the 63-bit int, but every n used here is
   below 31, so no rotation reads that bit. *)

external get32u : string -> int -> int32 = "%caml_string_get32u"
external bytes_get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

let[@inline] be32 x = Int32.to_int (if Sys.big_endian then x else swap32 x) land mask32

(* Message words 0..15 of the block at [off]; callers only pass offsets
   of whole 64-byte blocks, so the loads skip the bounds check. *)
let load_string (w : int array) (s : string) (off : int) =
  for t = 0 to 15 do
    Array.unsafe_set w t (be32 (get32u s (off + (4 * t))))
  done

let load_bytes (w : int array) (b : bytes) (off : int) =
  for t = 0 to 15 do
    Array.unsafe_set w t (be32 (bytes_get32u b (off + (4 * t))))
  done

(* One compression of the block already loaded into [w.(0..15)]. *)
let compress (h : int array) (w : int array) =
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let x2 = x lor (x lsl 32) and y2 = y lor (y lsl 32) in
    let s0 = (x2 lsr 7) lxor (x2 lsr 18) lxor (x lsr 3) in
    let s1 = (y2 lsr 17) lxor (y2 lsr 19) lxor (y lsr 10) in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1) land mask32)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  for t = 0 to 63 do
    let e' = !e and a' = !a in
    let e2 = e' lor (e' lsl 32) and a2 = a' lor (a' lsl 32) in
    let s1 = (e2 lsr 6) lxor (e2 lsr 11) lxor (e2 lsr 25) in
    let ch = !g lxor (e' land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k_table t + Array.unsafe_get w t in
    let s0 = (a2 lsr 2) lxor (a2 lsr 13) lxor (a2 lsr 22) in
    let maj = (a' land !b) lor (!c land (a' lor !b)) in
    hh := !g;
    g := !f;
    f := e';
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := a';
    a := (t1 + s0 + maj) land mask32
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask32);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask32);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask32);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask32)

let digest_length = 32

(* The OCaml kernel: the digest of the concatenation of [parts],
   streamed: whole blocks are compressed straight out of each part, and
   only bytes that straddle a part boundary, plus the padded tail, pass
   through [buf].
   All state (chaining value, schedule, buffer) belongs to this call:
   three minor-heap allocations buy a kernel with no module-level
   state, which stays correct whoever calls it and needs no reset. *)
let ocaml_digest_concat (parts : string list) : string =
  let h = Array.copy h_init in
  let w = Array.make 64 0 in
  let buf = Bytes.create 128 in
  (* [fill] bytes of a partial block wait in [buf]; [total] counts all. *)
  let rec feed fill total = function
    | [] -> (fill, total)
    | p :: rest ->
      let len = String.length p in
      let pos =
        if fill = 0 then 0
        else begin
          let n = min (64 - fill) len in
          Bytes.blit_string p 0 buf fill n;
          n
        end
      in
      let fill = if fill = 0 then 0 else fill + pos in
      let fill =
        if fill = 64 then begin
          load_bytes w buf 0;
          compress h w;
          0
        end
        else fill
      in
      let pos = ref pos in
      while len - !pos >= 64 do
        load_string w p !pos;
        compress h w;
        pos := !pos + 64
      done;
      let tail = len - !pos in
      let fill =
        if tail > 0 then begin
          Bytes.blit_string p !pos buf 0 tail;
          tail
        end
        else fill
      in
      feed fill (total + len) rest
  in
  let fill, total = feed 0 0 parts in
  (* Padding: 0x80, zeroes, then the 64-bit big-endian bit length. *)
  let pad_len = if fill < 56 then 64 else 128 in
  Bytes.set buf fill '\x80';
  Bytes.fill buf (fill + 1) (pad_len - 9 - fill) '\000';
  Bytes.set_int64_be buf (pad_len - 8) (Int64.of_int (total * 8));
  load_bytes w buf 0;
  compress h w;
  if pad_len = 128 then begin
    load_bytes w buf 64;
    compress h w
  end;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int h.(i))
  done;
  Bytes.unsafe_to_string out

(* The SHA-NI kernel (sha256_stubs.c): one C call per digest, into a
   result allocated here. [ni_init] hands it the constants derived above
   and reads cpuid; it answers [false] on any CPU without SHA, SSSE3
   and SSE4.1, and off x86-64. *)
external ni_init : int array -> int array -> bool = "algorand_sha256_ni_init" [@@noalloc]
external ni_digest : string list -> bytes -> unit = "algorand_sha256_ni_digest" [@@noalloc]

let sha_ni = ni_init k_table h_init
let kernel = if sha_ni then "sha-ni" else "ocaml"

let digest_concat (parts : string list) : string =
  if sha_ni then begin
    let out = Bytes.create digest_length in
    ni_digest parts out;
    Bytes.unsafe_to_string out
  end
  else ocaml_digest_concat parts

let digest (msg : string) : string = digest_concat [ msg ]

let digest_hex msg = Hex.of_string (digest msg)

(* A short (62-bit) nonnegative int view of a digest, handy for seeding
   simulation RNGs from protocol-level hashes. *)
let digest_int msg =
  let d = digest msg in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int
