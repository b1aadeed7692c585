(** SHA-256 (FIPS 180-4), with two kernels that give the same digests.

    On x86-64 CPUs with the SHA extensions (plus SSSE3 and SSE4.1), every
    digest is one C call into a SHA-NI kernel ([sha256_stubs.c]). Every
    other host runs a pure-OCaml kernel. The choice is made once, at
    module initialisation, from [cpuid] and nothing else: there is no
    flag, setting or environment variable for it. Both kernels use the
    same constants, derived at init time from prime roots. *)

val digest_length : int
(** 32 bytes. *)

val digest : string -> string
(** [digest msg] is the 32-byte SHA-256 digest of [msg]. *)

val digest_hex : string -> string
(** [digest_hex msg] is the digest rendered as lowercase hex. *)

val digest_concat : string list -> string
(** [digest_concat parts] hashes the concatenation of [parts]. On the
    SHA-NI kernel it allocates only its 32-byte result. *)

val digest_int : string -> int
(** A 62-bit nonnegative integer folded from the digest prefix; used to
    seed deterministic simulation RNGs from protocol hashes. *)

val kernel : string
(** The kernel [digest_concat] runs on this host: ["sha-ni"] or
    ["ocaml"]. *)

val ocaml_digest_concat : string list -> string
(** The pure-OCaml kernel, callable on every host: what [digest_concat]
    is where the SHA extensions are missing, and what tests compare the
    SHA-NI kernel against. *)
