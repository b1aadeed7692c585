(** Verifiable random functions (Micali-Rabin-Vadhan), the primitive
    behind cryptographic sortition (section 5).

    Two implementations share one closure-record interface: [ecvrf] is
    a real ECVRF-style construction over the ed25519 curve; [sim] is a
    keyed-mixer stand-in with the same output distribution but no
    secrecy, used for large-scale simulations (the paper itself elides
    verification cost when simulating 500,000 users, section 10.1). *)

type prover = { prove : string -> string * string  (** input -> (hash, proof) *) }

type scheme = {
  name : string;
  generate : seed:string -> prover * string;  (** seed -> (prover, public key) *)
  verify : pk:string -> input:string -> proof:string -> string option;
      (** the VRF hash, iff the proof is valid for [pk] and [input] *)
  proof_length : int;
  output_length : int;
}

val hash_to_curve : string -> Ed25519.point
(** Try-and-increment hashing to the prime-order subgroup. *)

val ecvrf : scheme
(** ECVRF over ed25519: Gamma = sk*H(input), Fiat-Shamir proof,
    cofactor-cleared output; structure per the Goldberg et al. VRF the
    paper cites. *)

val sim : scheme
(** Distribution-faithful simulation VRF (outputs derivable from the
    public key; zero-length proofs): one SHA-256 per input, cached for
    the last 16 inputs, then a 64-bit mix of that input key with the
    public key's {!sim_key}. Rejects a non-empty proof or a public key
    that is not 32 bytes. See DESIGN.md, substitution 3. *)

val sim_key : string -> int64
(** The 64-bit key word of a 32-byte [sim] public key. [sim]'s output
    for a public key depends on the key only through this word. *)

val sim_sweep :
  (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t ->
  input:string -> floor:float -> (int -> float -> unit) -> unit
(** [sim_sweep keys ~input ~floor f] calls [f u frac], in index order,
    for every [u] whose fraction [frac] is at least [floor], where
    [frac] is exactly [Sortition.hash_fraction] of [sim]'s output for
    [input] and a public key whose {!sim_key} is [keys.{u}]: the top
    56 bits of the output word over 2{^56}. The input is hashed once,
    and an evaluation below [floor] allocates nothing. *)
