(* Verifiable random functions (Micali-Rabin-Vadhan), two implementations
   behind one closure-record interface:

   - [ecvrf]: an ECVRF-style construction over the ed25519 curve
     (try-and-increment hash-to-curve, Gamma = sk*H, Fiat-Shamir proof,
     cofactor-cleared output), following the structure of the Goldberg
     et al. VRF cited by the paper (section 9).

   - [sim]: a keyed-mixer stand-in with the same interface and the same
     output distribution but no secrecy (outputs are derivable from the
     public key). The paper itself replaces cryptographic verification
     with sleeps when simulating 500,000 users (section 10.1); [sim]
     plays that role for our large-scale simulations, with verification
     cost modeled by the simulator instead of burned in CPU. *)

type prover = { prove : string -> string * string  (** input -> (hash, proof) *) }

type scheme = {
  name : string;
  generate : seed:string -> prover * string;  (** seed -> (prover, public key) *)
  verify : pk:string -> input:string -> proof:string -> string option;
      (** Returns the VRF hash iff the proof is valid for [pk] and [input]. *)
  proof_length : int;
  output_length : int;
}

(* ------------------------------------------------------------------ *)
(* ECVRF over ed25519.                                                 *)
(* ------------------------------------------------------------------ *)

let hash_to_curve_uncached (input : string) : Ed25519.point =
  let rec attempt ctr =
    if ctr > 255 then failwith "Vrf.hash_to_curve: no point found (probability ~2^-256)"
    else begin
      let candidate =
        Sha256.digest_concat [ "vrf-h2c"; input; String.make 1 (Char.chr ctr) ]
      in
      match Ed25519.decode candidate with
      | Some p ->
        (* Multiply by the cofactor 8 so the point lies in the prime
           subgroup; reject the (negligible) identity outcome. *)
        let p8 = Ed25519.double (Ed25519.double (Ed25519.double p)) in
        if Ed25519.equal_points p8 Ed25519.identity then attempt (ctr + 1) else p8
      | None -> attempt (ctr + 1)
    end
  in
  attempt 0

(* Sortition hashes the same (seed, role) input for every member of a
   committee step, so one try-and-increment run serves a whole step's
   worth of proofs and verifications. Cached alongside the point: its
   encoding (a field inversion) and a fixed-base comb table, which
   turns every s*H / k*H below into ~64 mixed additions with no
   doubling chain. The comb costs ~1000 point operations to build, so
   it is lazy: verification forces it (committee floods repay it ~2000
   times over), while a prove on a cold input — one multiplication per
   scalar, possibly never repeated — sticks to the w-NAF chain. A comb
   is a few hundred KB, so the cache is kept small; bounded, reset on
   overflow. *)
let h2c_cache : (string, Ed25519.point * string * Ed25519.comb Lazy.t) Hashtbl.t =
  Hashtbl.create 64

let h2c_cache_limit = 64

let hash_to_curve_full (input : string) :
    Ed25519.point * string * Ed25519.comb Lazy.t =
  match Hashtbl.find_opt h2c_cache input with
  | Some entry -> entry
  | None ->
    let p = hash_to_curve_uncached input in
    let entry = (p, Ed25519.encode p, lazy (Ed25519.comb_of_point p)) in
    if Hashtbl.length h2c_cache >= h2c_cache_limit then Hashtbl.reset h2c_cache;
    Hashtbl.add h2c_cache input entry;
    entry

let hash_to_curve (input : string) : Ed25519.point =
  let p, _, _ = hash_to_curve_full input in
  p

let challenge ~h_enc ~gamma_enc ~u_enc ~v_enc : Nat.t =
  (* 128-bit Fiat-Shamir challenge. *)
  Nat.low_bits
    (Nat.of_bytes_le (Sha256.digest_concat [ "vrf-chal"; h_enc; gamma_enc; u_enc; v_enc ]))
    128

(* The output hashes 8*Gamma, not Gamma. This is what makes the output
   unique per (pk, input): a malicious prover who knows its own key can
   grind nonces until the challenge c = 0 (mod 8) and then open a valid
   DLEQ proof for Gamma + D with D any 8-torsion point (the verifier's
   V = s*H - c*Gamma' differs from the honest V by c*D = O). Clearing
   the cofactor collapses all eight Gamma variants to one output, so
   the grind buys nothing. Three doublings - essentially free. *)
let cofactor_clear gamma = Ed25519.double (Ed25519.double (Ed25519.double gamma))
let output_of_gamma8_enc gamma8_enc = Sha256.digest_concat [ "vrf-out"; gamma8_enc ]

let ecvrf : scheme =
  let proof_length = 32 + 16 + 32 in
  let generate ~seed =
    let sk = Ed25519.generate ~seed:("vrf-" ^ seed) in
    let pk = Ed25519.public_key sk in
    let a = Ed25519.secret_scalar sk in
    let prove input =
      let h, h_enc, hcomb = hash_to_curve_full input in
      (* Ride the comb only if a verification has already paid for it. *)
      let mult_h k =
        if Lazy.is_val hcomb then Ed25519.scalar_mult_comb (Lazy.force hcomb) k
        else Ed25519.scalar_mult_fast k h
      in
      let gamma = mult_h a in
      let k =
        Nat.add Nat.one
          (Nat.rem
             (Nat.of_bytes_le
                (Sha256.digest_concat [ "vrf-nonce"; Ed25519.secret_seed sk; input ]))
             (Nat.sub Ed25519.order Nat.one))
      in
      (* One shared inversion for all four encodings. *)
      let encs =
        Ed25519.encode_many
          [|
            gamma;
            Ed25519.scalar_mult_base k;
            mult_h k;
            cofactor_clear gamma;
          |]
      in
      let gamma_enc = encs.(0) and u_enc = encs.(1) and v_enc = encs.(2) in
      let c = challenge ~h_enc ~gamma_enc ~u_enc ~v_enc in
      let s = Nat.rem (Nat.add k (Nat.mul c a)) Ed25519.order in
      let proof = gamma_enc ^ Nat.to_bytes_le c ~len:16 ^ Nat.to_bytes_le s ~len:32 in
      (output_of_gamma8_enc encs.(3), proof)
    in
    ({ prove }, pk)
  in
  let verify ~pk ~input ~proof =
    if String.length proof <> proof_length then None
    else begin
      let gamma_enc = String.sub proof 0 32 in
      let c = Nat.of_bytes_le (String.sub proof 32 16) in
      let s = Nat.of_bytes_le (String.sub proof 48 32) in
      if Nat.compare s Ed25519.order >= 0 then None
      else begin
        match (Ed25519.decode gamma_enc, Ed25519.decode_checked pk) with
        | Some gamma, Some a_pt ->
          let _, h_enc, hcomb = hash_to_curve_full input in
          let hcomb = Lazy.force hcomb in
          (* U = s*B - c*A and V = s*H - c*Gamma have the same shape:
             the combs (B's static one, H's cached per input) give the
             s-side with zero doublings, so the only doubling chains
             are c*A's and c*Gamma's - and c is a 128-bit challenge,
             half the length of a Strauss chain over s. *)
          let u =
            Ed25519.add (Ed25519.scalar_mult_base s)
              (Ed25519.scalar_mult_fast c (Ed25519.neg a_pt))
          in
          let v =
            Ed25519.add
              (Ed25519.scalar_mult_comb hcomb s)
              (Ed25519.scalar_mult_fast c (Ed25519.neg gamma))
          in
          (* One shared inversion for the two commitment encodings plus
             the cofactor-cleared output point. *)
          let encs = Ed25519.encode_many [| u; v; cofactor_clear gamma |] in
          let c' = challenge ~h_enc ~gamma_enc ~u_enc:encs.(0) ~v_enc:encs.(1) in
          if Nat.equal c c' then Some (output_of_gamma8_enc encs.(2)) else None
        | _ -> None
      end
    end
  in
  { name = "ecvrf"; generate; verify; proof_length; output_length = 32 }

(* ------------------------------------------------------------------ *)
(* Simulation VRF: distribution-faithful, zero-cost, no secrecy.       *)
(* ------------------------------------------------------------------ *)

(* Sortition only needs each user's output for a role to be a fresh
   uniform draw, independent across users and roles. The original
   definition paid one SHA-256 of pk || input per (user, role); a
   population sweep makes ~14 evaluations per user per round, so that
   hash dominated large rounds. Now the input is hashed once
   ([input_key]) and each user's output is a keyed 64-bit mix of its
   pk words with that key. Measured with the hash fraction read off
   it, one evaluation costs about 0.15 us against 2.6-3.4 us before,
   most of it building the 32-byte output. *)

(* SplitMix64's finaliser (Stafford's "Mix13"): a bijection on 64-bit
   words with full avalanche. *)
let mix64 (z : int64) : int64 =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)
[@@inline]

let golden_gamma = 0x9e3779b97f4a7c15L

(* All four words of a 32-byte pk, chained through the mixer. *)
let user_key (pk : string) : int64 =
  let k = ref 0L in
  for i = 0 to 3 do
    k := mix64 (Int64.logxor !k (String.get_int64_le pk (8 * i)))
  done;
  !k

let input_key_uncached (input : string) : int64 =
  String.get_int64_le (Sha256.digest_concat [ "simvrf-in"; input ]) 0

(* A sweep evaluates one input for every user, and the event loop
   interleaves votes of the few steps a round has open at once, so the
   keys of the last [input_key_entries] inputs are kept, most recently
   used first. A hit below the head moves its entry to the front, under
   the caller's copy of the input, so a sweep's every later evaluation
   stops at the head, on physical equality; a miss drops the least
   recently used entry. The list of (input, key) pairs is one immutable
   value behind one ref, replaced by a single assignment: no update can
   leave an input paired with another's key, and the cache needs no
   lock. *)
let input_key_entries = 16

let input_key_cache : (string * int64) list ref = ref []

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

let rec find input = function
  | [] -> None
  | (cached, key) :: rest -> if String.equal cached input then Some key else find input rest

let input_key (input : string) : int64 =
  match !input_key_cache with
  | (cached, key) :: _ when cached == input || String.equal cached input -> key
  | entries ->
    let key, rest =
      match find input entries with
      | Some key -> (key, List.filter (fun (cached, _) -> not (String.equal cached input)) entries)
      | None -> (input_key_uncached input, take (input_key_entries - 1) entries)
    in
    input_key_cache := (input, key) :: rest;
    key

(* 32 output bytes from x = mix (user_key xor input_key): x itself
   big-endian first, so [Sortition.hash_fraction]'s top 56 bits are
   x's, then three further SplitMix64 steps from x. *)
let sim_output ~(user : int64) ~(input : string) : string =
  let x = mix64 (Int64.logxor user (input_key input)) in
  let out = Bytes.create 32 in
  Bytes.set_int64_be out 0 x;
  for i = 1 to 3 do
    Bytes.set_int64_be out (8 * i)
      (mix64 (Int64.add x (Int64.mul (Int64.of_int i) golden_gamma)))
  done;
  Bytes.unsafe_to_string out

let sim : scheme =
  let generate ~seed =
    (* pk doubles as the (publicly known) key material: correct selection
       distribution, no privacy. See DESIGN.md, substitution 3. *)
    let pk = Sha256.digest_concat [ "simvrf-key"; seed ] in
    let user = user_key pk in
    let prove input = (sim_output ~user ~input, "") in
    ({ prove }, pk)
  in
  let verify ~pk ~input ~proof =
    if proof <> "" || String.length pk <> 32 then None
    else Some (sim_output ~user:(user_key pk) ~input)
  in
  { name = "sim"; generate; verify; proof_length = 0; output_length = 32 }
