(* Committee vote messages (Algorithm 4) and their validation
   (Algorithm 6, ProcessMsg). A vote binds (round, step, value) to the
   voter's sortition credential and to the hash of the previous block,
   so votes from users on a different fork are discarded. *)

open Algorand_crypto
module Sortition = Algorand_sortition.Sortition

type step =
  | Reduction_one
  | Reduction_two
  | Bin of int  (** BinaryBA* steps, numbered from 1 *)
  | Final

let step_to_string = function
  | Reduction_one -> "reduction-1"
  | Reduction_two -> "reduction-2"
  | Bin i -> "bin-" ^ string_of_int i
  | Final -> "final"

let compare_step (a : step) (b : step) : int =
  let rank = function Reduction_one -> (0, 0) | Reduction_two -> (1, 0) | Bin i -> (2, i) | Final -> (3, 0) in
  compare (rank a) (rank b)

let equal_step a b = compare_step a b = 0

(* The sortition role for a committee seat (section 5.1): distinct per
   round and step so every step draws a fresh committee. *)
let committee_role ~(round : int) ~(step : step) : string =
  Printf.sprintf "committee|%d|%s" round (step_to_string step)

let proposer_role ~(round : int) : string = Printf.sprintf "proposer|%d" round

type t = {
  round : int;
  step : step;
  voter_pk : string;
  sorthash : string;  (** VRF output from the committee sortition *)
  sortproof : string;
  prev_hash : string;  (** H(last agreed block); binds the vote to a fork *)
  value : string;  (** the block hash being voted for *)
  signature : string;
}

let signed_body (v : t) : string =
  String.concat "|"
    [
      string_of_int v.round;
      step_to_string v.step;
      v.sorthash;
      v.sortproof;
      v.prev_hash;
      v.value;
    ]

let size_bytes (v : t) : int =
  (* round/step encoding + pk + sorthash + proof + prev + value + sig *)
  16 + String.length v.voter_pk + String.length v.sorthash + String.length v.sortproof
  + String.length v.prev_hash + String.length v.value + String.length v.signature

(* A unique gossip id: one message per (voter, round, step) is relayed
   (section 8.4), so the id deliberately excludes the value - an
   equivocating committee member's second vote for the same step is
   dropped by honest relays. No hash is needed: neither the round's
   digits nor a step's name contain '|', so the pk starts after the
   third '|' and the key is injective. *)
let gossip_id (v : t) : string =
  String.concat "|" [ "vote"; string_of_int v.round; step_to_string v.step; v.voter_pk ]

(* Construct and sign a vote; performs the sortition check and returns
   None when not selected (Algorithm 4 gossips nothing in that case).
   The vote comes with the weighted count j its sortition selected:
   exactly what [validate] returns for it in the context it was made
   for, since validation recomputes j from the same seed, role, w and
   W. *)
let make_weighted ~(signer : Signature_scheme.signer) ~(prover : Vrf.prover) ~(pk : string)
    ~(seed : string) ~(tau : float) ~(w : int) ~(total_weight : int) ~(round : int)
    ~(step : step) ~(prev_hash : string) ~(value : string) : (t * int) option =
  let role = committee_role ~round ~step in
  let sel = Sortition.select ~prover ~seed ~tau ~role ~w ~total_weight in
  if sel.j = 0 then None
  else begin
    let unsigned =
      {
        round;
        step;
        voter_pk = pk;
        sorthash = sel.vrf_hash;
        sortproof = sel.vrf_proof;
        prev_hash;
        value;
        signature = "";
      }
    in
    Some ({ unsigned with signature = signer.sign (signed_body unsigned) }, sel.j)
  end

let make ~signer ~prover ~pk ~seed ~tau ~w ~total_weight ~round ~step ~prev_hash ~value :
    t option =
  Option.map fst
    (make_weighted ~signer ~prover ~pk ~seed ~tau ~w ~total_weight ~round ~step ~prev_hash
       ~value)

type validation_ctx = {
  sig_scheme : Signature_scheme.scheme;
  vrf_scheme : Vrf.scheme;
  sig_pk_of : string -> string;
      (** project the signing key out of a composite user key *)
  vrf_pk_of : string -> string;
  seed : string;
  total_weight : int;
  weight_of : string -> int;
  last_block_hash : string;
  tau_of_step : step -> float;
}

(* The signature check as a (pk, msg, signature) triple, so certificate
   validation can defer it into one batched verification. *)
let signature_triple (ctx : validation_ctx) (v : t) : string * string * string =
  (ctx.sig_pk_of v.voter_pk, signed_body v, v.signature)

(* Everything in Algorithm 6 except the signature: fork binding plus
   the sortition credential. Returns the weighted vote count, or 0. *)
let validate_credential (ctx : validation_ctx) (v : t) : int =
  if not (String.equal v.prev_hash ctx.last_block_hash) then 0
  else
    Sortition.verify ~scheme:ctx.vrf_scheme ~pk:(ctx.vrf_pk_of v.voter_pk)
      ~vrf_hash:v.sorthash ~vrf_proof:v.sortproof ~seed:ctx.seed
      ~tau:(ctx.tau_of_step v.step)
      ~role:(committee_role ~round:v.round ~step:v.step) ~w:(ctx.weight_of v.voter_pk)
      ~total_weight:ctx.total_weight

(* Algorithm 6: returns the number of weighted votes the message
   carries, or 0 if it is invalid or off-fork. *)
let validate (ctx : validation_ctx) (v : t) : int =
  let pk, msg, signature = signature_triple ctx v in
  if not (ctx.sig_scheme.verify ~pk ~msg ~signature) then 0
  else validate_credential ctx v
