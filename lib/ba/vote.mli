(** Committee vote messages (Algorithm 4) and their validation
    (Algorithm 6). *)

open Algorand_crypto

type step =
  | Reduction_one
  | Reduction_two
  | Bin of int  (** BinaryBA* steps, numbered from 1 *)
  | Final

val step_to_string : step -> string
val compare_step : step -> step -> int
val equal_step : step -> step -> bool

val committee_role : round:int -> step:step -> string
(** Sortition role for a committee seat: distinct per round and step,
    so each step draws a fresh committee (participant replacement). *)

val proposer_role : round:int -> string

type t = {
  round : int;
  step : step;
  voter_pk : string;  (** composite user key *)
  sorthash : string;  (** VRF output from the committee sortition *)
  sortproof : string;
  prev_hash : string;  (** H(last agreed block): binds the vote to a fork *)
  value : string;  (** block hash being voted for *)
  signature : string;
}

val signed_body : t -> string
val size_bytes : t -> int

val gossip_id : t -> string
(** Relay-dedup id: one message per (voter, round, step) - deliberately
    excluding the value, per the section 8.4 relay rule. *)

val make :
  signer:Signature_scheme.signer ->
  prover:Vrf.prover ->
  pk:string ->
  seed:string ->
  tau:float ->
  w:int ->
  total_weight:int ->
  round:int ->
  step:step ->
  prev_hash:string ->
  value:string ->
  t option
(** Run sortition and sign; [None] when not selected for the committee
    (Algorithm 4 sends nothing in that case). *)

val make_weighted :
  signer:Signature_scheme.signer ->
  prover:Vrf.prover ->
  pk:string ->
  seed:string ->
  tau:float ->
  w:int ->
  total_weight:int ->
  round:int ->
  step:step ->
  prev_hash:string ->
  value:string ->
  (t * int) option
(** [make], with the number of sub-users its sortition selected: what
    {!validate} returns for the vote in the context it was made for
    (same seed, tau, [w] and [total_weight], and [prev_hash] as the
    last block hash). *)

type validation_ctx = {
  sig_scheme : Signature_scheme.scheme;
  vrf_scheme : Vrf.scheme;
  sig_pk_of : string -> string;  (** project the signing key from a composite key *)
  vrf_pk_of : string -> string;
  seed : string;
  total_weight : int;
  weight_of : string -> int;
  last_block_hash : string;
  tau_of_step : step -> float;
}

val validate : validation_ctx -> t -> int
(** Algorithm 6 (ProcessMsg): the weighted vote count the message
    carries, or 0 if invalid or off-fork. *)

val validate_credential : validation_ctx -> t -> int
(** [validate] minus the signature check (fork binding + sortition
    credential only). Callers that batch signatures — certificate
    validation — pair this with [signature_triple]. *)

val signature_triple : validation_ctx -> t -> string * string * string
(** The [(pk, msg, signature)] triple [validate] would check, for
    feeding [Signature_scheme.verify_batch]. *)
