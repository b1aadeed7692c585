(** Block proposal (section 6): proposer sortition, priorities, the
    two-message gossip scheme, and next-round seed evolution (5.2). *)

open Algorand_crypto

type priority_msg = {
  round : int;
  proposer_pk : string;  (** composite user key *)
  prev_hash : string;
  vrf_hash : string;
  vrf_proof : string;
  priority : string;  (** highest sub-user priority *)
}

val priority_size_bytes : int
(** ~200 bytes, as the paper reports. *)

val try_propose :
  prover:Vrf.prover ->
  pk:string ->
  seed:string ->
  tau:float ->
  round:int ->
  prev_hash:string ->
  w:int ->
  total_weight:int ->
  priority_msg option
(** [None] when sortition does not select this user as a proposer. *)

val verify_credential :
  vrf_scheme:Vrf.scheme ->
  vrf_pk_of:(string -> string) ->
  seed:string ->
  tau:float ->
  weight_of:(string -> int) ->
  total_weight:int ->
  round:int ->
  pk:string ->
  vrf_hash:string ->
  vrf_proof:string ->
  int
(** The proposer credential a priority or a block header claims for
    [round]: its verified number of selected sub-users, or 0 if the
    proof is invalid. *)

val claims_best_priority : j:int -> vrf_hash:string -> priority:string -> bool
(** The priority rule for a credential that selected [j] sub-users:
    [j > 0], and [priority] is the best sub-user priority. *)

val validate :
  credential:(pk:string -> vrf_hash:string -> vrf_proof:string -> int) -> priority_msg -> bool
(** [claims_best_priority] with [j] from [credential] (typically
    {!verify_credential}, possibly memoised) on the message's claim. *)

val higher : priority_msg -> priority_msg -> bool
(** [higher a b]: does [a] beat [b]? Total order (ties broken on keys). *)

val next_seed : prover:Vrf.prover -> current_seed:string -> round:int -> string * string
(** The seed a round-[round] proposer embeds for round+1:
    VRF(seed_r || r+1) with its proof (section 5.2). *)

val verify_next_seed :
  vrf_scheme:Vrf.scheme ->
  vrf_pk:string ->
  current_seed:string ->
  round:int ->
  seed:string ->
  proof:string ->
  bool

val empty_hash : round:int -> prev_hash:string -> string
(** Hash of the designated empty block - BA*'s fallback value. *)
