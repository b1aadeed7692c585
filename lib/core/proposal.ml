(* Block proposal (section 6): proposers are chosen by sortition with
   tau_proposer; each selected sub-user has priority H(vrf_hash || i),
   and the proposer's priority is the highest of them. Two message
   kinds are gossiped: a small priority announcement (fast), and the
   full block. Users adopt the highest-priority proposal they hear
   within the proposal window. *)

open Algorand_crypto
module Sortition = Algorand_sortition.Sortition
module Block = Algorand_ledger.Block

type priority_msg = {
  round : int;
  proposer_pk : string;  (** composite user key *)
  prev_hash : string;
  vrf_hash : string;
  vrf_proof : string;
  priority : string;  (** highest sub-user priority; self-certifying via the proof *)
}

let priority_size_bytes = 200
(* The paper reports ~200 bytes for the priority+proof message. *)

(* Try to become a proposer for this round. *)
let try_propose ~(prover : Vrf.prover) ~(pk : string) ~(seed : string) ~(tau : float)
    ~(round : int) ~(prev_hash : string) ~(w : int) ~(total_weight : int) :
    priority_msg option =
  let role = Algorand_ba.Vote.proposer_role ~round in
  let sel = Sortition.select ~prover ~seed ~tau ~role ~w ~total_weight in
  match Sortition.best_priority ~vrf_hash:sel.vrf_hash ~j:sel.j with
  | None -> None
  | Some priority ->
    Some { round; proposer_pk = pk; prev_hash; vrf_hash = sel.vrf_hash;
           vrf_proof = sel.vrf_proof; priority }

(* The proposer credential a priority announcement or a block header
   claims for [round]: the verified number of selected sub-users, or 0
   if the proof is invalid. *)
let verify_credential ~(vrf_scheme : Vrf.scheme) ~(vrf_pk_of : string -> string)
    ~(seed : string) ~(tau : float) ~(weight_of : string -> int) ~(total_weight : int)
    ~(round : int) ~(pk : string) ~(vrf_hash : string) ~(vrf_proof : string) : int =
  Sortition.verify ~scheme:vrf_scheme ~pk:(vrf_pk_of pk) ~vrf_hash ~vrf_proof ~seed ~tau
    ~role:(Algorand_ba.Vote.proposer_role ~round) ~w:(weight_of pk) ~total_weight

(* The priority rule, for a credential that selected [j] sub-users:
   selected at all, and the claimed priority is the best of theirs.
   Recovery's fork proposals follow it too. *)
let claims_best_priority ~(j : int) ~(vrf_hash : string) ~(priority : string) : bool =
  j > 0
  &&
  match Sortition.best_priority ~vrf_hash ~j with
  | Some p -> String.equal p priority
  | None -> false

(* Validate a priority announcement against its verified credential.
   Returns false for forgeries. *)
let validate ~(credential : pk:string -> vrf_hash:string -> vrf_proof:string -> int)
    (m : priority_msg) : bool =
  claims_best_priority
    ~j:(credential ~pk:m.proposer_pk ~vrf_hash:m.vrf_hash ~vrf_proof:m.vrf_proof)
    ~vrf_hash:m.vrf_hash ~priority:m.priority

(* Higher priority wins; ties (nearly impossible) break on proposer key
   so all nodes agree. *)
let higher (a : priority_msg) (b : priority_msg) : bool =
  let c = String.compare a.priority b.priority in
  c > 0 || (c = 0 && String.compare a.proposer_pk b.proposer_pk > 0)

(* The seed a proposer embeds in its block for the next round
   (section 5.2): VRF(seed_r || r+1), proven against the proposer's key. *)
let next_seed ~(prover : Vrf.prover) ~(current_seed : string) ~(round : int) :
    string * string =
  prover.prove (Printf.sprintf "seed|%s|%d" current_seed (round + 1))

let verify_next_seed ~(vrf_scheme : Vrf.scheme) ~(vrf_pk : string)
    ~(current_seed : string) ~(round : int) ~(seed : string) ~(proof : string) : bool =
  match
    vrf_scheme.verify ~pk:vrf_pk
      ~input:(Printf.sprintf "seed|%s|%d" current_seed (round + 1))
      ~proof
  with
  | Some h -> String.equal h seed
  | None -> false

(* Hash of the designated empty block for a round (the value BA* falls
   back to). *)
let empty_hash ~(round : int) ~(prev_hash : string) : string =
  Block.hash (Block.empty ~round ~prev_hash)
