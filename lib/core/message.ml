(* Everything that travels over the gossip network (Figure 1 and
   section 6): transactions, proposer priority announcements, full
   blocks, BA* votes, and a block-fetch pair used when a user agrees on
   a hash whose pre-image it has not yet received (BlockOfHash in
   Algorithm 3). *)

open Algorand_crypto
module Block = Algorand_ledger.Block
module Transaction = Algorand_ledger.Transaction
module Vote = Algorand_ba.Vote

type fork_proposal = {
  attempt : int;  (** recovery attempt number (synchronized clock tick) *)
  proposer_pk : string;
  vrf_hash : string;
  vrf_proof : string;
  priority : string;
  suffix : Block.t list;  (** the proposed fork: blocks above the stable prefix, oldest first *)
  tip_hash : string;  (** hash of the last block in [suffix] (or of the stable block) *)
}

type t =
  | Tx of Transaction.t
  | Priority of Proposal.priority_msg
  | Block_gossip of Block.t
  | Ba_vote of Vote.t
  | Block_request of { round : int; block_hash : string; requester : int; attempt : int }
  | Block_reply of Block.t
  | Fork_proposal of fork_proposal
  | Round_request of { from_round : int; requester : int; attempt : int }
      (** live catch-up (section 8.3): a rejoining user asks a peer for
          the certified rounds it missed, starting at [from_round] *)
  | Round_reply of {
      to_ : int;
      current_round : int;  (** the replier's round, so the requester knows its target *)
      items : (Block.t * Certificate.t) list;  (** contiguous certified rounds *)
    }

(* Gossip dedup id. Per section 8.4, nodes relay at most one message
   per public key per (round, step): the vote id therefore excludes the
   value, and the block id is per (round, proposer), so an equivocating
   proposer cannot flood relays with variants. Retried requests carry
   their attempt number so a re-issue is not swallowed as a duplicate
   of the lost original. *)
let id (m : t) : string =
  match m with
  | Tx tx -> "tx|" ^ Transaction.id tx
  | Priority p -> Printf.sprintf "prio|%d|%s" p.round p.proposer_pk
  | Block_gossip b ->
    Printf.sprintf "block|%d|%s" (Block.round b) b.header.proposer_pk
  | Ba_vote v -> Vote.gossip_id v
  | Block_request { round; block_hash; requester; attempt } ->
    Printf.sprintf "breq|%d|%s|%d|%d" round (Hex.of_string block_hash) requester attempt
  | Block_reply b -> "brep|" ^ Block.hash b
  | Fork_proposal f -> Printf.sprintf "fork|%d|%s" f.attempt f.proposer_pk
  | Round_request { from_round; requester; attempt } ->
    Printf.sprintf "rreq|%d|%d|%d" from_round requester attempt
  | Round_reply { to_; current_round; items } ->
    Printf.sprintf "rrep|%d|%d|%s" to_ current_round
      (Hex.of_string
         (Sha256.digest_concat (List.map (fun (b, _) -> Block.hash b) items)))

let point_to_point : t -> bool = function
  | Round_request _ | Round_reply _ -> true
  | _ -> false

let size_bytes (m : t) : int =
  match m with
  | Tx tx -> Transaction.size_bytes tx
  | Priority _ -> Proposal.priority_size_bytes
  | Block_gossip b | Block_reply b -> Block.size_bytes b
  | Ba_vote v -> Vote.size_bytes v
  | Block_request _ | Round_request _ -> 80
  | Fork_proposal f ->
    Proposal.priority_size_bytes
    + List.fold_left (fun acc b -> acc + Block.size_bytes b) 0 f.suffix
  | Round_reply { items; _ } ->
    64
    + List.fold_left
        (fun acc (b, c) -> acc + Block.size_bytes b + Certificate.size_bytes c)
        0 items

let kind (m : t) : string =
  match m with
  | Tx _ -> "tx"
  | Priority _ -> "priority"
  | Block_gossip _ -> "block"
  | Ba_vote _ -> "vote"
  | Block_request _ -> "block-request"
  | Block_reply _ -> "block-reply"
  | Fork_proposal _ -> "fork-proposal"
  | Round_request _ -> "round-request"
  | Round_reply _ -> "round-reply"
