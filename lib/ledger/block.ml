(* Blocks (section 8.1): a list of transactions plus the metadata BA*
   needs - round number, the proposer's VRF-based seed for round r+1,
   the previous block's hash, a proposal timestamp, and the proposer's
   sortition credentials (section 6).

   The designated *empty block* for a round, Empty(round, prev_hash),
   is deterministic: every user can construct it locally, so agreeing
   on its hash needs no block transfer. Empty blocks carry no seed;
   the seed for the next round is then derived publicly as
   H(seed_r || r+1) (section 5.2).

   [padding] models payload bytes without materializing them: the
   evaluation sweeps block sizes up to 10 MB, and carrying real 10 MB
   strings through a simulated gossip network would only burn memory.
   Padding is covered by the hash (its length is serialized), so two
   blocks with different padding have different hashes. *)

open Algorand_crypto

type header = {
  round : int;
  prev_hash : string;
  timestamp : float;
  seed : string;  (** proposed seed for the next round (empty for empty blocks) *)
  seed_proof : string;
  proposer_pk : string;  (** empty for empty blocks *)
  proposer_vrf_hash : string;
  proposer_vrf_proof : string;
}

type t = { header : header; txs : Transaction.t list; padding : int }

let serialize_header (h : header) : string =
  Wire.concat
    [
      Wire.u64 h.round;
      h.prev_hash;
      Wire.u64 (int_of_float (h.timestamp *. 1000.0));
      h.seed;
      h.seed_proof;
      h.proposer_pk;
      h.proposer_vrf_hash;
      h.proposer_vrf_proof;
    ]

(* Blocks commit to their transactions through a Merkle root, so the
   block hash is recomputable from the header summary alone and a light
   client can check payment inclusion with a logarithmic proof. *)
let tx_root (b : t) : string = Merkle.root (List.map Transaction.id b.txs)

let hash (b : t) : string =
  Sha256.digest_concat [ serialize_header b.header; Wire.u64 b.padding; tx_root b ]

(* The header-only view a light client stores: enough to recompute the
   block hash and verify transaction inclusion proofs. *)
type summary = { s_header : header; s_padding : int; s_tx_root : string }

let summarize (b : t) : summary =
  { s_header = b.header; s_padding = b.padding; s_tx_root = tx_root b }

let hash_of_summary (s : summary) : string =
  Sha256.digest_concat [ serialize_header s.s_header; Wire.u64 s.s_padding; s.s_tx_root ]

let prove_tx (b : t) ~(tx_id : string) : Merkle.proof option =
  let ids = List.map Transaction.id b.txs in
  let rec find i = function
    | [] -> None
    | id :: rest -> if String.equal id tx_id then Some i else find (i + 1) rest
  in
  Option.bind (find 0 ids) (fun index -> Merkle.prove_tree (Merkle.build ids) ~index)

let summary_contains (s : summary) ~(tx_id : string) (proof : Merkle.proof) : bool =
  Merkle.verify ~root:s.s_tx_root ~leaf:tx_id proof

let empty ~(round : int) ~(prev_hash : string) : t =
  {
    header =
      {
        round;
        prev_hash;
        timestamp = 0.0;
        seed = "";
        seed_proof = "";
        proposer_pk = "";
        proposer_vrf_hash = "";
        proposer_vrf_proof = "";
      };
    txs = [];
    padding = 0;
  }

let is_empty (b : t) : bool = String.equal b.header.proposer_pk ""

let header_size_bytes = 200
(* Approximate wire size of the header fields; close enough for the
   bandwidth model, which cares about the MB-scale payload. *)

let size_bytes (b : t) : int =
  header_size_bytes
  + List.fold_left (fun acc tx -> acc + Transaction.size_bytes tx) 0 b.txs
  + b.padding

let round (b : t) = b.header.round
let prev_hash (b : t) = b.header.prev_hash

let pp fmt (b : t) =
  Format.fprintf fmt "block r=%d %s txs=%d size=%dB"
    b.header.round
    (if is_empty b then "(empty)" else Hex.of_string (String.sub (hash b) 0 4))
    (List.length b.txs) (size_bytes b)
