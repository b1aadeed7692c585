(* Bootstrapping (section 8.3): a common genesis block carrying the
   initial balances and seed_0. The paper takes seed_0 from distributed
   random number generation after the initial public keys are declared;
   we model that by hashing every initial public key together with a
   public nonce - any participant can recompute and audit it. *)

open Algorand_crypto

type t = {
  block : Block.t;
  balances : Balances.t;
  seed0 : string;
}

let make ?(nonce = "algorand-genesis") (allocations : (string * int) list) : t =
  if allocations = [] then invalid_arg "Genesis.make: no initial accounts";
  List.iter
    (fun (_, amount) -> if amount <= 0 then invalid_arg "Genesis.make: non-positive stake")
    allocations;
  let balances = Balances.credit_all Balances.empty (List.to_seq allocations) in
  let seed0 =
    Sha256.digest_concat ("genesis-seed" :: nonce :: List.map fst allocations)
  in
  let base = Block.empty ~round:0 ~prev_hash:(String.make 32 '\000') in
  (* Timestamp -1 so a block proposed at simulated time 0 still passes
     the "timestamp greater than the previous block's" check (8.1). *)
  let block =
    { base with header = { base.header with seed = seed0; timestamp = -1.0 } }
  in
  { block; balances; seed0 }

let hash (g : t) : string = Block.hash g.block
