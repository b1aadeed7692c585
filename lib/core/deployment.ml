(* The deployment policy: identities, stakes, genesis, the base node
   config and the per-node RNG label, derived in one place for every
   runner of a seed. *)

open Algorand_crypto

type crypto = Real_crypto | Sim_crypto

let schemes : crypto -> Signature_scheme.scheme * Vrf.scheme = function
  | Real_crypto -> (Signature_scheme.ed25519, Vrf.ecvrf)
  | Sim_crypto -> (Signature_scheme.sim, Vrf.sim)

type t = {
  crypto : crypto;
  stake_per_user : int;
  stake_law : [ `Equal | `Linear ];
  seed : int;
  users : int;
  params : Algorand_ba.Params.t;
  block_bytes : int;
  rounds : int;
  label_prefix : string;  (** ["user-<seed>-"]: user [i]'s key seed is this and [i] *)
}

let make ?(crypto = Sim_crypto) ?(stake_per_user = 1_000) ?(stake_law = `Equal) ~seed
    ~users ~params ~block_bytes ~rounds () : t =
  {
    crypto;
    stake_per_user;
    stake_law;
    seed;
    users;
    params;
    block_bytes;
    rounds;
    label_prefix = Printf.sprintf "user-%d-" seed;
  }

let identity (d : t) (i : int) : Identity.t =
  let sig_scheme, vrf_scheme = schemes d.crypto in
  Identity.generate ~sig_scheme ~vrf_scheme ~seed:(d.label_prefix ^ string_of_int i)

let stake (d : t) (i : int) : int =
  match d.stake_law with `Equal -> d.stake_per_user | `Linear -> d.stake_per_user * (i + 1)

let genesis (d : t) (pk : int -> string) : Algorand_ledger.Genesis.t =
  let allocs = ref [] in
  for i = d.users - 1 downto 0 do
    allocs := (pk i, stake d i) :: !allocs
  done;
  Algorand_ledger.Genesis.make !allocs

let roster (d : t) : Identity.t array * Algorand_ledger.Genesis.t =
  let identities = Array.init d.users (identity d) in
  (identities, genesis d (fun i -> identities.(i).pk))

(* [Genesis.hash] commits to the pks but not to the stakes, so the
   hello adds a digest of every user's stake: daemons that disagree on
   the stake law refuse each other instead of disagreeing on every
   weight. Both parts have a fixed length. *)
let hello_digest (d : t) (genesis : Algorand_ledger.Genesis.t) : string =
  let stakes =
    Sha256.digest (String.concat "," (List.init d.users (fun i -> string_of_int (stake d i))))
  in
  Codec.params_digest ~genesis:(Algorand_ledger.Genesis.hash genesis ^ stakes) d.params

let node_config (d : t) : Node.config =
  let sig_scheme, vrf_scheme = schemes d.crypto in
  {
    Node.default_config with
    params = d.params;
    sig_scheme;
    vrf_scheme;
    block_target_bytes = d.block_bytes;
    max_round = d.rounds;
    retry =
      {
        Algorand_sim.Retry.default_policy with
        base_delay = Float.max 0.5 d.params.lambda_priority;
        max_delay = Float.max 5.0 d.params.lambda_step;
      };
  }

let node_rng (rng : Algorand_sim.Rng.t) (i : int) : Algorand_sim.Rng.t =
  Algorand_sim.Rng.split rng (Printf.sprintf "node-%d" i)
