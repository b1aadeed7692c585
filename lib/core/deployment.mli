(** The deployment policy shared by {!Harness}, {!Population} and the
    N-process daemon: the users of one seed, their genesis, and the node
    config they run. One builder is what lets the population audit and
    the determinism triple (typed == bytes == TCP) compare one
    deployment. *)

type crypto = Real_crypto | Sim_crypto

val schemes :
  crypto -> Algorand_crypto.Signature_scheme.scheme * Algorand_crypto.Vrf.scheme
(** Ed25519 + ECVRF, or the simulated pair. *)

type t

val make :
  ?crypto:crypto -> ?stake_per_user:int -> ?stake_law:[ `Equal | `Linear ] ->
  seed:int -> users:int -> params:Algorand_ba.Params.t -> block_bytes:int ->
  rounds:int -> unit -> t
(** Defaults: sim crypto, 1,000 stake per user, [`Equal]. *)

val identity : t -> int -> Identity.t
(** User [i]: {!Identity.generate} on ["user-<seed>-<i>"]. *)

val stake : t -> int -> int
(** User [i]'s stake: [stake_per_user], times [i + 1] under [`Linear]. *)

val genesis : t -> (int -> string) -> Algorand_ledger.Genesis.t
(** Genesis over every user in index order, [pk i] giving user [i]'s
    public key. [pk] is called once per user, so a caller can keep only
    what it needs of each identity. *)

val roster : t -> Identity.t array * Algorand_ledger.Genesis.t
(** Every identity, and the genesis over them. *)

val hello_digest : t -> Algorand_ledger.Genesis.t -> string
(** The handshake's params digest for this deployment's [genesis]:
    {!Codec.params_digest} over the params, the genesis hash and a
    digest of every user's stake. The genesis hash alone does not
    commit to the stakes ([`Equal] and [`Linear] share it). *)

val node_config : t -> Node.config
(** {!Node.default_config} with the deployment's params, schemes, block
    size and rounds, and retries backing off from λ_priority (at least
    0.5 s) to λ_step (at least 5 s). *)

val node_rng : Algorand_sim.Rng.t -> int -> Algorand_sim.Rng.t
(** Node [i]'s stream: the split ["node-<i>"] of the root RNG. *)
