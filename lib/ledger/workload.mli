(** Deterministic hostile transaction workload generator: Zipf hot-key
    skew, configurable invalid / duplicate / self-payment mixes, and
    square-wave arrival bursts, all replayable from a seed via a
    self-contained splitmix64 stream (no dependency on the simulator's
    RNG, stable across processes). *)

module Scheme = Algorand_crypto.Signature_scheme

type mix = {
  invalid : float;  (** unappliable: bad nonce or overdraft, alternating *)
  duplicate : float;  (** byte-identical re-emission of a recent transaction *)
  self_pay : float;  (** sender = recipient (valid; must conserve money) *)
}
(** Category probabilities; the remainder is plain valid payments.
    The caller keeps [invalid +. duplicate +. self_pay <= 1.0]. *)

val clean : mix
(** All-valid traffic. *)

val hostile : mix
(** 10% invalid, 10% duplicates, 5% self-payments. *)

type burst = {
  period_s : float;  (** square-wave period *)
  duty : float;  (** fraction of each period spent bursting *)
  mult : float;  (** arrival-rate multiplier inside the burst window *)
}

type accounts =
  | Synthetic of { n : int; scheme : Scheme.scheme }
      (** [n] accounts with scheme keys derived from the workload seed *)
  | Provided of { pks : string array; signers : Scheme.signer array }
      (** existing accounts (e.g. the harness's node identities) *)

type config = {
  accounts : accounts;
  zipf_s : float;  (** 0.0 = uniform; 1.0+ = heavy hot-key skew *)
  mix : mix;
  burst : burst option;
  amount : int;  (** per-payment amount for valid transfers *)
  seed : int;
}

val default_config : config
(** 1000 synthetic sim-scheme accounts, uniform, clean, no bursts. *)

type stats = {
  generated : int;
  valid : int;
  invalid : int;
  duplicate : int;
  self_pay : int;
}

type t

val create : config -> t
(** Builds the account population (synthetic keys are derived from the
    seed; signers are materialized lazily, so a million cold accounts
    cost only their public keys).
    @raise Invalid_argument on an empty population or mismatched
    [Provided] arrays. *)

val n_accounts : t -> int
val account_pk : t -> int -> string

val next : t -> Transaction.t * int
(** The next transaction in the stream and the index of the account it
    originates from (for duplicates, the original sender). Valid and
    self-pay transactions consume the tracked per-account nonce;
    invalid and duplicate ones do not. *)

val next_n : t -> int -> Transaction.t list

val interarrival : t -> now:float -> rate_per_s:float -> float
(** Exponential interarrival at the burst-modulated effective rate:
    Poisson traffic within each square-wave regime. *)

val stats : t -> stats

val initial_balances : t -> stake:int -> shards:int -> Balances.t
(** Every account credited [stake], in one pass, into a fresh sharded
    balance map. *)
