(** Certified history: the round context of sections 5.2-5.3 and the
    in-order certificate check of section 8.3, defined once for the
    node, its restart and live catch-up, the population engine, stored
    histories and the light client. *)

module Chain = Algorand_ledger.Chain
module Vote = Algorand_ba.Vote
module Params = Algorand_ba.Params

type item = { block : Algorand_ledger.Block.t; certificate : Certificate.t }

type error =
  [ `Round of int * Certificate.error
  | `Chain of int * Chain.add_error
  | `Hash_mismatch of int
  | `Final_certificate of Certificate.error ]

val pp_error : Format.formatter -> error -> unit

val make_context :
  params:Params.t ->
  sig_scheme:Algorand_crypto.Signature_scheme.scheme ->
  vrf_scheme:Algorand_crypto.Vrf.scheme ->
  seed:string ->
  weights:Algorand_ledger.Balances.t ->
  prev_hash:string ->
  Vote.validation_ctx
(** The context of one committee draw: sortition [seed], [weights] and
    their total, on top of [prev_hash]. Section 8.2 recovery draws its
    committees this way. *)

val context :
  params:Params.t ->
  sig_scheme:Algorand_crypto.Signature_scheme.scheme ->
  vrf_scheme:Algorand_crypto.Vrf.scheme ->
  Chain.t ->
  parent:Chain.entry ->
  Vote.validation_ctx
(** The context of round [parent.height + 1] on the chain ending at
    [parent]: the seed at height r - 1 - (r mod R), and the weights of
    the last block created [lookback_b] seconds before that seed
    block. *)

val graft :
  params:Params.t ->
  sig_scheme:Algorand_crypto.Signature_scheme.scheme ->
  vrf_scheme:Algorand_crypto.Vrf.scheme ->
  Chain.t ->
  parent:Chain.entry ->
  item ->
  (Chain.entry, error) result
(** Check that the certificate is for the block, validate it in
    [parent]'s context, then add the block (the tip does not move). *)

val extend :
  params:Params.t ->
  sig_scheme:Algorand_crypto.Signature_scheme.scheme ->
  vrf_scheme:Algorand_crypto.Vrf.scheme ->
  ?on_graft:(item -> unit) ->
  Chain.t ->
  item list ->
  (unit, error) result
(** {!graft} each item onto the tip in order, making it the new tip and
    passing it to [on_graft]; stop at the first that fails. The chain
    keeps the valid prefix either way. *)

val replay :
  params:Params.t ->
  sig_scheme:Algorand_crypto.Signature_scheme.scheme ->
  vrf_scheme:Algorand_crypto.Vrf.scheme ->
  genesis:Algorand_ledger.Genesis.t ->
  ?final_certificate:Certificate.t ->
  item list ->
  (Chain.t, error) result
(** {!extend} a fresh chain from genesis. A valid [final_certificate]
    for the last block additionally marks it final (proving safety of
    the whole prefix, since final blocks are totally ordered). *)
