(* The wallet: payments, nonce sequencing, confirmation status. *)

module Harness = Algorand_core.Harness
module Wallet = Algorand_core.Wallet
module Node = Algorand_core.Node

let ts name f = Alcotest.test_case name `Slow f

let wallet_flow () =
  let config =
    {
      Harness.default with
      users = 16;
      rounds = 3;
      block_bytes = 30_000;
      tx_rate_per_s = 0.0;
      rng_seed = 41;
    }
  in
  let h = Harness.build config in
  let alice = Wallet.create ~identity:h.identities.(0) ~node:h.nodes.(0) in
  let bob = Wallet.create ~identity:h.identities.(1) ~node:h.nodes.(1) in
  let stake =
    Algorand_ledger.Balances.balance h.genesis.balances (Wallet.address alice)
  in
  Alcotest.(check int) "initial balance" stake (Wallet.balance alice);
  (* Submit two sequential payments shortly after start. *)
  let txs = ref [] in
  Algorand_sim.Engine.schedule h.engine ~delay:0.5 (fun () ->
      (* Explicit sequencing: list literals evaluate right-to-left. *)
      let t1 = Wallet.pay alice ~to_:(Wallet.address bob) ~amount:100 in
      let t2 = Wallet.pay alice ~to_:(Wallet.address bob) ~amount:50 in
      txs := [ t1; t2 ]);
  Expect.no_violations (Harness.drive h);
  (* Both payments confirmed and balances settled on both wallets' nodes. *)
  Alcotest.(check int) "alice balance" (stake - 150) (Wallet.balance alice);
  Alcotest.(check int) "bob balance" (stake + 150) (Wallet.balance bob);
  List.iter
    (fun tx ->
      match Wallet.status alice tx with
      | Wallet.Confirmed _ -> ()
      | s -> Alcotest.failf "expected confirmed, got %a" Wallet.pp_status s)
    !txs;
  (* An unsubmitted transaction is pending. *)
  let stranger =
    Algorand_ledger.Transaction.make ~signer:h.identities.(2).signer
      ~sender:h.identities.(2).pk ~recipient:(Wallet.address bob) ~amount:1 ~nonce:999
  in
  Alcotest.(check bool) "unknown tx pending" true (Wallet.status alice stranger = Wallet.Pending)

let nonce_sequencing () =
  let config = { Harness.default with users = 8; rounds = 1; tx_rate_per_s = 0.0 } in
  let h = Harness.build config in
  let w = Wallet.create ~identity:h.identities.(0) ~node:h.nodes.(0) in
  let t1 = Wallet.pay w ~to_:h.identities.(1).pk ~amount:1 in
  let t2 = Wallet.pay w ~to_:h.identities.(1).pk ~amount:1 in
  Alcotest.(check int) "nonces sequential" (t1.nonce + 1) t2.nonce

let suite =
  [
    ( "wallet",
      [ ts "payment flow + confirmation" wallet_flow; ts "nonce sequencing" nonce_sequencing ] );
  ]
