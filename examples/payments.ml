(* Payments: the workload the paper's introduction motivates. Wallets
   submit payments (including a double-spend attempt), the network
   commits them, and we verify that exactly one of the conflicting
   payments confirmed and that every user sees identical balances.

   Run with:  dune exec examples/payments.exe *)

module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Identity = Algorand_core.Identity
module Chain = Algorand_ledger.Chain
module Balances = Algorand_ledger.Balances
module Transaction = Algorand_ledger.Transaction

let () =
  let config =
    {
      Harness.default with
      users = 20;
      rounds = 2;
      block_bytes = 50_000;
      tx_rate_per_s = 0.0 (* we drive the workload by hand below *);
      rng_seed = 12;
    }
  in
  let h = Harness.build config in
  let alice = h.identities.(0) and bob = h.identities.(1) and carol = h.identities.(2) in
  (* A normal payment, submitted at Alice's node half a second in. *)
  let pay recipient amount nonce =
    Transaction.make ~signer:alice.Identity.signer ~sender:alice.pk ~recipient ~amount
      ~nonce
  in
  Algorand_sim.Engine.schedule h.engine ~delay:0.5 (fun () ->
      Node.submit_tx h.nodes.(0) (pay bob.pk 250 0);
      (* Double-spend attempt: two transactions with the same nonce,
         spending the same money to different recipients, injected at
         two different nodes. At most one can confirm. *)
      Node.submit_tx h.nodes.(0) (pay bob.pk 750 1);
      Node.submit_tx h.nodes.(5) (pay carol.pk 750 1));
  let violations = Harness.violations (Harness.drive h) in
  List.iter (Format.printf "VIOLATION %a@." Algorand_core.Verdict.pp_violation) violations;
  assert (violations = []);
  (* Inspect final balances on every node: all identical, and only one
     of the conflicting payments went through. *)
  let tip0 = Chain.tip (Node.chain h.nodes.(0)) in
  let balance_of pk = Balances.balance tip0.balances_after pk in
  let stake = Balances.balance h.genesis.balances alice.pk in
  Printf.printf "alice: %d  bob: %d  carol: %d (initial stake %d each)\n"
    (balance_of alice.pk) (balance_of bob.pk) (balance_of carol.pk) stake;
  let bob_paid = balance_of bob.pk = stake + 250 + 750 in
  let carol_paid = balance_of carol.pk = stake + 750 in
  assert (balance_of alice.pk = stake - 1000);
  assert (bob_paid <> carol_paid);
  Printf.printf "double-spend resolved: the 750 went to %s only\n"
    (if bob_paid then "bob" else "carol");
  Array.iter
    (fun n ->
      let tip = Chain.tip (Node.chain n) in
      assert (String.equal tip.hash tip0.hash))
    h.nodes;
  Printf.printf "all %d users agree on the ledger\n" config.users
