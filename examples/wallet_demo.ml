(* Wallet demo: the end-user view of Algorand. Human-readable
   checksummed addresses, sequential payments through a wallet, and the
   confirmation lifecycle (pending -> tentative/confirmed) driven by
   final consensus.

   Run with:  dune exec examples/wallet_demo.exe *)

module Harness = Algorand_core.Harness
module Wallet = Algorand_core.Wallet
module Base32 = Algorand_crypto.Base32

let () =
  let config =
    {
      Harness.default with
      users = 16;
      rounds = 3;
      block_bytes = 30_000;
      tx_rate_per_s = 0.0;
      rng_seed = 63;
    }
  in
  let h = Harness.build config in
  let alice = Wallet.create ~identity:h.identities.(0) ~node:h.nodes.(0) in
  let bob = Wallet.create ~identity:h.identities.(1) ~node:h.nodes.(1) in
  let alice_addr = Base32.address_of_pk (Wallet.address alice) in
  let bob_addr = Base32.address_of_pk (Wallet.address bob) in
  Printf.printf "alice: %s...\n" (String.sub alice_addr 0 24);
  Printf.printf "bob:   %s...\n" (String.sub bob_addr 0 24);
  (* The checksum catches typos before anything reaches the network. *)
  let typo = "A" ^ String.sub bob_addr 1 (String.length bob_addr - 1) in
  (match Base32.pk_of_address typo with
  | None -> Printf.printf "typo'd address rejected by checksum\n"
  | Some _ -> assert false);
  let payment = ref None in
  Algorand_sim.Engine.schedule h.engine ~delay:0.5 (fun () ->
      let tx = Wallet.pay alice ~to_:(Wallet.address bob) ~amount:300 in
      payment := Some tx;
      Format.printf "t=0.5s  payment submitted: %a@." Wallet.pp_status
        (Wallet.status alice tx));
  (* Poll the status as rounds land. *)
  List.iter
    (fun t ->
      Algorand_sim.Engine.schedule h.engine ~delay:t (fun () ->
          match !payment with
          | Some tx ->
            Format.printf "t=%.0fs   status: %a@." t Wallet.pp_status
              (Wallet.status alice tx)
          | None -> ()))
    [ 8.0; 15.0; 30.0 ];
  let r = Harness.drive h in
  let tx = Option.get !payment in
  Format.printf "final:  %a@." Wallet.pp_status (Wallet.status alice tx);
  Printf.printf "alice balance: %d   bob balance: %d\n" (Wallet.balance alice)
    (Wallet.balance bob);
  assert (Harness.violations r = []);
  match Wallet.status alice tx with
  | Wallet.Confirmed _ -> Printf.printf "payment confirmed by final consensus\n"
  | s -> Format.printf "unexpected final status: %a@." Wallet.pp_status s
