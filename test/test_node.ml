(* Node-level units: identities, proposal priorities, seed evolution,
   message ids and sizes. (Whole-network behavior is in
   test_harness.ml.) *)

open Algorand_crypto
module Identity = Algorand_core.Identity
module Proposal = Algorand_core.Proposal
module Message = Algorand_core.Message
module Transaction = Algorand_ledger.Transaction
module Block = Algorand_ledger.Block
module Vote = Algorand_ba.Vote

let t name f = Alcotest.test_case name `Quick f

let sig_scheme = Signature_scheme.sim
let vrf_scheme = Vrf.sim
let users =
  Array.init 12 (fun i ->
      Identity.generate ~sig_scheme ~vrf_scheme ~seed:(Printf.sprintf "node%d" i))

let composite_key_projections () =
  let u = users.(0) in
  Alcotest.(check int) "composite length" Identity.pk_length (String.length u.pk);
  Alcotest.(check int) "sig half" 32 (String.length (Identity.sig_pk u.pk));
  Alcotest.(check int) "vrf half" 32 (String.length (Identity.vrf_pk u.pk));
  Alcotest.(check string) "concatenation"
    (Hex.of_string u.pk)
    (Hex.of_string (Identity.sig_pk u.pk ^ Identity.vrf_pk u.pk));
  (* The projections must actually work with the schemes. *)
  let s = u.signer.sign "m" in
  Alcotest.(check bool) "sig half verifies" true
    (sig_scheme.verify ~pk:(Identity.sig_pk u.pk) ~msg:"m" ~signature:s)

let weight_of _ = 100
let total_weight = 100 * Array.length users
let seed = "prop-seed"
let prev_hash = String.make 32 'H'

let proposals () =
  (* With tau = 6 over 12 users someone is selected; priorities are
     validatable and comparable. *)
  let proposals =
    Array.to_list users
    |> List.filter_map (fun (u : Identity.t) ->
           Proposal.try_propose ~prover:u.prover ~pk:u.pk ~seed ~tau:6.0 ~round:1
             ~prev_hash ~w:100 ~total_weight)
  in
  Alcotest.(check bool)
    (Printf.sprintf "some proposers (%d)" (List.length proposals))
    true
    (List.length proposals > 0);
  let credential =
    Proposal.verify_credential ~vrf_scheme ~vrf_pk_of:Identity.vrf_pk ~seed ~tau:6.0
      ~weight_of ~total_weight ~round:1
  in
  List.iter
    (fun (p : Proposal.priority_msg) ->
      Alcotest.(check bool) "validates" true
        (Proposal.validate ~credential p);
      (* A forged priority must not validate. *)
      Alcotest.(check bool) "forged priority rejected" false
        (Proposal.validate ~credential { p with priority = Sha256.digest "fake" }))
    proposals;
  (* higher is a strict total order on distinct proposals. *)
  match proposals with
  | a :: b :: _ ->
    Alcotest.(check bool) "antisymmetric" true
      (Proposal.higher a b <> Proposal.higher b a)
  | _ -> ()

let seed_evolution () =
  let u = users.(0) in
  let s1, proof = Proposal.next_seed ~prover:u.prover ~current_seed:"seed-r" ~round:3 in
  Alcotest.(check bool) "verifies" true
    (Proposal.verify_next_seed ~vrf_scheme ~vrf_pk:(Identity.vrf_pk u.pk)
       ~current_seed:"seed-r" ~round:3 ~seed:s1 ~proof);
  Alcotest.(check bool) "wrong round rejected" false
    (Proposal.verify_next_seed ~vrf_scheme ~vrf_pk:(Identity.vrf_pk u.pk)
       ~current_seed:"seed-r" ~round:4 ~seed:s1 ~proof);
  Alcotest.(check bool) "wrong key rejected" false
    (Proposal.verify_next_seed ~vrf_scheme ~vrf_pk:(Identity.vrf_pk users.(1).pk)
       ~current_seed:"seed-r" ~round:3 ~seed:s1 ~proof);
  (* Different rounds give different seeds (pseudo-randomness). *)
  let s2, _ = Proposal.next_seed ~prover:u.prover ~current_seed:"seed-r" ~round:4 in
  Alcotest.(check bool) "fresh per round" false (String.equal s1 s2)

let empty_hash_determinism () =
  let h1 = Proposal.empty_hash ~round:2 ~prev_hash in
  let h2 = Proposal.empty_hash ~round:2 ~prev_hash in
  let h3 = Proposal.empty_hash ~round:3 ~prev_hash in
  Alcotest.(check string) "deterministic" (Hex.of_string h1) (Hex.of_string h2);
  Alcotest.(check bool) "round-dependent" false (String.equal h1 h3)

let message_ids () =
  let u = users.(0) in
  let signer = u.signer in
  let tx =
    Transaction.make ~signer ~sender:u.pk ~recipient:users.(1).pk ~amount:1 ~nonce:0
  in
  let b = Block.empty ~round:1 ~prev_hash in
  (* Ids are distinct across kinds and stable. *)
  let ids =
    [
      Message.id (Message.Tx tx);
      Message.id (Message.Block_gossip b);
      Message.id (Message.Block_request { round = 1; block_hash = "h"; requester = 0; attempt = 0 });
      Message.id (Message.Block_reply b);
    ]
  in
  Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare ids));
  Alcotest.(check string) "stable" (Message.id (Message.Tx tx)) (Message.id (Message.Tx tx));
  (* Block gossip id is per (round, proposer): two variants from the
     same proposer share an id (relay rule of section 8.4). *)
  let b2 = { b with padding = 77 } in
  Alcotest.(check string) "equivocating blocks share id"
    (Message.id (Message.Block_gossip b))
    (Message.id (Message.Block_gossip b2));
  Alcotest.(check bool) "sizes positive" true
    (List.for_all
       (fun m -> Message.size_bytes m > 0)
       [ Message.Tx tx; Message.Block_gossip b ])

let priority_message_size () =
  (* Paper: ~200 bytes for priority+proof gossip. *)
  Alcotest.(check int) "200 bytes" 200 Proposal.priority_size_bytes

let suite =
  [
    ( "node-units",
      [
        t "composite key projections" composite_key_projections;
        t "proposals and priorities" proposals;
        t "seed evolution" seed_evolution;
        t "empty hash determinism" empty_hash_determinism;
        t "message ids" message_ids;
        t "priority message size" priority_message_size;
      ] );
  ]
