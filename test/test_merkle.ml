(* Merkle trees, block transaction commitments, and light-client
   payment verification. *)

open Algorand_crypto
module Block = Algorand_ledger.Block
module Transaction = Algorand_ledger.Transaction
module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module Catchup = Algorand_core.Catchup
module Lightclient = Algorand_core.Lightclient
module Chain = Algorand_ledger.Chain

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let leaves n = List.init n (fun i -> Printf.sprintf "leaf-%d" i)

let empty_tree () =
  Alcotest.(check string) "empty root" (Hex.of_string Merkle.empty_root)
    (Hex.of_string (Merkle.root []));
  Alcotest.(check bool) "no proof for empty" true (Merkle.prove [] ~index:0 = None)

let roots_differ () =
  let r3 = Merkle.root (leaves 3) in
  let r4 = Merkle.root (leaves 4) in
  Alcotest.(check bool) "size matters" false (String.equal r3 r4);
  let swapped = Merkle.root [ "leaf-1"; "leaf-0"; "leaf-2" ] in
  Alcotest.(check bool) "order matters" false (String.equal r3 swapped);
  (* Single leaf root <> the leaf's own hash domain (tagged). *)
  Alcotest.(check bool) "leaf domain separated" false
    (String.equal (Merkle.root [ "x" ]) (Sha256.digest "x"))

let all_proofs_verify () =
  List.iter
    (fun n ->
      let ls = leaves n in
      let root = Merkle.root ls in
      List.iteri
        (fun i leaf ->
          match Merkle.prove ls ~index:i with
          | None -> Alcotest.failf "no proof for %d/%d" i n
          | Some p ->
            if not (Merkle.verify ~root ~leaf p) then
              Alcotest.failf "proof %d/%d rejected" i n)
        ls)
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ]

let wrong_leaf_rejected () =
  let ls = leaves 8 in
  let root = Merkle.root ls in
  let p = Option.get (Merkle.prove ls ~index:3) in
  Alcotest.(check bool) "wrong leaf" false (Merkle.verify ~root ~leaf:"leaf-4" p);
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify ~root:(Sha256.digest "other") ~leaf:"leaf-3" p);
  (* Tampered path element. *)
  let tampered =
    { p with path = List.map (fun (s, h) -> (s, Sha256.digest h)) p.path }
  in
  Alcotest.(check bool) "tampered path" false
    (Merkle.verify ~root ~leaf:"leaf-3" tampered)

let proof_size_logarithmic () =
  let size n =
    Merkle.proof_size_bytes (Option.get (Merkle.prove (leaves n) ~index:0))
  in
  (* 1024 leaves need 10 siblings; 33 bytes each plus the index. *)
  Alcotest.(check bool) "1024 leaves ~ 10 hashes" true (size 1024 <= 8 + (10 * 33));
  Alcotest.(check bool) "grows slowly" true (size 1024 < 2 * size 32)

let block_summary_roundtrip () =
  let sig_scheme = Signature_scheme.sim in
  let signer, pk = sig_scheme.generate ~seed:"m" in
  let _, pk2 = sig_scheme.generate ~seed:"m2" in
  let txs =
    List.init 5 (fun i ->
        Transaction.make ~signer ~sender:pk ~recipient:pk2 ~amount:1 ~nonce:i)
  in
  let block = { (Block.empty ~round:1 ~prev_hash:(String.make 32 'p')) with txs } in
  let s = Block.summarize block in
  Alcotest.(check string) "summary hash = block hash"
    (Hex.of_string (Block.hash block))
    (Hex.of_string (Block.hash_of_summary s));
  let tx = List.nth txs 2 in
  let tx_id = Transaction.id tx in
  (match Block.prove_tx block ~tx_id with
  | None -> Alcotest.fail "no inclusion proof"
  | Some proof ->
    Alcotest.(check bool) "inclusion verifies" true
      (Block.summary_contains s ~tx_id proof);
    Alcotest.(check bool) "other tx rejected" false
      (Block.summary_contains s ~tx_id:(Sha256.digest "nope") proof));
  Alcotest.(check bool) "absent tx has no proof" true
    (Block.prove_tx block ~tx_id:(Sha256.digest "absent") = None)

let tree_matches_naive () =
  (* The build-once tree must agree with the per-proof list walk on
     every size and index: same root, byte-identical proofs. *)
  List.iter
    (fun n ->
      let ls = leaves n in
      let tree = Merkle.build ls in
      Alcotest.(check int) "size" n (Merkle.tree_size tree);
      Alcotest.(check string)
        (Printf.sprintf "root n=%d" n)
        (Hex.of_string (Merkle.root ls))
        (Hex.of_string (Merkle.tree_root tree));
      List.iteri
        (fun i leaf ->
          match (Merkle.prove ls ~index:i, Merkle.prove_tree tree ~index:i) with
          | Some naive, Some fast ->
            if naive <> fast then Alcotest.failf "proof %d/%d differs" i n;
            Alcotest.(check bool) "verifies" true
              (Merkle.verify ~root:(Merkle.tree_root tree) ~leaf fast)
          | _ -> Alcotest.failf "missing proof %d/%d" i n)
        ls;
      Alcotest.(check bool) "out of range" true (Merkle.prove_tree tree ~index:n = None))
    [ 1; 2; 3; 4; 5; 7; 8; 9; 16; 33 ];
  Alcotest.(check string) "empty tree root" (Hex.of_string Merkle.empty_root)
    (Hex.of_string (Merkle.tree_root (Merkle.build [])))

let proof_server () =
  let sig_scheme = Signature_scheme.sim in
  let signer, pk = sig_scheme.generate ~seed:"srv" in
  let _, pk2 = sig_scheme.generate ~seed:"srv2" in
  let block_of round n =
    let txs =
      List.init n (fun i ->
          Transaction.make ~signer ~sender:pk ~recipient:pk2 ~amount:(round + 1) ~nonce:i)
    in
    { (Block.empty ~round ~prev_hash:(String.make 32 'p')) with txs }
  in
  let server = Lightclient.create_server ~max_blocks:2 () in
  let block = block_of 1 50 in
  let summary = Block.summarize block in
  (* Every transaction in the block gets a verifying proof. *)
  List.iter
    (fun tx ->
      let tx_id = Transaction.id tx in
      match Lightclient.serve_proof server ~block ~tx_id with
      | None -> Alcotest.fail "no proof for included tx"
      | Some (s, proof) ->
        Alcotest.(check string) "summary hash" (Hex.of_string (Block.hash_of_summary summary))
          (Hex.of_string (Block.hash_of_summary s));
        Alcotest.(check bool) "verifies" true (Block.summary_contains s ~tx_id proof))
    block.txs;
  Alcotest.(check bool) "absent tx" true
    (Lightclient.serve_proof server ~block ~tx_id:(Sha256.digest "absent") = None);
  (* One build, all subsequent requests hits (the physical-equality
     fast path never recomputes the block hash). *)
  Alcotest.(check int) "one miss" 1 (Lightclient.server_misses server);
  Alcotest.(check int) "rest are hits" 50 (Lightclient.server_hits server);
  (* A structurally-equal rebuild (different pointer) is still a cache
     hit via the hash path. *)
  let rebuilt = block_of 1 50 in
  ignore (Lightclient.serve_proof server ~block:rebuilt
            ~tx_id:(Transaction.id (List.hd rebuilt.txs)));
  Alcotest.(check int) "rebuild is a hit" 1 (Lightclient.server_misses server);
  (* FIFO bound: serving a third distinct block evicts the oldest. *)
  ignore (Lightclient.serve_proof server ~block:(block_of 2 8)
            ~tx_id:(Sha256.digest "x"));
  ignore (Lightclient.serve_proof server ~block:(block_of 3 8)
            ~tx_id:(Sha256.digest "x"));
  Alcotest.(check int) "cache bounded" 2 (Lightclient.server_cached_blocks server)

let light_client_end_to_end () =
  (* Run a network, pick a committed payment, and verify it as a light
     client: certificate + summary + Merkle proof, no block bodies. *)
  let config =
    {
      Harness.default with
      users = 16;
      rounds = 3;
      block_bytes = 30_000;
      tx_rate_per_s = 5.0;
      rng_seed = 33;
    }
  in
  let r = Harness.run config in
  Expect.no_violations r;
  (* Find a round whose block carries transactions and a certificate. *)
  let node = r.harness.nodes.(0) in
  let chain = Node.chain node in
  let entry =
    List.find
      (fun (e : Chain.entry) -> e.height > 0 && e.block.txs <> [])
      (List.rev (Chain.ancestry chain (Chain.tip chain).hash))
  in
  let source =
    Array.to_list r.harness.nodes
    |> List.find_map (fun n ->
           match Node.certificate n ~round:entry.height with
           | Some c when String.equal c.block_hash entry.hash -> Some c
           | _ -> None)
  in
  let certificate = Option.get source in
  let tx = List.hd entry.block.txs in
  let tx_id = Transaction.id tx in
  let summary = Block.summarize entry.block in
  let proof = Option.get (Block.prove_tx entry.block ~tx_id) in
  let ctx =
    Catchup.validation_ctx ~params:config.params
      ~sig_scheme:Algorand_crypto.Signature_scheme.sim ~vrf_scheme:Algorand_crypto.Vrf.sim
      ~chain ~round:entry.height
  in
  (* The context must see the chain as it was before this block. *)
  let ctx = { ctx with last_block_hash = entry.parent } in
  (match
     Lightclient.verify_payment ~params:config.params ~ctx ~summary ~certificate ~tx_id
       ~proof
   with
  | Ok v ->
    Alcotest.(check int) "round" entry.height v.round;
    Alcotest.(check string) "hash" (Hex.of_string entry.hash) (Hex.of_string v.block_hash)
  | Error e -> Alcotest.failf "light verification failed: %a" Lightclient.pp_error e);
  (* A payment that is not in the block must be rejected. *)
  match
    Lightclient.verify_payment ~params:config.params ~ctx ~summary ~certificate
      ~tx_id:(Sha256.digest "forged") ~proof
  with
  | Error `Not_included -> ()
  | Ok _ -> Alcotest.fail "forged payment accepted"
  | Error e -> Alcotest.failf "unexpected: %a" Lightclient.pp_error e

let suite =
  [
    ( "merkle",
      [
        t "empty tree" empty_tree;
        t "roots differ" roots_differ;
        t "all proofs verify" all_proofs_verify;
        t "wrong leaf rejected" wrong_leaf_rejected;
        t "proof size logarithmic" proof_size_logarithmic;
        t "block summary roundtrip" block_summary_roundtrip;
        t "tree matches naive prover" tree_matches_naive;
        t "proof server" proof_server;
        ts "light client end-to-end" light_client_end_to_end;
        qt "random trees verify"
          QCheck2.Gen.(pair (int_range 1 40) (int_range 0 1000))
          (fun (n, seed) ->
            let ls = List.init n (fun i -> Printf.sprintf "%d-%d" seed i) in
            let root = Merkle.root ls in
            let idx = seed mod n in
            match Merkle.prove ls ~index:idx with
            | None -> false
            | Some p -> Merkle.verify ~root ~leaf:(List.nth ls idx) p);
      ] );
  ]
