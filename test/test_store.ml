(* Base32 addresses and the on-disk block/certificate store. *)

open Algorand_crypto
module Harness = Algorand_core.Harness
module Node = Algorand_core.Node
module History = Algorand_core.History
module Disk_store = Algorand_core.Disk_store
module Chain = Algorand_ledger.Chain

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let qt ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---------------------------- base32 ----------------------------- *)

let base32_known () =
  (* RFC 4648 test vectors (unpadded). *)
  Alcotest.(check string) "f" "MY" (Base32.encode "f");
  Alcotest.(check string) "fo" "MZXQ" (Base32.encode "fo");
  Alcotest.(check string) "foo" "MZXW6" (Base32.encode "foo");
  Alcotest.(check string) "foobar" "MZXW6YTBOI" (Base32.encode "foobar");
  Alcotest.(check (option string)) "decode" (Some "foobar") (Base32.decode "MZXW6YTBOI")

let base32_rejects () =
  Alcotest.(check (option string)) "bad char" None (Base32.decode "M!");
  (* Nonzero trailing padding bits. *)
  Alcotest.(check (option string)) "bad padding" None (Base32.decode "MZ")

let addresses () =
  let pk = Sha256.digest "a" ^ Sha256.digest "b" in
  let addr = Base32.address_of_pk pk in
  Alcotest.(check (option string)) "roundtrip" (Some pk) (Base32.pk_of_address addr);
  (* A single-character typo is caught by the checksum. *)
  let typo =
    String.mapi (fun i c -> if i = 3 then (if c = 'A' then 'B' else 'A') else c) addr
  in
  Alcotest.(check (option string)) "typo caught" None (Base32.pk_of_address typo)

(* --------------------------- disk store --------------------------- *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "algorand-store-%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.file_exists path then begin
      if Sys.is_directory path then begin
        Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
    end
  in
  rm dir;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let config =
  {
    Harness.default with
    users = 16;
    rounds = 3;
    block_bytes = 20_000;
    tx_rate_per_s = 2.0;
    rng_seed = 51;
  }

let save_load_replay () =
  with_tmp_dir (fun dir ->
      let r = Harness.run config in
      let node =
        Array.to_list r.harness.nodes
        |> List.find (fun n ->
               List.for_all (fun round -> Node.certificate n ~round <> None) [ 1; 2; 3 ])
      in
      let items = Node.history node ~up_to_round:3 in
      Disk_store.save dir items;
      Alcotest.(check (list int)) "stored rounds" [ 1; 2; 3 ] (Disk_store.stored_rounds dir);
      Alcotest.(check bool) "nonzero size" true (Disk_store.size_bytes dir > 1000);
      match Disk_store.load dir ~up_to_round:3 with
      | _, Some e -> Alcotest.failf "load: %a" Disk_store.pp_load_error e
      | loaded, None -> (
        match
          History.replay ~params:config.params ~sig_scheme:Signature_scheme.sim
            ~vrf_scheme:Vrf.sim ~genesis:r.harness.genesis loaded
        with
        | Error e -> Alcotest.failf "replay: %a" History.pp_error e
        | Ok chain ->
          Alcotest.(check string) "same tip"
            (Hex.of_string (Chain.tip (Node.chain node)).hash)
            (Hex.of_string (Chain.tip chain).hash)))

let corrupt_store_rejected () =
  with_tmp_dir (fun dir ->
      let r = Harness.run config in
      let node =
        Array.to_list r.harness.nodes
        |> List.find (fun n ->
               List.for_all (fun round -> Node.certificate n ~round <> None) [ 1; 2; 3 ])
      in
      Disk_store.save dir (Node.history node ~up_to_round:3);
      (* Truncate one block file: load keeps the valid prefix (round 1)
         and reports where and why the scan stopped. *)
      let victim = Filename.concat dir "000002.block" in
      let oc = open_out_bin victim in
      output_string oc "garbage";
      close_out oc;
      (match Disk_store.load dir ~up_to_round:3 with
      | prefix, Some (`Corrupt 2) ->
        Alcotest.(check (list int)) "prefix before corruption" [ 1 ]
          (List.map
             (fun (i : History.item) ->
               Algorand_ledger.Block.round i.block)
             prefix)
      | _, Some e -> Alcotest.failf "unexpected: %a" Disk_store.pp_load_error e
      | _, None -> Alcotest.fail "corrupt block decoded");
      (* Remove a round entirely: same prefix-tolerant behavior. *)
      Sys.remove victim;
      match Disk_store.load dir ~up_to_round:3 with
      | prefix, Some (`Missing 2) ->
        Alcotest.(check int) "prefix before gap" 1 (List.length prefix)
      | _ -> Alcotest.fail "missing round not reported")

let suite =
  [
    ( "store",
      [
        t "base32 RFC vectors" base32_known;
        t "base32 rejects" base32_rejects;
        t "checksummed addresses" addresses;
        ts "save/load/replay" save_load_replay;
        ts "corrupt store rejected" corrupt_store_rejected;
        qt "base32 roundtrip" QCheck2.Gen.string (fun s ->
            Base32.decode (Base32.encode s) = Some s);
      ] );
  ]
