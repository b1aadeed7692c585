(* Ledger building blocks: wire format, transactions, balances,
   transaction pool, blocks, genesis, storage sharding. *)

open Algorand_crypto
open Algorand_ledger

let t name f = Alcotest.test_case name `Quick f
let qt ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let sig_scheme = Signature_scheme.sim
let signer_of seed = sig_scheme.generate ~seed
let alice_signer, alice = signer_of "alice"
let _bob_signer, bob = signer_of "bob"

let wire_roundtrip () =
  let fields = [ "a"; ""; String.make 1000 'x'; "\x00\xff" ] in
  Alcotest.(check (list string)) "roundtrip" fields (Wire.split (Wire.concat fields));
  Alcotest.(check int) "u64 read" 123456 (Wire.read_u64 (Wire.u64 123456) 0)

let wire_rejects_truncation () =
  let s = Wire.concat [ "hello" ] in
  Alcotest.check_raises "truncated" (Invalid_argument "Wire.split: truncated field")
    (fun () -> ignore (Wire.split (String.sub s 0 (String.length s - 1))))

let tx_roundtrip () =
  let tx =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:42 ~nonce:0
  in
  (match Transaction.deserialize (Transaction.serialize tx) with
  | Some tx' -> Alcotest.(check string) "id stable" (Transaction.id tx) (Transaction.id tx')
  | None -> Alcotest.fail "deserialize failed");
  Alcotest.(check bool) "signature valid" true
    (Transaction.verify_signature ~scheme:sig_scheme tx);
  let forged = { tx with amount = 43 } in
  Alcotest.(check bool) "forgery rejected" false
    (Transaction.verify_signature ~scheme:sig_scheme forged)

let balances_flow () =
  let b = Balances.credit Balances.empty alice 100 in
  Alcotest.(check int) "credited" 100 (Balances.balance b alice);
  Alcotest.(check int) "total" 100 (Balances.total b);
  let tx =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:30 ~nonce:0
  in
  match Balances.apply_tx b tx with
  | Error _ -> Alcotest.fail "valid tx rejected"
  | Ok b' ->
    Alcotest.(check int) "alice debited" 70 (Balances.balance b' alice);
    Alcotest.(check int) "bob credited" 30 (Balances.balance b' bob);
    Alcotest.(check int) "total conserved" 100 (Balances.total b');
    Alcotest.(check int) "nonce advanced" 1 (Balances.nonce b' alice);
    (* Replay: same nonce again must fail. *)
    (match Balances.apply_tx b' tx with
    | Error (`Bad_nonce _) -> ()
    | _ -> Alcotest.fail "replay accepted");
    (* Overdraft. *)
    let big =
      Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:500
        ~nonce:1
    in
    (match Balances.apply_tx b' big with
    | Error (`Insufficient_balance _) -> ()
    | _ -> Alcotest.fail "overdraft accepted")

let double_spend_rejected () =
  (* The core double-spending scenario: two transactions spending the
     same balance; only the first applies. *)
  let b = Balances.credit Balances.empty alice 10 in
  let spend1 =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:10 ~nonce:0
  in
  let spend2 =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:alice ~amount:10
      ~nonce:0
  in
  match Balances.apply_all b [ spend1; spend2 ] with
  | Ok _ -> Alcotest.fail "double spend accepted"
  | Error (`Bad_nonce _) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Balances.pp_tx_error e

let txpool_dedup_and_take () =
  let pool = Txpool.create () in
  let tx n =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:1 ~nonce:n
  in
  Alcotest.(check bool) "first add" true (Txpool.add pool (tx 0));
  Alcotest.(check bool) "duplicate" false (Txpool.add pool (tx 0));
  ignore (Txpool.add pool (tx 1));
  ignore (Txpool.add pool (tx 2));
  Alcotest.(check int) "size" 3 (Txpool.size pool);
  let one_tx_bytes = Transaction.size_bytes (tx 0) in
  let taken = Txpool.take pool ~max_bytes:(2 * one_tx_bytes) in
  Alcotest.(check int) "took two (byte limit)" 2 (List.length taken);
  Alcotest.(check int) "one left" 1 (Txpool.size pool);
  (* FIFO order. *)
  Alcotest.(check (list int)) "fifo" [ 0; 1 ]
    (List.map (fun (x : Transaction.t) -> x.nonce) taken);
  Txpool.remove_committed pool ~round:1 [ tx 2 ];
  Alcotest.(check int) "committed removed" 0 (Txpool.size pool);
  (* take released the ids: an uncommitted taken tx can re-enter. *)
  Alcotest.(check bool) "taken tx re-enters" true (Txpool.add pool (tx 0));
  (* ...but a committed one cannot until its id expires. *)
  Alcotest.(check bool) "committed blocked" false (Txpool.add pool (tx 2));
  Txpool.expire pool ~before_round:2;
  Alcotest.(check bool) "expired id re-enters" true (Txpool.add pool (tx 2))

let txpool_seen_bounded () =
  (* The dedup table must not grow without bound under sustained
     commit traffic: committed ids are retained only until [expire]
     passes their round. *)
  let pool = Txpool.create () in
  let tx n =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:1 ~nonce:n
  in
  for round = 1 to 50 do
    let txs = List.init 10 (fun i -> tx ((round * 10) + i)) in
    List.iter (fun tx -> ignore (Txpool.add pool tx)) txs;
    ignore (Txpool.take pool ~max_bytes:max_int);
    Txpool.remove_committed pool ~round txs;
    (* Retention window of 8 rounds. *)
    Txpool.expire pool ~before_round:(round - 8)
  done;
  Alcotest.(check int) "pool drained" 0 (Txpool.size pool);
  Alcotest.(check bool) "seen table bounded" true (Txpool.seen_ids pool <= 9 * 10);
  (* An id inside the retention window still dedups; an expired one
     re-enters. *)
  Alcotest.(check bool) "recent still dedup" false (Txpool.add pool (tx 509));
  Alcotest.(check bool) "old id expired" true (Txpool.add pool (tx 15))

let txpool_prune_stale () =
  let pool = Txpool.create () in
  let tx n =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:1 ~nonce:n
  in
  for n = 0 to 9 do
    ignore (Txpool.add pool (tx n))
  done;
  (* On-chain nonce advanced to 4: transactions 0..3 are stale. *)
  let dropped = Txpool.prune pool ~stale:(fun _ (t : Transaction.t) -> t.nonce < 4) in
  Alcotest.(check int) "dropped" 4 dropped;
  Alcotest.(check int) "left" 6 (Txpool.size pool);
  (* Pruned ids are released: a pruned tx can re-enter. *)
  Alcotest.(check bool) "pruned tx re-enters" true (Txpool.add pool (tx 0));
  Alcotest.(check (list int)) "order preserved"
    [ 4; 5; 6; 7; 8; 9; 0 ]
    (List.map
       (fun (x : Transaction.t) -> x.nonce)
       (Txpool.select pool ~max_bytes:max_int))

(* The headline bugfix: a self-payment must net to zero. The original
   [apply_tx] read the recipient's balance from the pre-debit map, so
   paying yourself X minted X coins out of thin air - inflating the
   sender's sortition weight without bound. *)
let self_payment_conserves () =
  let b = Balances.credit Balances.empty alice 100 in
  let self =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:alice ~amount:60
      ~nonce:0
  in
  (match Balances.apply_tx b self with
  | Error e -> Alcotest.failf "self-payment rejected: %a" Balances.pp_tx_error e
  | Ok b' ->
    Alcotest.(check int) "balance unchanged" 100 (Balances.balance b' alice);
    Alcotest.(check int) "total unchanged" 100 (Balances.total b');
    Alcotest.(check int) "nonce consumed" 1 (Balances.nonce b' alice);
    Alcotest.(check bool) "invariant holds" true (Balances.invariant b');
    (* Repeated self-payments still cannot inflate. *)
    let rec spin b n =
      if n = 0 then b
      else
        let tx =
          Transaction.make ~signer:alice_signer ~sender:alice ~recipient:alice ~amount:60
            ~nonce:(Balances.nonce b alice)
        in
        spin (Result.get_ok (Balances.apply_tx b tx)) (n - 1)
    in
    let b100 = spin b' 100 in
    Alcotest.(check int) "still 100 after 101 self-pays" 100
      (Balances.balance b100 alice));
  (* A self-payment exceeding the balance is still an overdraft. *)
  let over =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:alice ~amount:101
      ~nonce:0
  in
  match Balances.apply_tx b over with
  | Error (`Insufficient_balance _) -> ()
  | _ -> Alcotest.fail "self-overdraft accepted"

(* Randomized conservation oracle: drive the same arbitrary sequence of
   valid / invalid / self-pay transactions through a 1-shard and an
   8-shard ledger. After every step both must agree on the verdict and
   on all observable state, the money supply must never change, and the
   internal invariant must hold. *)
let conservation_oracle () =
  let n_accounts = 6 in
  let signers = Array.init n_accounts (fun i -> signer_of (Printf.sprintf "acct%d" i)) in
  let pk i = snd signers.(i) in
  (* Java-style 48-bit LCG: deterministic, fits a 63-bit int. *)
  let rng = ref 0x5DEECE66D in
  let rand bound =
    rng := ((!rng * 25214903917) + 11) land 0xFFFFFFFFFFFF;
    (!rng lsr 16) mod bound
  in
  let sequences = 1000 in
  for _seq = 1 to sequences do
    let b1 =
      ref
        (Array.fold_left
           (fun b (_, pk) -> Balances.credit b pk (10 + rand 50))
           (Balances.create ~shards:1) signers)
    in
    let b8 = ref (Balances.create ~shards:8) in
    Array.iter (fun (_, pk) -> b8 := Balances.credit !b8 pk (Balances.balance !b1 pk)) signers;
    let supply = Balances.total !b1 in
    for _step = 1 to 12 do
      let si = rand n_accounts in
      let sender = pk si in
      (* ~1/4 self-payments, the rest to a random recipient. *)
      let recipient = if rand 4 = 0 then sender else pk (rand n_accounts) in
      (* Mostly in-range amounts and correct nonces, with deliberate
         overdrafts and bad nonces mixed in. *)
      let amount =
        if rand 8 = 0 then Balances.balance !b1 sender + 1 + rand 100
        else rand (1 + Balances.balance !b1 sender)
      in
      let nonce =
        if rand 8 = 0 then Balances.nonce !b1 sender + 1 + rand 3
        else Balances.nonce !b1 sender
      in
      let tx =
        Transaction.make ~signer:(fst signers.(si)) ~sender ~recipient ~amount ~nonce
      in
      match (Balances.apply_tx !b1 tx, Balances.apply_tx !b8 tx) with
      | Ok b1', Ok b8' ->
        b1 := b1';
        b8 := b8'
      | Error e1, Error e2 ->
        if e1 <> e2 then
          Alcotest.failf "shard-dependent error: %a vs %a" Balances.pp_tx_error e1
            Balances.pp_tx_error e2
      | Ok _, Error e | Error e, Ok _ ->
        Alcotest.failf "shard-dependent verdict (%a)" Balances.pp_tx_error e
    done;
    if Balances.total !b1 <> supply then Alcotest.fail "1-shard supply drifted";
    if Balances.total !b8 <> supply then Alcotest.fail "8-shard supply drifted";
    if not (Balances.invariant !b1 && Balances.invariant !b8) then
      Alcotest.fail "invariant violated";
    if Balances.weights !b1 <> Balances.weights !b8 then
      Alcotest.fail "weights differ across shard counts";
    Array.iter
      (fun (_, pk) ->
        if Balances.nonce !b1 pk <> Balances.nonce !b8 pk then
          Alcotest.fail "nonces differ across shard counts")
      signers
  done

(* [apply_block] must be observably identical to [apply_all] - on
   blocks of every size, at one shard and at eight, whether the
   per-shard conservative pass succeeds or the block forces the exact
   fallback by spending intra-block credits. *)
let apply_block_equals_apply_all () =
  let n_accounts = 40 in
  let signers = Array.init n_accounts (fun i -> signer_of (Printf.sprintf "blk%d" i)) in
  let pk i = snd signers.(i) in
  let equal_state (a : Balances.t) (b : Balances.t) =
    Balances.total a = Balances.total b
    && Balances.weights a = Balances.weights b
    && Array.for_all (fun (_, pk) -> Balances.nonce a pk = Balances.nonce b pk) signers
  in
  let check name base txs =
    match (Balances.apply_all base txs, Balances.apply_block base txs) with
    | Ok s, Ok b ->
      Alcotest.(check bool) (name ^ ": apply_block = apply_all") true (equal_state s b);
      Alcotest.(check bool) (name ^ ": invariant") true (Balances.invariant b)
    | Error e, _ -> Alcotest.failf "%s: apply_all failed: %a" name Balances.pp_tx_error e
    | _, Error e -> Alcotest.failf "%s: apply_block failed: %a" name Balances.pp_tx_error e
  in
  let base =
    Array.fold_left (fun b (_, pk) -> Balances.credit b pk 1000) Balances.empty signers
  in
  (* Blocks where each sender stays within its starting balance: the
     conservative per-shard pass must succeed and match, from an empty
     block up to 400 transactions, and on a one-shard state too. *)
  let conservative n =
    let nonces = Array.make n_accounts 0 in
    List.init n (fun k ->
        let i = k mod n_accounts in
        let nonce = nonces.(i) in
        nonces.(i) <- nonce + 1;
        Transaction.make ~signer:(fst signers.(i)) ~sender:(pk i)
          ~recipient:(pk ((i + 7) mod n_accounts))
          ~amount:2 ~nonce)
  in
  let big_block = conservative 400 in
  check "empty block" base [];
  check "1-tx block" base (conservative 1);
  check "13-tx block" base (conservative 13);
  check "conservative block" base big_block;
  let base_1shard =
    Array.fold_left
      (fun b (_, pk) -> Balances.credit b pk 1000)
      (Balances.create ~shards:1) signers
  in
  check "conservative block, 1 shard" base_1shard big_block;
  (* Credit-spending block: account 0 is broke and can only pay by
     spending coins received *earlier in the same block*. The
     conservative check fails, the fallback must get it right. *)
  let broke_base =
    Array.fold_left (fun b (_, pk) -> Balances.credit b pk 1000)
      (Balances.credit Balances.empty (pk 0) 0)
      (Array.sub signers 1 (n_accounts - 1))
  in
  let nonces = Array.make n_accounts 0 in
  let mk i recipient amount =
    let nonce = nonces.(i) in
    nonces.(i) <- nonce + 1;
    Transaction.make ~signer:(fst signers.(i)) ~sender:(pk i) ~recipient ~amount ~nonce
  in
  (* Funding first, then the broke account spends it; padded to a
     300-tx block. Built with explicit sequencing: [mk]
     mutates the nonce counters, and [::] evaluates right to left. *)
  let funding = mk 1 (pk 0) 500 in
  let spend = mk 0 (pk 2) 400 in
  let padding =
    List.init 300 (fun k ->
        let i = 1 + (k mod (n_accounts - 1)) in
        mk i (pk ((i + 3) mod n_accounts)) 1)
  in
  let credit_spend = funding :: spend :: padding in
  check "credit-spending fallback" broke_base credit_spend;
  (* And self-payments inside a block conserve. *)
  let nonces = Array.make n_accounts 0 in
  let selfy =
    List.init 300 (fun k ->
        let i = k mod n_accounts in
        let nonce = nonces.(i) in
        nonces.(i) <- nonce + 1;
        let recipient = if k mod 3 = 0 then pk i else pk ((i + 1) mod n_accounts) in
        Transaction.make ~signer:(fst signers.(i)) ~sender:(pk i) ~recipient ~amount:5
          ~nonce)
  in
  check "self-pays in one block" base selfy;
  (* An invalid transaction mid-block must fail identically. *)
  let bad =
    big_block
    @ [ Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:1
          ~nonce:7 ]
  in
  (match (Balances.apply_all base bad, Balances.apply_block base bad) with
  | Error e1, Error e2 when e1 = e2 -> ()
  | _ -> Alcotest.fail "invalid block verdicts differ")

let filter_valid_batch_isolates () =
  let signers = Array.init 16 (fun i -> signer_of (Printf.sprintf "fv%d" i)) in
  let txs =
    List.init 16 (fun i ->
        let signer, pk = signers.(i) in
        Transaction.make ~signer ~sender:pk ~recipient:alice ~amount:1 ~nonce:0)
  in
  let corrupt (tx : Transaction.t) =
    { tx with signature = String.map (fun c -> Char.chr (Char.code c lxor 1)) tx.signature }
  in
  (* Clean batch: everything passes, order preserved. *)
  let valid, rejected = Transaction.filter_valid_batch ~scheme:sig_scheme txs in
  Alcotest.(check int) "clean: all valid" 16 (List.length valid);
  Alcotest.(check int) "clean: none rejected" 0 (List.length rejected);
  Alcotest.(check bool) "clean: order" true (valid = txs);
  (* Corrupt exactly #5 and #11: bisection must isolate those two and
     keep the other fourteen, order preserved. *)
  let tainted = List.mapi (fun i tx -> if i = 5 || i = 11 then corrupt tx else tx) txs in
  let valid, rejected = Transaction.filter_valid_batch ~scheme:sig_scheme tainted in
  Alcotest.(check int) "tainted: 14 valid" 14 (List.length valid);
  Alcotest.(check int) "tainted: 2 rejected" 2 (List.length rejected);
  Alcotest.(check bool) "tainted: the right ones" true
    (List.for_all2 ( = ) valid (List.filteri (fun i _ -> i <> 5 && i <> 11) txs));
  Alcotest.(check bool) "tainted: rejects are the corrupted" true
    (rejected = List.filteri (fun i _ -> i = 5 || i = 11) tainted)

let deserialize_bounds () =
  (* Oversized fields are hostile input, not transactions. *)
  let big = String.make 4096 'k' in
  let tx =
    Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:1 ~nonce:0
  in
  let with_sender s = Wire.concat [ s; tx.recipient; Wire.u64 1; Wire.u64 0; tx.signature ] in
  Alcotest.(check bool) "oversized sender rejected" true
    (Transaction.deserialize (with_sender big) = None);
  let bloated =
    Wire.concat [ tx.sender; tx.recipient; Wire.u64 1; Wire.u64 0; big ]
  in
  Alcotest.(check bool) "oversized signature rejected" true
    (Transaction.deserialize bloated = None);
  (* Short integer fields must not escape as exceptions. *)
  let short_int = Wire.concat [ tx.sender; tx.recipient; "xx"; Wire.u64 0; tx.signature ] in
  Alcotest.(check bool) "short amount rejected" true
    (Transaction.deserialize short_int = None);
  (* [pp] is total even on weird-but-accepted keys shorter than its
     4-byte preview. *)
  let stubby = Option.get (Transaction.deserialize (with_sender "a")) in
  Alcotest.(check bool) "pp total on short keys" true
    (String.length (Format.asprintf "%a" Transaction.pp stubby) > 0)

(* ------------------------------------------------------------------ *)
(* Workload generator                                                  *)
(* ------------------------------------------------------------------ *)

let wl_config n mix zipf =
  {
    Workload.default_config with
    accounts = Workload.Synthetic { n; scheme = sig_scheme };
    zipf_s = zipf;
    mix;
    seed = 99;
  }

let workload_deterministic () =
  let mk () = Workload.create (wl_config 200 Workload.hostile 1.1) in
  let a = Workload.next_n (mk ()) 500 in
  let b = Workload.next_n (mk ()) 500 in
  Alcotest.(check bool) "same seed, same stream" true
    (List.for_all2
       (fun x y -> String.equal (Transaction.serialize x) (Transaction.serialize y))
       a b);
  let c = Workload.create { (wl_config 200 Workload.hostile 1.1) with seed = 100 } in
  Alcotest.(check bool) "different seed, different stream" false
    (List.for_all2
       (fun x y -> String.equal (Transaction.serialize x) (Transaction.serialize y))
       a
       (Workload.next_n c 500))

let workload_clean_applies () =
  (* A clean stream must apply with zero rejections and conserve the
     money supply, on both shard counts. *)
  let wl = Workload.create (wl_config 100 Workload.clean 1.0) in
  let txs = Workload.next_n wl 800 in
  let check shards =
    let b0 = Workload.initial_balances wl ~stake:1000 ~shards in
    match Balances.apply_all b0 txs with
    | Error e -> Alcotest.failf "clean stream rejected (%d shards): %a" shards
                   Balances.pp_tx_error e
    | Ok b ->
      Alcotest.(check int) "supply conserved" (Balances.total b0) (Balances.total b);
      Alcotest.(check bool) "invariant" true (Balances.invariant b)
  in
  check 1;
  check 8;
  let s = Workload.stats wl in
  Alcotest.(check int) "all valid" s.generated s.valid

let workload_mix_and_skew () =
  let wl = Workload.create (wl_config 500 Workload.hostile 1.1) in
  let n = 4000 in
  let txs = Workload.next_n wl n in
  let s = Workload.stats wl in
  Alcotest.(check int) "counters add up" s.generated
    (s.valid + s.invalid + s.duplicate + s.self_pay);
  (* Each hostile category lands within loose binomial bounds. *)
  let within name lo hi x =
    if x < lo || x > hi then Alcotest.failf "%s count %d outside [%d, %d]" name x lo hi
  in
  within "invalid" (n / 20) (n / 5) s.invalid;
  within "duplicate" (n / 20) (n / 5) s.duplicate;
  within "self-pay" (n / 50) (n / 8) s.self_pay;
  (* Duplicates are byte-identical re-emissions. *)
  let tbl = Hashtbl.create n in
  let dups = ref 0 in
  List.iter
    (fun tx ->
      let raw = Transaction.serialize tx in
      if Hashtbl.mem tbl raw then incr dups else Hashtbl.add tbl raw ())
    txs;
  Alcotest.(check bool) "byte-identical duplicates present" true (!dups >= s.duplicate / 2);
  (* Zipf skew: the hottest sender dwarfs the uniform share. *)
  let freq = Hashtbl.create 512 in
  List.iter
    (fun (tx : Transaction.t) ->
      Hashtbl.replace freq tx.sender (1 + Option.value ~default:0 (Hashtbl.find_opt freq tx.sender)))
    txs;
  let hottest = Hashtbl.fold (fun _ c acc -> max c acc) freq 0 in
  Alcotest.(check bool) "hot key skew" true (hottest > 20 * (n / 500))

let workload_burst_modulates () =
  let burst = { Workload.period_s = 10.0; duty = 0.25; mult = 8.0 } in
  let wl =
    Workload.create { (wl_config 50 Workload.clean 0.0) with burst = Some burst }
  in
  let mean ~now =
    let k = 400 in
    let acc = ref 0.0 in
    for _ = 1 to k do
      acc := !acc +. Workload.interarrival wl ~now ~rate_per_s:10.0
    done;
    !acc /. float_of_int k
  in
  let inside = mean ~now:1.0 in
  (* Inside the duty window arrivals are [mult] times faster. *)
  let outside = mean ~now:6.0 in
  Alcotest.(check bool) "burst compresses interarrivals" true
    (inside *. 3.0 < outside)

let block_hash_sensitivity () =
  let e = Block.empty ~round:3 ~prev_hash:(String.make 32 'p') in
  Alcotest.(check bool) "is_empty" true (Block.is_empty e);
  let e' = Block.empty ~round:4 ~prev_hash:(String.make 32 'p') in
  Alcotest.(check bool) "round changes hash" false
    (String.equal (Block.hash e) (Block.hash e'));
  let padded = { e with padding = 100 } in
  Alcotest.(check bool) "padding changes hash" false
    (String.equal (Block.hash e) (Block.hash padded));
  Alcotest.(check int) "padding counts in size" (Block.size_bytes e + 100)
    (Block.size_bytes padded);
  (* Empty blocks are deterministic: everyone computes the same hash. *)
  Alcotest.(check string) "deterministic empty"
    (Block.hash (Block.empty ~round:3 ~prev_hash:(String.make 32 'p')))
    (Block.hash e)

let genesis_checks () =
  let g = Genesis.make [ (alice, 60); (bob, 40) ] in
  Alcotest.(check int) "total" 100 (Balances.total g.balances);
  Alcotest.(check int) "alice stake" 60 (Balances.balance g.balances alice);
  Alcotest.(check int) "round 0" 0 (Block.round g.block);
  Alcotest.(check bool) "seed nonempty" true (String.length g.seed0 = 32);
  (* Deterministic given the same participants. *)
  let g' = Genesis.make [ (alice, 60); (bob, 40) ] in
  Alcotest.(check string) "deterministic" (Genesis.hash g) (Genesis.hash g');
  Alcotest.check_raises "empty allocations" (Invalid_argument
    "Genesis.make: no initial accounts") (fun () -> ignore (Genesis.make []));
  Alcotest.check_raises "zero stake" (Invalid_argument
    "Genesis.make: non-positive stake") (fun () -> ignore (Genesis.make [ (alice, 0) ]))

(* The bulk builder must be the fold of [credit] it replaces, down to
   the tree shapes: same observable state, structurally equal, at every
   shard count, with repeated accounts summed and a non-empty starting
   state (nonces included) carried through. *)
let credit_all_equals_credit_fold () =
  let rng = Random.State.make [| 23 |] in
  let pks = Array.init 300 (fun i -> Sha256.digest_concat [ "acct"; string_of_int i ]) in
  let credits =
    List.init 2_000 (fun _ -> (pks.(Random.State.int rng 300), 1 + Random.State.int rng 1_000))
  in
  List.iter
    (fun shards ->
      let base = Balances.credit (Balances.create ~shards) alice 500 in
      let base =
        match
          Balances.apply_tx base
            (Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount:200
               ~nonce:0)
        with
        | Ok b -> b
        | Error _ -> Alcotest.fail "setup payment rejected"
      in
      let folded =
        List.fold_left (fun acc (pk, amount) -> Balances.credit acc pk amount) base credits
      in
      let bulk = Balances.credit_all base (List.to_seq credits) in
      let name what = Printf.sprintf "%d shards: %s" shards what in
      Alcotest.(check int) (name "shard count") shards (Balances.shard_count bulk);
      Alcotest.(check int) (name "total") (Balances.total folded) (Balances.total bulk);
      Alcotest.(check (list (pair string int))) (name "weights") (Balances.weights folded)
        (Balances.weights bulk);
      Array.iter
        (fun pk ->
          Alcotest.(check int) (name "balance") (Balances.balance folded pk)
            (Balances.balance bulk pk))
        pks;
      Alcotest.(check int) (name "alice nonce") 1 (Balances.nonce bulk alice);
      Alcotest.(check int) (name "bob balance") 200 (Balances.balance bulk bob);
      Alcotest.(check bool) (name "structurally equal") true (folded = bulk);
      Alcotest.(check bool) (name "invariant") true (Balances.invariant bulk))
    [ 1; 8; 256 ];
  Alcotest.(check bool) "no credits, same state" true
    (Balances.credit_all Balances.empty Seq.empty = Balances.empty)

let storage_sharding () =
  Alcotest.(check bool) "single shard stores all" true
    (Storage.stores ~shards:1 ~pk:alice ~round:17);
  (* Across 10 shards each key stores ~1/10 of rounds. *)
  let stored = ref 0 in
  for round = 0 to 999 do
    if Storage.stores ~shards:10 ~pk:alice ~round then incr stored
  done;
  Alcotest.(check int) "exactly a tenth" 100 !stored;
  Alcotest.(check (float 0.01)) "cost" 130_000.0
    (Storage.per_block_cost_bytes ~shards:10 ~block_bytes:1_000_000
       ~certificate_bytes:300_000)

let suite =
  [
    ( "ledger",
      [
        t "wire roundtrip" wire_roundtrip;
        t "wire rejects truncation" wire_rejects_truncation;
        t "tx roundtrip + signatures" tx_roundtrip;
        t "balances flow" balances_flow;
        t "double spend rejected" double_spend_rejected;
        t "txpool dedup/take" txpool_dedup_and_take;
        t "txpool seen-table bounded" txpool_seen_bounded;
        t "txpool prune stale" txpool_prune_stale;
        t "self-payment conserves" self_payment_conserves;
        Alcotest.test_case "conservation oracle (1000 sequences)" `Slow
          conservation_oracle;
        t "apply_block = apply_all" apply_block_equals_apply_all;
        t "batch filter isolates corruption" filter_valid_batch_isolates;
        t "deserialize bounds + pp totality" deserialize_bounds;
        t "workload deterministic" workload_deterministic;
        t "workload clean stream applies" workload_clean_applies;
        t "workload mix and skew" workload_mix_and_skew;
        t "workload bursts" workload_burst_modulates;
        t "block hash sensitivity" block_hash_sensitivity;
        t "genesis" genesis_checks;
        t "credit_all = fold of credit" credit_all_equals_credit_fold;
        t "storage sharding" storage_sharding;
        qt "deserialize total on garbage"
          QCheck2.Gen.(string_size (int_range 0 200))
          (fun junk ->
            (* Must never raise; any [Some] must re-serialize to the
               same id (deserialize is a partial inverse). *)
            match Transaction.deserialize junk with
            | None -> true
            | Some tx ->
              ignore (Format.asprintf "%a" Transaction.pp tx);
              (match Transaction.deserialize (Transaction.serialize tx) with
              | Some tx' -> Transaction.id tx = Transaction.id tx'
              | None -> false));
        qt "tx serialize roundtrips"
          QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 1000))
          (fun (amount, nonce) ->
            let tx =
              Transaction.make ~signer:alice_signer ~sender:alice ~recipient:bob ~amount
                ~nonce
            in
            match Transaction.deserialize (Transaction.serialize tx) with
            | Some tx' -> Transaction.id tx = Transaction.id tx'
            | None -> false);
      ] );
  ]
