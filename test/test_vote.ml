(* Vote messages and validation (Algorithms 4 and 6), the vote counter
   (Algorithm 5), and the common coin (Algorithm 9). *)

open Algorand_crypto
open Algorand_ba
module Identity = Algorand_core.Identity

let t name f = Alcotest.test_case name `Quick f

let sig_scheme = Signature_scheme.sim
let vrf_scheme = Vrf.sim

let users = Array.init 10 (fun i ->
    Identity.generate ~sig_scheme ~vrf_scheme ~seed:(Printf.sprintf "voter%d" i))

let weight = 100
let total_weight = weight * Array.length users
let prev_hash = String.make 32 'P'
let seed = "round-seed"

let vctx : Vote.validation_ctx =
  {
    sig_scheme;
    vrf_scheme;
    sig_pk_of = Identity.sig_pk;
    vrf_pk_of = Identity.vrf_pk;
    seed;
    total_weight;
    weight_of = (fun _ -> weight);
    last_block_hash = prev_hash;
    tau_of_step = (fun _ -> 50.0);
  }

let make_vote ?(round = 1) ?(step = Vote.Bin 1) ?(value = "V") (i : int) : Vote.t option =
  Vote.make ~signer:users.(i).signer ~prover:users.(i).prover ~pk:users.(i).pk ~seed
    ~tau:50.0 ~w:weight ~total_weight ~round ~step ~prev_hash ~value

(* With tau=50 over 10 users, each user is selected w.h.p.; find one. *)
let some_vote () : Vote.t =
  let rec go i =
    if i >= Array.length users then Alcotest.fail "no committee member selected"
    else match make_vote i with Some v -> v | None -> go (i + 1)
  in
  go 0

let roundtrip_validation () =
  let v = some_vote () in
  let votes = Vote.validate vctx v in
  Alcotest.(check bool) (Printf.sprintf "positive votes (%d)" votes) true (votes > 0)

let rejections () =
  let v = some_vote () in
  (* Wrong fork. *)
  Alcotest.(check int) "off-fork rejected" 0
    (Vote.validate { vctx with last_block_hash = String.make 32 'Q' } v);
  (* Tampered value breaks the signature. *)
  Alcotest.(check int) "tampered value" 0 (Vote.validate vctx { v with value = "W" });
  (* Tampered step breaks both signature and sortition role. *)
  Alcotest.(check int) "tampered step" 0
    (Vote.validate vctx { v with step = Vote.Bin 2 });
  (* Wrong seed on the validator side. *)
  Alcotest.(check int) "wrong seed" 0 (Vote.validate { vctx with seed = "x" } v);
  (* A voter with no stake. *)
  Alcotest.(check int) "zero weight" 0
    (Vote.validate { vctx with weight_of = (fun _ -> 0) } v)

let sortition_not_selected_returns_none () =
  (* With tau tiny, most users are not on the committee. *)
  let selected = ref 0 in
  for i = 0 to Array.length users - 1 do
    match
      Vote.make ~signer:users.(i).signer ~prover:users.(i).prover ~pk:users.(i).pk ~seed
        ~tau:0.5 ~w:weight ~total_weight ~round:9 ~step:(Vote.Bin 1) ~prev_hash ~value:"V"
    with
    | Some _ -> incr selected
    | None -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "few selected (%d)" !selected) true (!selected <= 4)

let steps_and_roles () =
  Alcotest.(check bool) "step ordering" true
    (Vote.compare_step Vote.Reduction_one Vote.Reduction_two < 0
    && Vote.compare_step Vote.Reduction_two (Vote.Bin 1) < 0
    && Vote.compare_step (Vote.Bin 1) (Vote.Bin 2) < 0
    && Vote.compare_step (Vote.Bin 99) Vote.Final < 0);
  (* Distinct roles per round and step (fresh committees). *)
  let r1 = Vote.committee_role ~round:1 ~step:(Vote.Bin 1) in
  let r2 = Vote.committee_role ~round:2 ~step:(Vote.Bin 1) in
  let r3 = Vote.committee_role ~round:1 ~step:(Vote.Bin 2) in
  Alcotest.(check int) "all distinct" 3 (List.length (List.sort_uniq compare [ r1; r2; r3 ]))

let gossip_id_excludes_value () =
  let v = some_vote () in
  Alcotest.(check string) "same id for both values" (Vote.gossip_id v)
    (Vote.gossip_id { v with value = "other" });
  Alcotest.(check bool) "different step, different id" false
    (String.equal (Vote.gossip_id v) (Vote.gossip_id { v with step = Vote.Bin 2 }))

(* The id is a plain key, not a hash, so it must be injective on
   (round, step, pk) by construction: pks are arbitrary bytes and may
   hold '|', and round and step digits must not run together (round 1
   bin-11 against round 11 bin-1). *)
let gossip_id_injective () =
  let v = some_vote () in
  let votes =
    List.concat_map
      (fun (round, step) ->
        List.map
          (fun voter_pk -> { v with round; step; voter_pk })
          [ ""; "|"; "a|b"; "|bin-1|x"; "1|bin-1"; v.voter_pk; v.voter_pk ^ "|" ])
      [
        (1, Vote.Bin 11); (11, Vote.Bin 1); (1, Vote.Bin 1); (11, Vote.Bin 11);
        (1, Vote.Reduction_one); (1, Vote.Reduction_two); (1, Vote.Final); (0, Vote.Final);
      ]
  in
  let ids = List.sort_uniq compare (List.map Vote.gossip_id votes) in
  Alcotest.(check int) "one id per (round, step, pk)" (List.length votes) (List.length ids)

let counter_threshold_and_dedup () =
  let c = Vote_counter.create ~threshold:10.0 in
  let r1 = Vote_counter.add c ~pk:"a" ~votes:6 ~value:"X" ~sorthash:"h1" in
  Alcotest.(check bool) "counted" true (r1 = `Counted);
  (* Same pk again: ignored even with different value. *)
  Alcotest.(check bool) "dedup by pk" true
    (Vote_counter.add c ~pk:"a" ~votes:6 ~value:"Y" ~sorthash:"h1" = `Ignored);
  Alcotest.(check bool) "zero votes ignored" true
    (Vote_counter.add c ~pk:"z" ~votes:0 ~value:"X" ~sorthash:"hz" = `Ignored);
  (* Threshold is strict: reaching exactly 10 does not trigger. *)
  Alcotest.(check bool) "10 votes not enough" true
    (Vote_counter.add c ~pk:"b" ~votes:4 ~value:"X" ~sorthash:"h2" = `Counted);
  (match Vote_counter.add c ~pk:"c" ~votes:1 ~value:"X" ~sorthash:"h3" with
  | `Reached "X" -> ()
  | _ -> Alcotest.fail "crossing threshold must report Reached");
  Alcotest.(check (option string)) "reached recorded" (Some "X") (Vote_counter.reached c);
  Alcotest.(check int) "votes_for" 11 (Vote_counter.votes_for c "X");
  Alcotest.(check int) "voters" 3 (Vote_counter.distinct_voters c)

let counter_reports_first_crossing_only () =
  let c = Vote_counter.create ~threshold:5.0 in
  ignore (Vote_counter.add c ~pk:"a" ~votes:6 ~value:"X" ~sorthash:"h");
  (* A later crossing by another value must not produce a second Reached. *)
  Alcotest.(check bool) "second value does not re-trigger" true
    (Vote_counter.add c ~pk:"b" ~votes:6 ~value:"Y" ~sorthash:"h2" = `Counted)

let coin_properties () =
  let flip = Common_coin.flip in
  Alcotest.(check int) "no votes -> 0" 0 (flip []);
  let msgs = [ (Sha256.digest "a", 3); (Sha256.digest "b", 1) ] in
  let c1 = flip msgs in
  Alcotest.(check int) "deterministic" c1 (flip msgs);
  Alcotest.(check bool) "binary" true (c1 = 0 || c1 = 1);
  (* Order independence: the minimum does not care about list order. *)
  Alcotest.(check int) "order independent" c1 (flip (List.rev msgs));
  (* Roughly balanced over many sorthashes. *)
  let ones = ref 0 in
  for i = 1 to 400 do
    if flip [ (Sha256.digest (string_of_int i), 2) ] = 1 then incr ones
  done;
  Alcotest.(check bool) (Printf.sprintf "balanced (%d/400)" !ones) true
    (!ones > 150 && !ones < 250)

let coin_uses_all_subusers () =
  (* A message with more sub-user votes contributes more candidate
     hashes, so the min over (h,5) differs from (h,1) sometimes. *)
  let differs = ref false in
  for i = 0 to 50 do
    let h = Sha256.digest (Printf.sprintf "m%d" i) in
    if Common_coin.flip [ (h, 1) ] <> Common_coin.flip [ (h, 5) ] then differs := true
  done;
  Alcotest.(check bool) "sub-user count matters" true !differs

let sub_user_weights_counted () =
  (* A user holding most of the stake is selected as many sub-users
     (section 5.1): its single vote message must carry j > 1 weighted
     votes, and the counter must credit all of them at once. *)
  let sig_scheme = Signature_scheme.sim and vrf_scheme = Vrf.sim in
  let whale = Identity.generate ~sig_scheme ~vrf_scheme ~seed:"whale" in
  let w = 900 and total = 1000 in
  let ctx =
    {
      vctx with
      weight_of = (fun pk -> if String.equal pk whale.pk then w else 10);
      tau_of_step = (fun _ -> 100.0);
    }
  in
  match
    Vote.make ~signer:whale.signer ~prover:whale.prover ~pk:whale.pk ~seed ~tau:100.0 ~w
      ~total_weight:total ~round:1 ~step:(Vote.Bin 1) ~prev_hash ~value:"V"
  with
  | None -> Alcotest.fail "whale not selected at tau=100 with 90% stake"
  | Some v ->
    let votes = Vote.validate ctx v in
    (* Expectation is 90 sub-users; demand a healthy multiple. *)
    Alcotest.(check bool) (Printf.sprintf "many sub-users (%d)" votes) true (votes > 30);
    let c = Vote_counter.create ~threshold:(float_of_int (votes - 1)) in
    (match Vote_counter.add c ~pk:v.voter_pk ~votes ~value:v.value ~sorthash:v.sorthash with
    | `Reached _ -> ()
    | _ -> Alcotest.fail "single weighted message should cross the threshold alone")

let suite =
  [
    ( "vote",
      [
        t "sub-user weights counted" sub_user_weights_counted;
        t "validation roundtrip" roundtrip_validation;
        t "rejections" rejections;
        t "sortition gates voting" sortition_not_selected_returns_none;
        t "steps and roles" steps_and_roles;
        t "gossip id excludes value" gossip_id_excludes_value;
        t "gossip id injective" gossip_id_injective;
        t "counter threshold + dedup" counter_threshold_and_dedup;
        t "counter first crossing only" counter_reports_first_crossing_only;
        t "common coin properties" coin_properties;
        t "common coin sub-users" coin_uses_all_subusers;
      ] );
  ]
