(* Cryptographic sortition (Algorithms 1-2): prove/verify roundtrips,
   forgery rejection, the Sybil-splitting invariance of section 5.1,
   and proposer priorities (section 6). *)

open Algorand_crypto
open Algorand_sortition

let t name f = Alcotest.test_case name `Quick f

let scheme = Vrf.sim

let mk_user seed = scheme.generate ~seed

let select ~seed_str ~tau ~w ~total (prover : Vrf.prover) =
  Sortition.select ~prover ~seed:seed_str ~tau ~role:"role" ~w ~total_weight:total

let roundtrip () =
  let prover, pk = mk_user "u1" in
  let sel = select ~seed_str:"seed" ~tau:10.0 ~w:500 ~total:1000 prover in
  let j =
    Sortition.verify ~scheme ~pk ~vrf_hash:sel.vrf_hash ~vrf_proof:sel.vrf_proof
      ~seed:"seed" ~tau:10.0 ~role:"role" ~w:500 ~total_weight:1000
  in
  Alcotest.(check int) "verify returns same j" sel.j j;
  (* Half the stake at tau=10 should yield about 5 selections. *)
  Alcotest.(check bool) "selected a plausible number" true (sel.j >= 0 && sel.j <= 20)

let verify_rejects_wrong_context () =
  let prover, pk = mk_user "u1" in
  let _, pk2 = mk_user "u2" in
  let sel = select ~seed_str:"seed" ~tau:10.0 ~w:500 ~total:1000 prover in
  let verify ?(pk = pk) ?(seed = "seed") ?(role = "role") ?(hash = sel.vrf_hash) () =
    Sortition.verify ~scheme ~pk ~vrf_hash:hash ~vrf_proof:sel.vrf_proof ~seed ~tau:10.0
      ~role ~w:500 ~total_weight:1000
  in
  Alcotest.(check bool) "accepts valid" true (verify () > 0 || sel.j = 0);
  Alcotest.(check int) "wrong pk" 0 (verify ~pk:pk2 ());
  Alcotest.(check int) "wrong seed" 0 (verify ~seed:"other" ());
  Alcotest.(check int) "wrong role" 0 (verify ~role:"other" ());
  Alcotest.(check int) "forged hash" 0 (verify ~hash:(Sha256.digest "forged") ())

let weight_zero_never_selected () =
  for i = 0 to 20 do
    let prover, _ = mk_user (Printf.sprintf "u%d" i) in
    let sel = select ~seed_str:"s" ~tau:100.0 ~w:0 ~total:1000 prover in
    Alcotest.(check int) "never selected" 0 sel.j
  done

let expected_committee_size () =
  (* Sum of j over all users should be near tau. *)
  let users = 200 and w = 50 and tau = 30.0 in
  let total = users * w in
  let sum = ref 0 in
  for i = 0 to users - 1 do
    let prover, _ = mk_user (Printf.sprintf "c%d" i) in
    let sel = select ~seed_str:"round-seed" ~tau ~w ~total prover in
    sum := !sum + sel.j
  done;
  (* tau = 30, sigma ~ 5.5; accept +-4 sigma. *)
  Alcotest.(check bool)
    (Printf.sprintf "committee size %d near tau" !sum)
    true
    (!sum > 8 && !sum < 52)

let sybil_splitting_distribution () =
  (* Section 5.1: splitting weight among pseudonyms does not change the
     *distribution* of selected sub-users. Compare empirical means of
     one w=100 user vs 10 w=10 Sybils across many seeds. *)
  let tau = 20.0 and total = 1000 in
  let seeds = 300 in
  let single = ref 0 and split = ref 0 in
  let whole_prover, _ = mk_user "whale" in
  let sybils = List.init 10 (fun i -> fst (mk_user (Printf.sprintf "sybil%d" i))) in
  for s = 0 to seeds - 1 do
    let seed_str = Printf.sprintf "seed%d" s in
    single := !single + (select ~seed_str ~tau ~w:100 ~total whole_prover).j;
    List.iter
      (fun p -> split := !split + (select ~seed_str ~tau ~w:10 ~total p).j)
      sybils
  done;
  let m1 = float_of_int !single /. float_of_int seeds in
  let m2 = float_of_int !split /. float_of_int seeds in
  (* Both means should approximate w * tau / W = 2.0. *)
  Alcotest.(check bool) (Printf.sprintf "single mean %.2f" m1) true (Float.abs (m1 -. 2.0) < 0.4);
  Alcotest.(check bool) (Printf.sprintf "split mean %.2f" m2) true (Float.abs (m2 -. 2.0) < 0.4)

let selection_proportional_to_weight () =
  (* A user with 4x the stake should be selected ~4x as often. *)
  let tau = 10.0 and total = 10_000 in
  let seeds = 400 in
  let small = ref 0 and big = ref 0 in
  let p_small, _ = mk_user "small" and p_big, _ = mk_user "big" in
  for s = 0 to seeds - 1 do
    let seed_str = Printf.sprintf "w%d" s in
    small := !small + (select ~seed_str ~tau ~w:250 ~total p_small).j;
    big := !big + (select ~seed_str ~tau ~w:1000 ~total p_big).j
  done;
  let ratio = float_of_int !big /. float_of_int (max 1 !small) in
  Alcotest.(check bool) (Printf.sprintf "ratio %.2f near 4" ratio) true
    (ratio > 2.5 && ratio < 6.0)

let hash_fraction_range () =
  let d = Drbg.create ~seed:"hf" in
  for _ = 1 to 200 do
    let f = Sortition.hash_fraction (Drbg.random_bytes d 32) in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "fraction out of range"
  done;
  Alcotest.(check (float 0.0)) "all-zero hash" 0.0
    (Sortition.hash_fraction (String.make 32 '\000'))

let priorities () =
  let vrf_hash = Sha256.digest "some-sortition-hash" in
  Alcotest.(check (option string)) "j=0 has no priority" None
    (Sortition.best_priority ~vrf_hash ~j:0);
  let p1 = Option.get (Sortition.best_priority ~vrf_hash ~j:1) in
  let p5 = Option.get (Sortition.best_priority ~vrf_hash ~j:5) in
  (* More sub-users can only raise the best priority. *)
  Alcotest.(check bool) "monotone in j" true (String.compare p5 p1 >= 0);
  Alcotest.(check string) "deterministic" p5
    (Option.get (Sortition.best_priority ~vrf_hash ~j:5))

(* -------------------- Distribution of the sim VRF ------------------ *)

(* Sortition needs each user's VRF output for a role to be a fresh
   uniform draw, independent across users and roles. The two
   definitions below are tested alike: the sim VRF as shipped (a keyed
   64-bit mixer) and the hash-per-user definition it replaced, kept
   here as the reference. *)
let sim_output ~pk ~input = Option.get (Vrf.sim.verify ~pk ~input ~proof:"")
let sha_output ~pk ~input = Sha256.digest_concat [ "simvrf-out"; pk; input ]
let definitions = [ ("sim", sim_output); ("sha256 reference", sha_output) ]
let pks n = Array.init n (fun i -> snd (mk_user (Printf.sprintf "dist%d" i)))

let j_of def ~pk ~input ~w ~p =
  Binomial.select_j ~frac:(Sortition.hash_fraction (def ~pk ~input)) ~w ~p

(* Pearson's chi-square of [counts] (indexed by k = 0..n) against
   [trials] draws of B(n, p). Adjacent k are pooled left to right until
   a bin expects at least 5; the leftover tail joins the last bin.
   Returns the statistic and its degrees of freedom. *)
let chi_square_binomial ~n ~p ~trials (counts : int array) : float * int =
  let bins = ref [] and e = ref 0.0 and o = ref 0 in
  for k = 0 to n do
    e := !e +. (float_of_int trials *. Binomial.pmf ~k ~n ~p);
    o := !o + counts.(k);
    if !e >= 5.0 then begin
      bins := (!o, !e) :: !bins;
      e := 0.0;
      o := 0
    end
  done;
  let bins =
    match !bins with (o', e') :: rest -> (o' + !o, e' +. !e) :: rest | [] -> [ (!o, !e) ]
  in
  ( List.fold_left (fun acc (o, e) -> acc +. (((float_of_int o -. e) ** 2.0) /. e)) 0.0 bins,
    List.length bins - 1 )

(* Upper 0.1 % point of chi-square with [df] degrees of freedom
   (Wilson-Hilferty; z = 3.090). *)
let chi_square_crit df =
  let d = float_of_int df in
  d *. ((1.0 -. (2.0 /. (9.0 *. d)) +. (3.090 *. sqrt (2.0 /. (9.0 *. d)))) ** 3.0)

let check_chi_square name ~n ~p ~trials counts =
  let chi2, df = chi_square_binomial ~n ~p ~trials counts in
  let crit = chi_square_crit df in
  Alcotest.(check bool)
    (Printf.sprintf "%s: chi2 %.3f < %.1f (df %d)" name chi2 crit df)
    true (chi2 < crit)

let committee_sizes_binomial () =
  (* 1,000 equal-stake users of weight 10 and tau = 20: by binomial
     additivity a role's committee size (the sum of j) is
     B(10,000, 0.002), over 1,000 role inputs. *)
  let users = 1_000 and w = 10 and tau = 20.0 and inputs = 1_000 in
  let pks = pks users in
  let n = users * w in
  let p = tau /. float_of_int n in
  List.iter
    (fun (name, def) ->
      let counts = Array.make (n + 1) 0 in
      for r = 1 to inputs do
        let input = Sortition.vrf_input ~seed:"dist-seed" ~role:(Printf.sprintf "role-%d" r) in
        let size = ref 0 in
        Array.iter (fun pk -> size := !size + j_of def ~pk ~input ~w ~p) pks;
        counts.(!size) <- counts.(!size) + 1
      done;
      check_chi_square name ~n ~p ~trials:inputs counts)
    definitions

let weighted_user_j_histogram () =
  (* One user holding 200 of 1,000 units at tau = 20: its j over 2,000
     role inputs is B(200, 0.02). *)
  let w = 200 and total = 1_000 and tau = 20.0 and inputs = 2_000 in
  let pk = (pks 1).(0) in
  let p = tau /. float_of_int total in
  List.iter
    (fun (name, def) ->
      let counts = Array.make (w + 1) 0 in
      for r = 1 to inputs do
        let input = Sortition.vrf_input ~seed:"whale" ~role:(string_of_int r) in
        let j = j_of def ~pk ~input ~w ~p in
        counts.(j) <- counts.(j) + 1
      done;
      check_chi_square name ~n:w ~p ~trials:inputs counts)
    definitions

let role_committees_independent () =
  (* Two roles of one seed select 1-in-10 of 1,000 unit-stake users
     each. Given the sizes a and b, independent draws overlap in a
     hypergeometric count: mean ab/N, variance ab(N-a)(N-b)/(N^2(N-1)).
     Over 200 seeds the total overlap must sit within 4 sd of the sum
     of those means. *)
  let users = 1_000 and seeds = 200 in
  let pks = pks users in
  let p = 0.1 in
  let nf = float_of_int users in
  List.iter
    (fun (name, def) ->
      let observed = ref 0 and mean = ref 0.0 and var = ref 0.0 in
      for s = 1 to seeds do
        let seed = Printf.sprintf "overlap-%d" s in
        let member role pk =
          j_of def ~pk ~input:(Sortition.vrf_input ~seed ~role) ~w:1 ~p > 0
        in
        let a = ref 0 and b = ref 0 in
        Array.iter
          (fun pk ->
            let in_a = member "a" pk and in_b = member "b" pk in
            if in_a then incr a;
            if in_b then incr b;
            if in_a && in_b then incr observed)
          pks;
        let a = float_of_int !a and b = float_of_int !b in
        mean := !mean +. (a *. b /. nf);
        var := !var +. (a *. b *. (nf -. a) *. (nf -. b) /. (nf *. nf *. (nf -. 1.0)))
      done;
      let o = float_of_int !observed in
      Alcotest.(check bool)
        (Printf.sprintf "%s: overlap %d vs %.1f +- 4 * %.1f" name !observed !mean (sqrt !var))
        true
        (Float.abs (o -. !mean) <= 4.0 *. sqrt !var))
    definitions

(* The sim VRF restated from its definition (DESIGN.md, substitution
   3) with no cache: the oracle the cached evaluations must match. *)
let sim_uncached ~pk ~input =
  let mix z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  let user = ref 0L in
  for i = 0 to 3 do
    user := mix (Int64.logxor !user (String.get_int64_le pk (8 * i)))
  done;
  let key = String.get_int64_le (Sha256.digest_concat [ "simvrf-in"; input ]) 0 in
  let x = mix (Int64.logxor !user key) in
  let out = Bytes.create 32 in
  Bytes.set_int64_be out 0 x;
  for i = 1 to 3 do
    Bytes.set_int64_be out (8 * i) (mix (Int64.add x (Int64.mul (Int64.of_int i) 0x9e3779b97f4a7c15L)))
  done;
  Bytes.to_string out

let sim_input_cache_never_stale () =
  (* The sim VRF keeps the keys of its 16 most recent inputs. Whatever
     ran before, every evaluation must match the uncached definition:
     over 20 distinct inputs (more than the cache holds, so entries are
     evicted and come back), nine of them of equal length and differing
     in one byte, for fresh copies of the input (no physical-equality
     shortcut may help), and for the empty input. *)
  let users = Array.init 4 (fun i -> mk_user (Printf.sprintf "cache%d" i)) in
  let pks = Array.map snd users in
  let inputs =
    [ ""; "a"; "b"; "ab"; "ba"; "seed|role-1"; "seed|role-2"; String.make 64 'x' ]
    @ List.init 12 (fun i -> Printf.sprintf "committee|7|bin-%d" (i + 1))
  in
  Alcotest.(check int) "distinct inputs" 20 (List.length (List.sort_uniq compare inputs));
  let expected = List.map (fun input -> (input, Array.map (fun pk -> sim_uncached ~pk ~input) pks)) inputs in
  let check ~context input k =
    let want = Hex.of_string (List.assoc input expected).(k) in
    let copy = Bytes.to_string (Bytes.of_string input) in
    Alcotest.(check string)
      (Printf.sprintf "%S %s, user %d" input context k)
      want
      (Hex.of_string (sim_output ~pk:pks.(k) ~input:copy));
    Alcotest.(check string)
      (Printf.sprintf "prove %S %s, user %d" input context k)
      want
      (Hex.of_string (fst ((fst users.(k)).prove input)))
  in
  (* Every ordered pair: one evaluation of [before], then [input]. *)
  List.iter
    (fun before ->
      List.iter
        (fun input ->
          Array.iteri
            (fun k _ ->
              ignore (sim_output ~pk:pks.(0) ~input:before);
              check ~context:(Printf.sprintf "after %S" before) input k)
            pks)
        inputs)
    inputs;
  (* Round-robin walks: over all 20 inputs every lookup evicts, over
     the first 16 every lookup after the first lap hits, and the walk
     back reads the entries in the opposite order. *)
  let walk ~context order =
    for lap = 1 to 3 do
      List.iter
        (fun input ->
          Array.iteri (fun k _ -> check ~context:(Printf.sprintf "%s, lap %d" context lap) input k) pks)
        order
    done
  in
  walk ~context:"walking 20" inputs;
  walk ~context:"walking 16" (List.filteri (fun i _ -> i < 16) inputs);
  walk ~context:"walking back" (List.rev inputs)

let suite =
  [
    ( "sortition",
      [
        t "select/verify roundtrip" roundtrip;
        t "verify rejects wrong context" verify_rejects_wrong_context;
        t "zero weight never selected" weight_zero_never_selected;
        t "expected committee size" expected_committee_size;
        t "sybil splitting invariance" sybil_splitting_distribution;
        t "selection proportional to weight" selection_proportional_to_weight;
        t "hash fraction in [0,1)" hash_fraction_range;
        t "proposer priorities" priorities;
        t "sim VRF: committee sizes are binomial" committee_sizes_binomial;
        t "sim VRF: one weighted user's j is binomial" weighted_user_j_histogram;
        t "sim VRF: two roles' committees are independent" role_committees_independent;
        t "sim VRF: input cache never stale" sim_input_cache_never_stale;
      ] );
  ]
