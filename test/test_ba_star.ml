(* BA* protocol tests: a deterministic in-memory harness drives a
   population of state machines with synchronous delivery and explicit
   timeout control, covering the happy path, the split-vote fallback to
   the empty block, early votes, stale timers, and the MaxSteps hang. *)

open Algorand_crypto
open Algorand_ba
module Identity = Algorand_core.Identity

let t name f = Alcotest.test_case name `Quick f

let params =
  { Params.paper with tau_step = 40.0; tau_final = 60.0; max_steps = 24 }

let lookback_params = { params with ba_variant = Params.Look_back }

(* ------------------------------------------------------------------ *)
(* A tiny synchronous cluster of BA* machines.                         *)
(* ------------------------------------------------------------------ *)

type cluster = {
  machines : Ba_star.t array;
  timers : int option array;  (** latest timer token per machine *)
  decided : (string * bool) option array;
  hung : bool array;
  mutable queue : (int * Ba_star.action) list;  (** pending (origin, action) *)
  drop : (src:int -> dst:int -> Vote.t -> bool) ref;  (** message filter *)
}

let make_cluster ?(params = params) ?(n = 8) ?(round = 1) ?(seed = "ba-seed")
    ?(weight = 100) () : cluster =
  let sig_scheme = Signature_scheme.sim and vrf_scheme = Vrf.sim in
  let users =
    Array.init n (fun i ->
        Identity.generate ~sig_scheme ~vrf_scheme ~seed:(Printf.sprintf "ba%d" i))
  in
  let total_weight = weight * n in
  let prev_hash = String.make 32 'P' in
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
      tau_of_step = (function Vote.Final -> params.tau_final | _ -> params.tau_step);
    }
  in
  let empty_hash = Sha256.digest "the-empty-block" in
  let machine i =
    let ctx : Ba_star.ctx =
      {
        params;
        round;
        empty_hash;
        my_votes =
          (fun ~step ~value ->
            match
              Vote.make ~signer:users.(i).signer ~prover:users.(i).prover
                ~pk:users.(i).pk ~seed
                ~tau:(match step with Vote.Final -> params.tau_final | _ -> params.tau_step)
                ~w:weight ~total_weight ~round ~step ~prev_hash ~value
            with
            | Some v -> [ v ]
            | None -> []);
        validate = (fun v -> Vote.validate vctx v);
      }
    in
    Ba_star.create ctx
  in
  {
    machines = Array.init n machine;
    timers = Array.make n None;
    decided = Array.make n None;
    hung = Array.make n false;
    queue = [];
    drop = ref (fun ~src:_ ~dst:_ _ -> false);
  }

let empty_hash_of (_c : cluster) = Sha256.digest "the-empty-block"

(* Process queued actions until quiescent (synchronous delivery). *)
let rec settle (c : cluster) : unit =
  match c.queue with
  | [] -> ()
  | (origin, action) :: rest ->
    c.queue <- rest;
    (match action with
    | Ba_star.Broadcast v ->
      Array.iteri
        (fun dst m ->
          if not (!(c.drop) ~src:origin ~dst v) then begin
            let actions = Ba_star.handle m (Ba_star.Deliver v) in
            c.queue <- c.queue @ List.map (fun a -> (dst, a)) actions
          end)
        c.machines
    | Ba_star.Set_timer { token; delay = _ } -> c.timers.(origin) <- Some token
    | Ba_star.Bin_decided _ -> ()
    | Ba_star.Decided { value; final; _ } -> c.decided.(origin) <- Some (value, final)
    | Ba_star.Hang -> c.hung.(origin) <- true);
    settle c

let start (c : cluster) ~(inputs : int -> string) : unit =
  Array.iteri
    (fun i m ->
      let actions = Ba_star.handle m (Ba_star.Start (inputs i)) in
      c.queue <- c.queue @ List.map (fun a -> (i, a)) actions)
    c.machines;
  settle c

(* Fire every machine's latest timer (simulating a timeout round). *)
let fire_timers (c : cluster) : unit =
  Array.iteri
    (fun i m ->
      match c.timers.(i) with
      | Some token ->
        c.timers.(i) <- None;
        let actions = Ba_star.handle m (Ba_star.Timer token) in
        c.queue <- c.queue @ List.map (fun a -> (i, a)) actions
      | None -> ())
    c.machines;
  settle c

let run_to_completion ?(max_timeout_rounds = 40) (c : cluster) : unit =
  let rec go k =
    if k > max_timeout_rounds then ()
    else if Array.for_all (fun d -> d <> None) c.decided then ()
    else if Array.exists (fun h -> h) c.hung then ()
    else begin
      fire_timers c;
      go (k + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Tests.                                                              *)
(* ------------------------------------------------------------------ *)

let block_hash = Sha256.digest "proposed-block"

let happy_path () =
  let c = make_cluster () in
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c;
  Array.iteri
    (fun i d ->
      match d with
      | Some (v, final) ->
        Alcotest.(check string) (Printf.sprintf "machine %d value" i)
          (Hex.of_string block_hash) (Hex.of_string v);
        Alcotest.(check bool) (Printf.sprintf "machine %d final" i) true final
      | None -> Alcotest.failf "machine %d undecided" i)
    c.decided;
  (* Consensus in the very first BinaryBA* step. *)
  Array.iter
    (fun m -> Alcotest.(check int) "bin steps" 1 (Ba_star.bin_steps m))
    c.machines

let split_inputs_fall_back_to_empty () =
  (* Half the users got block A, half block B (a dishonest
     highest-priority proposer): Reduction must converge on the empty
     block, never on A or B. *)
  let c = make_cluster () in
  let other = Sha256.digest "other-block" in
  start c ~inputs:(fun i -> if i mod 2 = 0 then block_hash else other);
  run_to_completion c;
  let empty = empty_hash_of c in
  Array.iteri
    (fun i d ->
      match d with
      | Some (v, _) ->
        Alcotest.(check string) (Printf.sprintf "machine %d got empty" i)
          (Hex.of_string empty) (Hex.of_string v)
      | None -> Alcotest.failf "machine %d undecided" i)
    c.decided

let no_communication_hangs () =
  (* All votes dropped: every machine times out through MaxSteps and
     hangs rather than deciding (liveness lost, safety kept). *)
  let c = make_cluster ~n:4 () in
  (c.drop := fun ~src ~dst _ -> src <> dst);
  (* only own votes *)
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c ~max_timeout_rounds:200;
  Array.iter (fun d -> Alcotest.(check bool) "undecided" true (d = None)) c.decided;
  Alcotest.(check bool) "hung" true (Array.for_all (fun h -> h) c.hung)

let early_votes_count () =
  (* Machine 0 starts late: all other machines run first and their
     votes arrive before machine 0's Start. It must still decide
     immediately from buffered counters. *)
  let c = make_cluster () in
  (* Start machines 1..n-1 first. *)
  Array.iteri
    (fun i m ->
      if i > 0 then begin
        let actions = Ba_star.handle m (Ba_star.Start block_hash) in
        c.queue <- c.queue @ List.map (fun a -> (i, a)) actions
      end)
    c.machines;
  settle c;
  (* Now start machine 0; votes were delivered to it during settle. *)
  let actions = Ba_star.handle c.machines.(0) (Ba_star.Start block_hash) in
  c.queue <- c.queue @ List.map (fun a -> (0, a)) actions;
  settle c;
  run_to_completion c;
  (match c.decided.(0) with
  | Some (v, _) ->
    Alcotest.(check string) "late starter agrees" (Hex.of_string block_hash)
      (Hex.of_string v)
  | None -> Alcotest.fail "late starter undecided")

let stale_timer_ignored () =
  let c = make_cluster ~n:4 () in
  (* Drop everything so machines sit waiting in reduction one. *)
  (c.drop := fun ~src:_ ~dst:_ _ -> true);
  start c ~inputs:(fun _ -> block_hash);
  let m = c.machines.(0) in
  (* A long-stale token does nothing. *)
  let actions = Ba_star.handle m (Ba_star.Timer (-5)) in
  Alcotest.(check int) "no actions" 0 (List.length actions);
  (* Start in non-idle state is an error. *)
  Alcotest.check_raises "double start" (Invalid_argument
    "Ba_star.handle: Start in non-idle state") (fun () ->
      ignore (Ba_star.handle m (Ba_star.Start block_hash)))

let wrong_round_votes_ignored () =
  let c = make_cluster ~round:1 () in
  let c2 = make_cluster ~round:2 () in
  (* Generate a valid round-2 vote and feed it to a round-1 machine. *)
  start c2 ~inputs:(fun _ -> block_hash);
  (* Grab any vote from cluster 2's logs via a fresh broadcast: easier
     to simply synthesize using the machinery: *)
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c;
  (* The round-1 cluster decided on its own; feeding it a round-2 vote
     afterwards must produce no actions. *)
  let m = c.machines.(0) in
  let fake : Vote.t =
    {
      round = 2;
      step = Vote.Bin 1;
      voter_pk = "pk";
      sorthash = "h";
      sortproof = "";
      prev_hash = String.make 32 'P';
      value = block_hash;
      signature = "s";
    }
  in
  Alcotest.(check int) "ignored" 0 (List.length (Ba_star.handle m (Ba_star.Deliver fake)))

let certificate_votes_present () =
  let c = make_cluster () in
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c;
  let m = c.machines.(0) in
  let votes = Ba_star.certificate_votes m in
  Alcotest.(check bool) "has votes" true (List.length votes > 0);
  List.iter
    (fun (v : Vote.t) ->
      Alcotest.(check string) "all for decided value" (Hex.of_string block_hash)
        (Hex.of_string v.value))
    votes;
  let fvotes = Ba_star.final_certificate_votes m in
  Alcotest.(check bool) "has final votes" true (List.length fvotes > 0)

(* 2 of 8 users (25% < 1/3) start from a different value; they then
   follow the protocol, pushing that value wherever their votes count.
   Returns the value each machine decided. *)
let run_adversarial_minority ?params ?weight ~seed () : string array =
  let c = make_cluster ?params ?weight ~seed ~n:8 () in
  let other = Sha256.digest "evil-block" in
  start c ~inputs:(fun i -> if i < 2 then other else block_hash);
  run_to_completion c;
  Array.mapi
    (fun i d ->
      match d with
      | Some (v, _) ->
        if String.equal v other then
          Alcotest.failf "seed %s: machine %d decided the adversaries' block" seed i;
        v
      | None -> Alcotest.failf "seed %s: machine %d undecided" seed i)
    c.decided

let adversarial_minority_cannot_flip () =
  (* Safety on every draw: all machines agree, and never on the
     adversaries' block. Which of the honest block and the empty block
     wins is up to the draw: at tau_step = 40 the honest 75 % of the
     stake must carry more than 68.5 % of the expected committee in
     reduction step one on its own, which B(600, 0.05) does only about
     60 % of the time; otherwise everyone agrees on the empty block. *)
  for s = 1 to 20 do
    let seed = Printf.sprintf "ba-flip-%d" s in
    let decided = run_adversarial_minority ~seed () in
    Array.iteri
      (fun i v ->
        Alcotest.(check string)
          (Printf.sprintf "seed %s: machine %d agrees with machine 0" seed i)
          (Hex.of_string decided.(0)) (Hex.of_string v))
      decided
  done;
  (* The honest block itself is only guaranteed where the honest
     committee clears the threshold with overwhelming probability:
     weight 1,500 per user and tau_step = 6,000 (p = 1/2), where the
     honest reduction-one weight B(9000, 1/2) falls to the 4,110
     threshold with probability 1.0e-16 (computed below, asserted
     < 1e-12). *)
  let weight = 1_500 in
  let big = { params with tau_step = 6_000.0; tau_final = 6_000.0 } in
  let threshold = int_of_float (Params.step_threshold big) in
  let p_fail =
    Algorand_sortition.Binomial.cdf ~k:threshold ~n:(6 * weight)
      ~p:(big.tau_step /. float_of_int (8 * weight))
  in
  Alcotest.(check bool) (Printf.sprintf "failure bound %g < 1e-12" p_fail) true (p_fail < 1e-12);
  let decided = run_adversarial_minority ~params:big ~weight ~seed:"ba-flip-big" () in
  Array.iteri
    (fun i v ->
      Alcotest.(check string) (Printf.sprintf "machine %d" i) (Hex.of_string block_hash)
        (Hex.of_string v))
    decided

let next_three_step_votes_sent () =
  (* After returning consensus, committee members vote the decided
     value for the next three steps (Algorithm 8's "carry forward"). *)
  let c = make_cluster () in
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c;
  let m = c.machines.(0) in
  Alcotest.(check int) "decided at bin step 1" 1 (Ba_star.bin_steps m);
  (* Every machine logged votes for bin steps 2..4 even though nobody
     entered them: they are the carry-forward votes. *)
  List.iter
    (fun s ->
      let votes =
        List.filter
          (fun (v : Vote.t) -> String.equal v.value block_hash)
          (Ba_star.logged_votes m (Vote.Bin s))
      in
      Alcotest.(check bool)
        (Printf.sprintf "carry votes at step %d" s)
        true
        (List.length votes > 0))
    [ 2; 3; 4 ]

let coin_branch_reached_on_timeouts () =
  (* Drop all committee votes: the machines walk branch A (timeout ->
     block_hash), branch B (timeout -> empty), branch C (timeout ->
     coin). With no votes observed the coin is 0, so the cycle repeats
     with r = block_hash. After 5 timeout rounds every machine must be
     waiting in bin step 4 (one full period + one step). *)
  let c = make_cluster ~n:4 () in
  (c.drop := fun ~src ~dst _ -> src <> dst);
  start c ~inputs:(fun _ -> block_hash);
  (* reduction-1, reduction-2, bin 1, bin 2, bin 3 *)
  for _ = 1 to 5 do
    fire_timers c
  done;
  Array.iter
    (fun m ->
      match Ba_star.phase m with
      | Ba_star.Bin_wait 4 -> ()
      | Ba_star.Bin_wait s -> Alcotest.failf "expected bin step 4, got %d" s
      | _ -> Alcotest.fail "expected Bin_wait")
    c.machines

let phases_progress () =
  let c = make_cluster ~n:4 () in
  (c.drop := fun ~src ~dst _ -> src <> dst);
  Array.iter
    (fun m -> Alcotest.(check bool) "idle" true (Ba_star.phase m = Ba_star.Idle))
    c.machines;
  start c ~inputs:(fun _ -> block_hash);
  Array.iter
    (fun m ->
      Alcotest.(check bool) "reduction one" true
        (Ba_star.phase m = Ba_star.Reduction_one_wait))
    c.machines;
  fire_timers c;
  Array.iter
    (fun m ->
      Alcotest.(check bool) "reduction two" true
        (Ba_star.phase m = Ba_star.Reduction_two_wait))
    c.machines

let tentative_when_final_votes_missing () =
  (* Deliver everything except Final-step votes: consensus is reached
     in bin step 1 but cannot be classified final. *)
  let c = make_cluster () in
  (c.drop := fun ~src:_ ~dst:_ (v : Vote.t) -> v.step = Vote.Final);
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c;
  Array.iteri
    (fun i d ->
      match d with
      | Some (v, final) ->
        Alcotest.(check string) "agreed value" (Hex.of_string block_hash) (Hex.of_string v);
        Alcotest.(check bool) (Printf.sprintf "machine %d tentative" i) false final
      | None -> Alcotest.failf "machine %d undecided" i)
    c.decided

let equivocating_votes_counted_once () =
  (* A byzantine voter whose my_votes returns two conflicting votes:
     honest counters must count at most one (the first) per pk. *)
  let c = make_cluster ~n:8 () in
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c;
  (* All decided the same value despite any duplicates. *)
  let values =
    Array.to_list c.decided |> List.filter_map (fun d -> Option.map fst d)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "single decided value" 1 (List.length values)

(* ------------------ section 9 look-back variant ------------------- *)

let lookback_happy_path () =
  let c = make_cluster ~params:lookback_params () in
  start c ~inputs:(fun _ -> block_hash);
  run_to_completion c;
  Array.iteri
    (fun i d ->
      match d with
      | Some (v, final) ->
        Alcotest.(check string) (Printf.sprintf "machine %d value" i)
          (Hex.of_string block_hash) (Hex.of_string v);
        Alcotest.(check bool) "final" true final
      | None -> Alcotest.failf "machine %d undecided" i)
    c.decided;
  (* The implementation variant sends no carry-forward votes. *)
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "no carry votes at step %d" s)
        0
        (List.length (Ba_star.logged_votes c.machines.(0) (Vote.Bin s))))
    [ 2; 3; 4 ]

let variants_decide_identically () =
  (* Across a matrix of input splits, the two section 9 formulations
     must reach the same decision values. *)
  List.iter
    (fun split ->
      let other = Sha256.digest "other-block" in
      let inputs i = if i mod split = 0 then block_hash else other in
      let run params =
        let c = make_cluster ~params () in
        start c ~inputs;
        run_to_completion c;
        Array.map (Option.map fst) c.decided
      in
      let a = run params and b = run lookback_params in
      Array.iteri
        (fun i v ->
          Alcotest.(check (option string))
            (Printf.sprintf "split %d machine %d" split i)
            (Option.map Hex.of_string v)
            (Option.map Hex.of_string b.(i)))
        a)
    [ 1; 2; 3 ]

let lookback_rescues_laggard () =
  (* Machine 0 misses every step-1 vote while the rest decide in step 1
     (and, in look-back mode, send no carry votes). When the withheld
     votes finally arrive, machine 0's step-1 counter crosses the
     threshold, and the look-back at its next timeout finds it. *)
  let c = make_cluster ~params:lookback_params () in
  let held = ref [] in
  (c.drop :=
     fun ~src:_ ~dst (v : Vote.t) ->
       if dst = 0 && Vote.equal_step v.step (Vote.Bin 1) then begin
         held := v :: !held;
         true
       end
       else false);
  start c ~inputs:(fun _ -> block_hash);
  (* Everyone but machine 0 decided. *)
  Array.iteri
    (fun i d -> if i > 0 && d = None then Alcotest.failf "machine %d undecided" i)
    c.decided;
  Alcotest.(check bool) "laggard undecided" true (c.decided.(0) = None);
  (* Deliver the withheld step-1 votes late; machine 0 is already past
     step 1 so they only fill the counter. *)
  (c.drop := fun ~src:_ ~dst:_ _ -> false);
  List.iter
    (fun v ->
      c.queue <- c.queue @ List.map (fun a -> (0, a)) (Ba_star.handle c.machines.(0) (Ba_star.Deliver v)))
    (List.rev !held);
  settle c;
  (* Next timeout triggers the look-back. *)
  run_to_completion c;
  match c.decided.(0) with
  | Some (v, _) ->
    Alcotest.(check string) "laggard decided via look-back" (Hex.of_string block_hash)
      (Hex.of_string v)
  | None -> Alcotest.fail "laggard still undecided"

let suite =
  [
    ( "ba_star",
      [
        t "happy path: final in one step" happy_path;
        t "look-back variant: happy path" lookback_happy_path;
        t "variants decide identically" variants_decide_identically;
        t "look-back rescues a laggard" lookback_rescues_laggard;
        t "carry-forward votes for next three steps" next_three_step_votes_sent;
        t "coin branch reached on timeouts" coin_branch_reached_on_timeouts;
        t "phases progress" phases_progress;
        t "tentative without final votes" tentative_when_final_votes_missing;
        t "equivocating votes counted once" equivocating_votes_counted_once;
        t "split inputs -> empty block" split_inputs_fall_back_to_empty;
        t "no communication -> hang, not decide" no_communication_hangs;
        t "early votes count" early_votes_count;
        t "stale timers and double start" stale_timer_ignored;
        t "wrong round votes ignored" wrong_round_votes_ignored;
        t "certificate votes extracted" certificate_votes_present;
        t "25% adversarial inputs cannot flip" adversarial_minority_cannot_flip;
      ] );
  ]
