(* The adversary gallery: named attacks from the literature replayed
   against the small-world model checker, each with its own audit.

   Two entries so far, both aimed at claims the paper makes in passing
   rather than proves:

   - "undecidable messages" (Conti, Kumar, Lal, Ruj - A Survey on
     Security and Privacy Issues of Bitcoin, and its Algorand
     follow-ups): an honest laggard is fed only valid, signed,
     sortition-checked votes - but always for steps it has already
     timed out of. The node must absorb streams of unserviceable
     protocol traffic across period boundaries without wedging or
     forking.

   - adaptive corruption (Wang et al.): the adversary corrupts a
     committee member the instant its vote reveals its VRF seat. The
     section 11 defense is ephemeral keys: the revealing step's key is
     erased before the adversary arrives, so corruption only buys
     *future* steps. The gallery drives both worlds - erasure on (the
     paper's model: only future steps forgeable) and erasure off (the
     counterfactual: retro-equivocation on the revealing step) - and
     audits safety in each. *)

module Vote = Algorand_ba.Vote
module Rng = Algorand_sim.Rng

type undecidable_report = {
  violations : Algorand_core.Verdict.violation list;
  stale_deliveries : int;  (** messages delivered past their step horizon *)
  decided : int;
  hung : int;
}

type adaptive_report = {
  violations : Algorand_core.Verdict.violation list;
  corrupted : int;  (** nodes corrupted on VRF reveal *)
  forged : int;  (** equivocating votes the adversary could sign *)
  retro_forged : int;
      (** forgeries for the *revealing* step itself - possible only
          with erasure off; must be 0 under the section 11 model *)
  decided : int;
}

let append_violations (acc : Algorand_core.Verdict.violation list ref) (w : World.t) : unit =
  match Invariant.check_step w with [] -> () | vs -> acc := !acc @ vs

(* Backstop identical to Schedule's: BA* hangs by MaxSteps on its own. *)
let timer_cap (config : World.config) : int = (config.params.max_steps * 4) + 16

(* Conti et al.: withhold all traffic to [laggard] while the rest of
   the cluster runs ahead (deliveries in send order, timeouts at
   quiescence), then release the backlog only once nothing fresh is
   left - every released message is by then for a step the laggard
   already left. Repeat until every node decided or hung. *)
let undecidable_run ?(config = World.default_config) ~(laggard : int) () :
    undecidable_report =
  let w = World.create config in
  World.start w;
  let violations = ref [] in
  let stale = ref 0 in
  let steps = ref 0 in
  let cap = (config.nodes * config.params.max_steps * 16) + 256 in
  let continue = ref true in
  while !continue && !violations = [] && (not (World.all_done w)) && !steps < cap do
    incr steps;
    let fresh =
      List.filter (fun (p : World.pending) -> p.dst <> laggard) (World.pending w)
    in
    match fresh with
    | p :: _ ->
      World.deliver w p;
      append_violations violations w
    | [] ->
      if World.timers_armed w && World.timer_rounds w < timer_cap config then begin
        (* Snapshot the withheld backlog, then let the timeout round
           run: the laggard leaves its current step, so exactly that
           backlog goes stale. Release it - valid, signed,
           sortition-checked, and for steps the laggard just timed out
           of. Traffic generated by the timer round itself stays
           withheld until the next round. *)
        let backlog =
          List.filter (fun (p : World.pending) -> p.dst = laggard) (World.pending w)
        in
        World.fire_timers w;
        append_violations violations w;
        List.iter
          (fun (p : World.pending) ->
            if !violations = [] && World.deliver_seq w p.seq then begin
              incr stale;
              append_violations violations w
            end)
          backlog
      end
      else begin
        match World.pending w with
        | p :: _ ->
          (* Timed all the way out: drain whatever is still in flight. *)
          incr stale;
          World.deliver w p;
          append_violations violations w
        | [] -> continue := false
      end
  done;
  let decisions = World.decisions w in
  {
    violations = !violations;
    stale_deliveries = !stale;
    decided = Array.fold_left (fun n d -> if d <> None then n + 1 else n) 0 decisions;
    hung = Array.fold_left (fun n h -> if h then n + 1 else n) 0 (World.hung w);
  }

let next_step : Vote.step -> Vote.step option = function
  | Vote.Reduction_one -> Some Vote.Reduction_two
  | Vote.Reduction_two -> Some (Vote.Bin 1)
  | Vote.Bin k -> Some (Vote.Bin (k + 1))
  | Vote.Final -> None

(* Wang-style adaptive corruption over a seeded random schedule. Every
   delivery is an observation: the vote on the wire reveals its
   sender's committee seat, and the adversary corrupts the sender on
   first sight (up to [budget] nodes). A corrupted node immediately
   tries to equivocate - with [erasure] on, only for the *next* step
   (the revealing step's ephemeral key is gone); with it off, for the
   revealing step itself. [World.forge_vote] runs real sortition, so
   a forgery only lands when the corrupted node actually holds a seat
   for the target step. *)
let adaptive_run ?(config = { World.default_config with scenario = World.Split })
    ~(seed : int) ~(budget : int) ~(erasure : bool) () : adaptive_report =
  let w = World.create config in
  World.start w;
  let rng = Rng.create seed in
  let violations = ref [] in
  let corrupted = Hashtbl.create 4 in
  let forged = ref 0 and retro = ref 0 in
  let steps = ref 0 in
  let cap = (config.nodes * config.params.max_steps * 16) + 256 in
  let continue = ref true in
  while !continue && !violations = [] && (not (World.all_done w)) && !steps < cap do
    incr steps;
    match World.pending w with
    | [] ->
      if World.timers_armed w && World.timer_rounds w < timer_cap config then begin
        World.fire_timers w;
        append_violations violations w
      end
      else continue := false
    | ps ->
      let p = List.nth ps (Rng.int rng (List.length ps)) in
      let v = p.World.vote in
      if Hashtbl.length corrupted < budget && not (Hashtbl.mem corrupted p.World.src)
      then begin
        Hashtbl.replace corrupted p.World.src ();
        let conflicting =
          if String.equal v.Vote.value World.block_a then World.block_b
          else World.block_a
        in
        let target = if erasure then next_step v.Vote.step else Some v.Vote.step in
        match target with
        | Some s -> (
          match World.forge_vote w ~voter:p.World.src ~step:s ~value:conflicting with
          | Some fv ->
            incr forged;
            if Vote.equal_step s v.Vote.step then incr retro;
            World.inject w ~src:p.World.src fv
          | None -> ())
        | None -> ()
      end;
      World.deliver w p;
      append_violations violations w
  done;
  let decisions = World.decisions w in
  {
    violations = !violations;
    corrupted = Hashtbl.length corrupted;
    forged = !forged;
    retro_forged = !retro;
    decided = Array.fold_left (fun n d -> if d <> None then n + 1 else n) 0 decisions;
  }
