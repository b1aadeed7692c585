(* Counterexample shrinking: a violating schedule found by DFS or
   fuzzing is typically padded with deliveries that played no part in
   the violation (votes to nodes that never disagreed, late messages to
   already-decided machines, whole timeout rounds). Greedy delta
   debugging against a replay oracle strips them: repeatedly try
   deleting each event, keep any deletion under which the *same*
   invariant still fires on replay, and stop at a fixpoint - the result
   is 1-minimal (no single event can be dropped). Replay matches
   deliveries by content, so renumbering after a deletion is harmless;
   the final trace is the deterministic reproducer test_check.ml
   re-executes byte-for-byte. *)

(* Does replaying [trace] against a fresh world reproduce a violation
   of [invariant]? *)
let reproduces ~(config : World.config) ~(invariant : string)
    (trace : World.trace_event list) : bool =
  let w = World.create config in
  World.start w;
  let outcome = Schedule.run_replay w trace in
  List.exists
    (fun (r : Schedule.report) -> String.equal r.violation.invariant invariant)
    outcome.violations

let drop_nth (lst : 'a list) (n : int) : 'a list =
  List.filteri (fun i _ -> i <> n) lst

(* One pass of single-element deletions, last element first (later
   elements are most often dead weight: everything after the violation
   already got truncated by the recorder). Returns the shrunk sequence
   and whether anything was removed. *)
let delete_pass ~(keep : 'a list -> bool) (items : 'a list) : 'a list * bool =
  let changed = ref false in
  let rec go i tr =
    if i < 0 then tr
    else begin
      let cand = drop_nth tr i in
      if keep cand then begin
        changed := true;
        go (i - 1) cand
      end
      else go (i - 1) tr
    end
  in
  let tr = go (List.length items - 1) items in
  (tr, !changed)

(* Generic greedy delta debugging: repeated deletion passes until no
   single deletion preserves [keep] (1-minimal). Schedule traces and
   the wire fuzzer's byte sequences both shrink through this. *)
let minimize_seq ?(max_passes = 16) ~(keep : 'a list -> bool) (items : 'a list) :
    'a list =
  if not (keep items) then items
  else begin
    let rec fixpoint tr passes =
      if passes >= max_passes then tr
      else begin
        let tr', changed = delete_pass ~keep tr in
        if changed then fixpoint tr' (passes + 1) else tr'
      end
    in
    fixpoint items 0
  end

let minimize ?max_passes ~(config : World.config) ~(invariant : string)
    (trace : World.trace_event list) : World.trace_event list =
  minimize_seq ?max_passes ~keep:(reproduces ~config ~invariant) trace

(* Render the minimal reproducer: the replayable delivery script plus
   the violation it ends in. *)
let render ~(invariant : Algorand_core.Verdict.violation) (trace : World.trace_event list) :
    string =
  Printf.sprintf "%s\n-- %d events -->\n%s"
    (Format.asprintf "%a" Algorand_core.Verdict.pp_violation invariant)
    (List.length trace) (World.render_trace trace)
