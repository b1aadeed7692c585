(* Invariant audits evaluated after every world transition (and, for
   bounded liveness, at terminal states). These are the machine-checked
   versions of the paper's claims:

   - agreement (Theorem 1 / section 7.5): no two honest nodes conclude
     BA* with different block hashes for the same round;
   - no conflicting finals (section 5.2): at most one FINAL value;
   - certificate soundness (section 8.3): every decided node can
     assemble a certificate that re-validates under Algorithm 6 and
     crosses the vote threshold - audited with Core.Certificate, the
     same code a light client would run;
   - certificate uniqueness: no two valid certificates for different
     values in one round;
   - bounded liveness: once the schedule is exhausted (all messages
     delivered, timers fired), every node has decided within MaxSteps.

   A violation carries enough detail to read the counterexample without
   re-running it; the schedule that produced it is reported (and
   shrunk) by the caller. *)

module Vote = Algorand_ba.Vote
module Ba_star = Algorand_ba.Ba_star
module Certificate = Algorand_core.Certificate
module Verdict = Algorand_core.Verdict

(* --------------------------- agreement ---------------------------- *)

let agreement (w : World.t) : Verdict.violation list =
  if List.length (Verdict.tally (World.decisions w)).hashes <= 1 then []
  else
    let decided =
      List.concat
        (List.mapi
           (fun i d ->
             match d with
             | Some (v, _) -> [ Printf.sprintf "n%d=%s" i (World.value_tag v) ]
             | None -> [])
           (Array.to_list (World.decisions w)))
    in
    [
      {
        Verdict.invariant = "agreement";
        detail = "conflicting decisions: " ^ String.concat ", " decided;
      };
    ]

let no_conflicting_finals (w : World.t) : Verdict.violation list =
  match (Verdict.tally (World.decisions w)).finals with
  | ([] | [ _ ]) -> []
  | finals ->
    [
      {
        Verdict.invariant = "final-uniqueness";
        detail =
          Printf.sprintf "two different FINAL values: %s"
            (String.concat ", " (List.map World.value_tag finals));
      };
    ]

(* -------------------------- certificates -------------------------- *)

let dedup_by_voter (votes : Vote.t list) : Vote.t list =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (v : Vote.t) ->
      if Hashtbl.mem seen v.voter_pk then false
      else begin
        Hashtbl.replace seen v.voter_pk ();
        true
      end)
    votes

(* Assemble node [i]'s certificate for its decision, exactly as the
   simulator's Node does: the last BinaryBA* step's votes for the
   decided value. *)
let certificate_of (w : World.t) (i : int) : (Certificate.t * bool) option =
  match (World.decisions w).(i) with
  | None -> None
  | Some (value, final) ->
    let m = (World.machines w).(i) in
    let step = Vote.Bin (Ba_star.bin_steps m) in
    let votes = dedup_by_voter (Ba_star.certificate_votes m) in
    Some (Certificate.make ~round:(World.config w).round ~step ~block_hash:value ~votes, final)

let certificate_soundness (w : World.t) : Verdict.violation list =
  let ctx = World.validation_ctx w in
  let params = (World.config w).params in
  let acc = ref [] in
  Array.iteri
    (fun i d ->
      match d with
      | None -> ()
      | Some (_, _) -> (
        match certificate_of w i with
        | None -> ()
        | Some (cert, _) -> (
          match Certificate.validate ~params ~ctx cert with
          | Ok () -> ()
          | Error e ->
            acc :=
              {
                Verdict.invariant = "certificate";
                detail =
                  Format.asprintf "n%d decided %s but its certificate fails: %a" i
                    (World.value_tag cert.block_hash) Certificate.pp_error e;
              }
              :: !acc)))
    (World.decisions w);
  List.rev !acc

let certificate_uniqueness (w : World.t) : Verdict.violation list =
  let ctx = World.validation_ctx w in
  let params = (World.config w).params in
  let valid_values = ref [] in
  Array.iteri
    (fun i _ ->
      match certificate_of w i with
      | Some (cert, _) when Certificate.validate ~params ~ctx cert = Ok () ->
        if
          not
            (List.exists (fun (v, _) -> String.equal v cert.block_hash) !valid_values)
        then valid_values := (cert.block_hash, i) :: !valid_values
      | _ -> ())
    (World.machines w);
  match !valid_values with
  | (_ :: _ :: _) as vs ->
    [
      {
        Verdict.invariant = "certificate-uniqueness";
        detail =
          Printf.sprintf "valid certificates for different values: %s"
            (String.concat ", "
               (List.map
                  (fun (v, i) -> Printf.sprintf "n%d certifies %s" i (World.value_tag v))
                  (List.rev vs)));
      };
    ]
  | _ -> []

(* ----------------------------- liveness --------------------------- *)

let bounded_liveness (w : World.t) : Verdict.violation list =
  let acc = ref [] in
  Array.iteri
    (fun i d ->
      if (World.hung w).(i) then
        acc :=
          {
            Verdict.invariant = "liveness";
            detail = Printf.sprintf "n%d hung (exceeded MaxSteps)" i;
          }
          :: !acc
      else if d = None then
        acc :=
          {
            Verdict.invariant = "liveness";
            detail = Printf.sprintf "n%d undecided at schedule exhaustion" i;
          }
          :: !acc)
    (World.decisions w);
  List.rev !acc

(* ---------------------------- entry points ------------------------ *)

let check_step (w : World.t) : Verdict.violation list =
  agreement w @ no_conflicting_finals w @ certificate_soundness w
  @ certificate_uniqueness w

let check_leaf (w : World.t) : Verdict.violation list = check_step w @ bounded_liveness w
