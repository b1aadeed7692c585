(* The harness's verdict as one Alcotest check: a run passes when
   [Harness.violations] reports nothing. *)

let no_violations ?(ctx = "run") (r : Algorand_core.Harness.result) =
  Alcotest.(check (list string))
    (ctx ^ ": no violations") []
    (List.map
       (Format.asprintf "%a" Algorand_core.Verdict.pp_violation)
       (Algorand_core.Harness.violations r))
