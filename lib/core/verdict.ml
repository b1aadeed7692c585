(* One violation type and one per-height tally, shared by the model
   checker's world, the harness, and the population engine. *)

type violation = { invariant : string; detail : string }

let pp_violation fmt (v : violation) = Format.fprintf fmt "%s: %s" v.invariant v.detail

type tally = { hashes : (string * int) list; finals : string list; missing : int }

let tally (column : (string * bool) option array) : tally =
  let hashes = ref [] and finals = ref [] and missing = ref 0 in
  Array.iter
    (function
      | None -> incr missing
      | Some (hash, final) ->
        let held = Option.value ~default:0 (List.assoc_opt hash !hashes) in
        hashes := (hash, held + 1) :: List.remove_assoc hash !hashes;
        if final && not (List.mem hash !finals) then finals := hash :: !finals)
    column;
  {
    hashes = List.sort (fun (a, _) (b, _) -> String.compare a b) !hashes;
    finals = List.sort String.compare !finals;
    missing = !missing;
  }
