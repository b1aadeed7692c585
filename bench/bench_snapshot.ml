(* The one format of results/BENCH_*.json: a JSON array with one row
   per line,

     [
       {"name": "ed25519_verify_ns", "unit": "ns", "value": 227200, "spread": 0.013},
       ...
     ]

   [value] is the median of the samples a row was recorded from and
   [spread] is (max - min) / median over them; rows that are counts or
   constants have spread 0. Numbers are written in the shortest form
   that reads back to the same float, so a write followed by a read
   returns every row exactly. The reader takes this layout only: a
   line it cannot read, a missing bracket or a repeated name is an
   error, never a skipped row. *)

type row = { name : string; unit : string; value : float; spread : float }

(* How a row's unit says it is compared. Wall-clock costs and heap
   sizes are better lower, rates and speedups better higher; every
   other unit (counts, bytes, simulated seconds, parameters) names a
   deterministic number that must reproduce exactly. *)
type rule = Exact | Lower_better | Higher_better

let rule_of_unit = function
  | "ns" | "ms" | "MB" -> Lower_better
  | "x" -> Higher_better
  | u when String.ends_with ~suffix:"/s" u -> Higher_better
  | _ -> Exact

let number (v : float) : string =
  if not (Float.is_finite v) then invalid_arg "Bench_snapshot: non-finite value";
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else go 1

let row_to_string (r : row) : string =
  Printf.sprintf "{\"name\": %S, \"unit\": %S, \"value\": %s, \"spread\": %s}" r.name r.unit
    (number r.value) (number r.spread)

let row_of_string (line : string) : (row, string) result =
  let float_field s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && String.for_all (String.contains "0123456789.+-eE") s ->
      Some v
    | _ -> None
  in
  match
    Scanf.sscanf line "{\"name\": %S, \"unit\": %S, \"value\": %[^,], \"spread\": %[^}]}%!"
      (fun name unit value spread -> (name, unit, value, spread))
  with
  | name, unit, value, spread -> (
    match (float_field value, float_field spread) with
    | Some value, Some spread -> Ok { name; unit; value; spread }
    | _ -> Error (Printf.sprintf "bad number in row %S" line))
  | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
    Error (Printf.sprintf "malformed row %S" line)

let to_string (rows : row list) : string =
  "[\n" ^ String.concat ",\n" (List.map (fun r -> "  " ^ row_to_string r) rows) ^ "\n]\n"

let of_string (s : string) : (row list, string) result =
  let rec go acc = function
    | [ "]"; "" ] when acc <> [] -> Ok (List.rev acc)
    | line :: rest -> (
      let sep = match rest with "]" :: _ -> "" | _ -> "," in
      let n = String.length line - 2 - String.length sep in
      if n <= 0 || (not (String.starts_with ~prefix:"  " line))
         || not (String.ends_with ~suffix:sep line)
      then Error (Printf.sprintf "malformed line %S" line)
      else
        match row_of_string (String.sub line 2 n) with
        | Ok r when List.exists (fun (q : row) -> q.name = r.name) acc ->
          Error (Printf.sprintf "duplicate row %S" r.name)
        | Ok r -> go (r :: acc) rest
        | Error e -> Error e)
    | [] -> Error "truncated: no closing ]"
  in
  match String.split_on_char '\n' s with
  | "[" :: lines -> go [] lines
  | _ -> Error "not a snapshot: no opening ["

let write (path : string) (rows : row list) : unit =
  Algorand_core.Disk_store.write_file path (to_string rows)

let read (path : string) : (row list, string) result =
  match Algorand_core.Disk_store.read_file path with
  | None -> Error (path ^ ": missing")
  | Some s -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string s)

(* One sample, or a count or constant: a row with no spread. *)
let row ~(name : string) ~(unit : string) (value : float) : row =
  { name; unit; value; spread = 0.0 }

(* k runs of the same measurement, row by row: every run must yield
   the same rows in the same order, and an [Exact] row must read the
   same in every run - a cheap determinism check. Other rows become
   their (upper) median and spread, to four significant figures: the
   digits past that are noise, and rounding keeps the numbers
   readable. *)
let merge (runs : row list list) : row list =
  match runs with
  | [] -> invalid_arg "Bench_snapshot.merge: no runs"
  | first :: _ ->
    if List.exists (fun run -> List.length run <> List.length first) runs then
      failwith "Bench_snapshot.merge: runs yield different numbers of rows";
    List.mapi
      (fun i (r : row) ->
        let samples =
          List.map
            (fun run ->
              match List.nth_opt run i with
              | Some (s : row) when s.name = r.name && s.unit = r.unit -> s.value
              | _ -> failwith (Printf.sprintf "row %s: runs yield different rows" r.name))
            runs
        in
        match rule_of_unit r.unit with
        | Exact ->
          if List.exists (fun v -> v <> r.value) samples then
            failwith
              (Printf.sprintf "row %s is not deterministic: %s" r.name
                 (String.concat " " (List.map number samples)));
          r
        | Lower_better | Higher_better ->
          let sorted = Array.of_list (List.sort compare samples) in
          let n = Array.length sorted in
          let median = sorted.(n / 2) in
          let round4 x = float_of_string (Printf.sprintf "%.4g" x) in
          let spread = if median = 0.0 then 0.0 else (sorted.(n - 1) -. sorted.(0)) /. median in
          { r with value = round4 median; spread = round4 spread })
      first

(* A re-measured row against its committed value: within 2x in the
   direction its unit implies, or exactly equal. *)
let holds ~(committed : row) (measured : row) : bool =
  committed.unit = measured.unit
  &&
  match rule_of_unit committed.unit with
  | Exact -> measured.value = committed.value
  | Lower_better -> measured.value <= 2.0 *. committed.value
  | Higher_better -> measured.value >= committed.value /. 2.0
