(* The BENCH_*.json schema: what the one writer writes, the one reader
   reads back exactly, and anything else is rejected. *)

module S = Bench_snapshot

let row name unit value spread = { S.name; unit; value; spread }

let rows =
  [
    row "sim_users_1000000_rounds_per_s" "rounds/s" 0.5099 0.1373;
    row "ledger_accounts" "count" 1_000_000.0 0.0;
    row "baseline_certificate_validate_per_vote_ns" "ns" 7_840_000.0 0.0;
    row "sim_users_5000_bytes_per_user" "B" (28455712.0 /. 3.0) 0.0;
    row "sim_users_5000_latency_s" "sim_s" 24.411293318 0.0;
    row "tiny" "ms" 1.25e-7 3e-3;
    row "huge" "tx/s" 1.5e300 0.0;
  ]

let pp_row ppf (r : S.row) = Format.pp_print_string ppf (S.row_to_string r)
let row_t = Alcotest.testable pp_row ( = )

let round_trip () =
  let path = Filename.temp_file "bench_snapshot" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.write path rows;
      match S.read path with
      | Ok back -> Alcotest.(check (list row_t)) "every row, exactly" rows back
      | Error e -> Alcotest.fail e)

let rejects () =
  let good = S.to_string rows in
  let lines = String.split_on_char '\n' good in
  let without_line i = String.concat "\n" (List.filteri (fun j _ -> j <> i) lines) in
  let rejected label s =
    match S.of_string s with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  rejected "truncated file" (String.sub good 0 (String.length good / 2));
  rejected "truncated line"
    "[\n  {\"name\": \"a\", \"unit\": \"ns\", \"value\": 12\n]\n";
  rejected "no closing bracket" (without_line (List.length lines - 2));
  rejected "missing comma"
    "[\n\
    \  {\"name\": \"a\", \"unit\": \"ns\", \"value\": 1, \"spread\": 0}\n\
    \  {\"name\": \"b\", \"unit\": \"ns\", \"value\": 1, \"spread\": 0}\n\
     ]\n";
  rejected "missing spread" "[\n  {\"name\": \"a\", \"unit\": \"ns\", \"value\": 1}\n]\n";
  rejected "non-number" "[\n  {\"name\": \"a\", \"unit\": \"ns\", \"value\": nan, \"spread\": 0}\n]\n";
  rejected "OCaml-only number"
    "[\n  {\"name\": \"a\", \"unit\": \"ns\", \"value\": 1_000, \"spread\": 0}\n]\n";
  rejected "duplicate name"
    "[\n\
    \  {\"name\": \"a\", \"unit\": \"ns\", \"value\": 1, \"spread\": 0},\n\
    \  {\"name\": \"a\", \"unit\": \"ns\", \"value\": 2, \"spread\": 0}\n\
     ]\n";
  rejected "no rows" "[\n]\n";
  rejected "old flat object" "{\n  \"a\": 1\n}\n"

let merge () =
  let run t = [ S.row ~name:"t" ~unit:"ns" t; S.row ~name:"c" ~unit:"count" 7.0 ] in
  (match S.merge [ run 110.0; run 100.0; run 90.0 ] with
  | [ t; c ] ->
    Alcotest.(check (float 0.0)) "median" 100.0 t.value;
    Alcotest.(check (float 1e-12)) "spread" 0.2 t.spread;
    Alcotest.(check (float 0.0)) "count kept" 7.0 c.value
  | _ -> Alcotest.fail "two rows");
  match S.merge [ run 1.0; [ S.row ~name:"t" ~unit:"ns" 1.0; S.row ~name:"c" ~unit:"count" 8.0 ] ] with
  | _ -> Alcotest.fail "a count that differs across runs must fail"
  | exception Failure _ -> ()

let holds () =
  let committed unit value = row "r" unit value 0.0 in
  let measured unit value = S.row ~name:"r" ~unit value in
  let check label expect c m = Alcotest.(check bool) label expect (S.holds ~committed:c m) in
  check "ns at 2x" true (committed "ns" 100.0) (measured "ns" 200.0);
  check "ns past 2x" false (committed "ns" 100.0) (measured "ns" 201.0);
  check "ns faster" true (committed "ns" 100.0) (measured "ns" 1.0);
  check "rate at half" true (committed "tx/s" 100.0) (measured "tx/s" 50.0);
  check "rate below half" false (committed "tx/s" 100.0) (measured "tx/s" 49.0);
  check "count equal" true (committed "count" 5.0) (measured "count" 5.0);
  check "count off by one" false (committed "count" 5.0) (measured "count" 6.0);
  check "unit changed" false (committed "ns" 100.0) (measured "ms" 100.0)

let () =
  Alcotest.run "bench"
    [
      ( "snapshot",
        [
          Alcotest.test_case "write then read round-trips every row" `Quick round_trip;
          Alcotest.test_case "malformed or truncated input is rejected" `Quick rejects;
          Alcotest.test_case "merge: median, spread, deterministic counts" `Quick merge;
          Alcotest.test_case "check rules follow the unit" `Quick holds;
        ] );
    ]
