(* The experiment harness: registry integrity, cheap experiments run, and
   the report renderer. *)

module E = Astitch_experiments.Experiments
module R = Astitch_experiments.Report

let check = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_registry () =
  let ids = List.map (fun (n, _, _) -> n) E.all in
  (* every table/figure of the paper's evaluation section is present *)
  List.iter
    (fun required ->
      check ("has " ^ required) true (List.mem required ids))
    [
      "fig1"; "fig6"; "fig11a"; "fig11b"; "fig12"; "fig13"; "table3";
      "fig14"; "table4"; "fig15"; "fig16"; "table5"; "ansor"; "table6";
      "overhead";
    ];
  check "ids unique" true
    (List.length ids = List.length (List.sort_uniq compare ids))

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_unknown_experiment () =
  match E.run "no-such-experiment" with
  | () -> Alcotest.fail "expected Compile_error.Error"
  | exception Astitch_plan.Compile_error.Error e ->
      let msg = Astitch_plan.Compile_error.to_string e in
      (* the error must name the offender and list what is available *)
      check "names offender" true (contains msg "no-such-experiment");
      List.iter
        (fun id -> check ("lists " ^ id) true (contains msg id))
        [ "fig1"; "table4"; "overhead" ]

(* run the cheap experiments end-to-end (output goes to stdout) *)
let test_cheap_experiments_run () =
  List.iter E.run [ "table6"; "fig6" ]

let test_report_table () =
  let rendered =
    R.table ~title:"t" ~header:[ "a"; "bb" ]
      [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check_string "layout"
    "=== t ===\na    bb\n-------\n1    2 \n333  4 \n" rendered

let test_report_formats () =
  check_string "pct" "12.5%" (R.pct 0.125);
  check_string "speedup" "1.84x" (R.speedup 1.84);
  check_string "us" "3.5us" (R.us 3.5);
  check_string "ms" "1.50ms" (R.ms_of_us 1500.);
  check_string "f1" "1.9" (R.f1 1.85);
  check_string "f2" "1.85" (R.f2 1.85)

let () =
  Alcotest.run "experiments"
    [
      ( "harness",
        [
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "unknown id" `Quick test_unknown_experiment;
          Alcotest.test_case "cheap experiments" `Quick test_cheap_experiments_run;
        ] );
      ( "report",
        [
          Alcotest.test_case "table" `Quick test_report_table;
          Alcotest.test_case "formats" `Quick test_report_formats;
        ] );
    ]
