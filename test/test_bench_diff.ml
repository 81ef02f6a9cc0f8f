(* Bench_diff: the evaluator's rules (declared gates, exact keys, missing
   sections and rows), threshold logic and the exit-code contract
   (0 clean / 1 regression / 2 incomparable) behind `sft bench-diff`,
   exercised on synthetically perturbed snapshots. *)

open Helpers

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* A minimal but complete schema-3 bench --json snapshot, parameterised on
   the values the diff tool compares: a table whose cells are exact keys
   ([cell] is one of them), a CEC section gated on [equivalent], and a
   generated-circuit section whose [gates]/[paths] are threshold metrics
   and whose [gate_ok] may be false or missing. [drop] removes sections by
   id and [drop_row] Table 2's irs5378 row; [table_keys] and [gate_keys]
   replace the two sections' declarations, and [gated_rows = false]
   leaves the gated section without rows. *)
let snap ?(version = 3) ?(mode = "quick") ?(only = []) ?(name = "micro") ?(gates = 170)
    ?(paths = 639) ?(wall = 1.5) ?(verdict = "equivalent") ?(detected = 50)
    ?(cell = 628) ?(gate_ok = Some true) ?(drop = []) ?(drop_row = false)
    ?(table_keys = [ "gates_orig"; "gates_p2" ])
    ?(gate_keys = [ "identical_results"; "gate_ok" ]) ?(gated_rows = true) () =
  let open Obs_json in
  let section ?(gate_keys = []) ?(exact_keys = []) id rows =
    let strings l = List (List.map (fun k -> String k) l) in
    ( id,
      Obj
        [
          ("id", String id);
          ("title", String id);
          ("wall_seconds", Float wall);
          ("gate_keys", strings gate_keys);
          ("exact_keys", strings exact_keys);
          ("rows", List (List.map (fun r -> Obj r) rows));
        ] )
  in
  let table2 =
    [
      [ ("circuit", String "irs1423"); ("gates_orig", Int 649); ("gates_p2", Int cell) ];
      [ ("circuit", String "irs5378"); ("gates_orig", Int 1832); ("gates_p2", Int 1800) ];
    ]
  in
  let sections =
    [
      section "table2" ~exact_keys:table_keys
        (if drop_row then [ List.hd table2 ] else table2);
      section "cec" ~gate_keys:[ "equivalent" ]
        [
          [
            ("pair", String "irs1423 orig-vs-p2");
            ("equivalent", Bool (verdict = "equivalent"));
            ("verdict", String verdict);
          ];
        ];
      section "incremental" ~gate_keys
        (if not gated_rows then []
         else
           [
             [
               ("circuit", String name);
               ("gates", Int gates);
               ("paths", Int paths);
               ("identical_results", Bool true);
             ]
             @ match gate_ok with Some b -> [ ("gate_ok", Bool b) ] | None -> [];
           ]);
    ]
  in
  to_string
    (Obj
       [
         ("schema_version", Int version);
         ("generator", String "sft bench harness");
         ("mode", String mode);
         ("domains", Int 2);
         ("only_circuits", match only with [] -> Null | l -> List (List.map (fun s -> String s) l));
         ("recommended_domains", Int 2);
         ( "sections",
           List
             (List.filter_map (fun (id, s) -> if List.mem id drop then None else Some s) sections)
         );
         ( "metrics",
           Obj
             [
               ( "counters",
                 Obj [ ("fsim.faults_dropped", Int 420); ("pdf.faults_detected", Int detected) ] );
             ] );
       ])

let diff ?threshold ?metrics old_text new_text =
  Bench_diff.diff ?threshold ?metrics ~old_name:"old.json" ~old_text
    ~new_name:"new.json" ~new_text ()

let expect_exit label want result =
  check int_ (label ^ ": exit code") want (Bench_diff.exit_code result)

(* The pair regresses, on a report line that names [item]. *)
let expect_regression label ~item result =
  expect_exit label 1 result;
  match result with
  | Ok (report, _) ->
    check bool_ (label ^ ": report names " ^ item) true
      (List.exists
         (fun line -> contains ~affix:item line && contains ~affix:"REGRESSION" line)
         (String.split_on_char '\n' report))
  | Error msg -> Alcotest.failf "%s: incomparable: %s" label msg

let test_identical_is_clean () =
  let s = snap () in
  let r = diff s s in
  expect_exit "identical snapshots" 0 r;
  match r with
  | Ok (report, Bench_diff.Clean) ->
    check bool_ "report names the circuit" true
      (String.length report > 0
      && contains ~affix:"micro" report)
  | Ok (_, Bench_diff.Regressions n) -> Alcotest.failf "%d phantom regressions" n
  | Error msg -> Alcotest.failf "identical snapshots incomparable: %s" msg

let test_gate_regression_detected () =
  (* +10 gates at threshold 0: the regression path the CI gate relies on. *)
  let r = diff ~threshold:0. ~metrics:[ "gates"; "paths" ] (snap ()) (snap ~gates:180 ()) in
  expect_exit "worse gates, threshold 0" 1 r;
  (match r with
  | Ok (report, Bench_diff.Regressions n) ->
    check int_ "exactly the gates row regressed" 1 n;
    check bool_ "report flags the regression" true
      (contains ~affix:"REGRESSION" report)
  | Ok (_, Bench_diff.Clean) -> Alcotest.fail "regression missed"
  | Error msg -> Alcotest.failf "incomparable: %s" msg);
  (* The same pair passes once the threshold absorbs the delta (10/170 < 10%). *)
  expect_exit "worse gates, threshold 10%" 0
    (diff ~threshold:10. ~metrics:[ "gates"; "paths" ] (snap ()) (snap ~gates:180 ()))

let test_improvement_is_clean () =
  let r =
    diff ~threshold:0. (snap ())
      (snap ~gates:150 ~paths:500 ~wall:1.0 ~detected:80 ())
  in
  expect_exit "all metrics improved" 0 r;
  match r with
  | Ok (report, _) ->
    check bool_ "improvements labelled" true
      (contains ~affix:"improved" report)
  | Error msg -> Alcotest.failf "incomparable: %s" msg

let test_coverage_drop_is_regression () =
  (* Fewer detected faults is worse even though the number got smaller:
     coverage is a higher-is-better metric. *)
  expect_exit "coverage drop" 1
    (diff ~threshold:5. ~metrics:[ "coverage" ] (snap ()) (snap ~detected:20 ()))

let test_cec_degradation_ignores_threshold () =
  let r =
    diff ~threshold:1000. (snap ())
      (snap ~verdict:"unknown (budget 100000 conflicts)" ())
  in
  expect_exit "lost equivalence proof" 1 r

let test_schema_mismatch_is_incomparable () =
  let r = diff (snap ~version:2 ()) (snap ()) in
  expect_exit "v2 vs v3" 2 r;
  match r with
  | Error msg ->
    check bool_ "error names both versions" true
      (contains ~affix:"v2" msg
      && contains ~affix:"v3" msg)
  | Ok _ -> Alcotest.fail "schema mismatch not rejected"

let test_unsupported_schema_is_incomparable () =
  expect_exit "future schema version" 2 (diff (snap ~version:99 ()) (snap ~version:99 ()))

let test_malformed_snapshot_is_incomparable () =
  expect_exit "malformed JSON" 2 (diff "{\"schema_version\": 3," (snap ()));
  expect_exit "not a snapshot" 2 (diff "{\"foo\": 1}" (snap ()))

let test_disjoint_sets_are_incomparable () =
  (* Two snapshots about different circuits: comparing them on their
     intersection would be a vacuous "no regression". *)
  let r =
    diff ~metrics:[ "gates"; "paths" ] (snap ~only:[ "irs1423" ] ())
      (snap ~only:[ "irs5378" ] ~name:"other" ())
  in
  expect_exit "disjoint circuits" 2 r

let test_unknown_metric_rejected () =
  expect_exit "unknown metric name" 2 (diff ~metrics:[ "bogus" ] (snap ()) (snap ()));
  (* Neither is a threshold metric: CEC verdicts are a declared gate. *)
  List.iter
    (fun m -> expect_exit ("retired metric " ^ m) 2 (diff ~metrics:[ m ] (snap ()) (snap ())))
    [ "cec"; "speedup" ]

(* A snapshot that cannot be read is incomparable, not a regression. *)
let test_unreadable_snapshot_is_incomparable () =
  let path = Filename.temp_file "sft_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc (snap ()));
      let missing = Filename.concat path "absent.json" in
      let r = Bench_diff.diff_files missing path in
      expect_exit "missing old snapshot" 2 r;
      (match r with
      | Error msg -> check bool_ "error names the file" true (contains ~affix:missing msg)
      | Ok _ -> Alcotest.fail "missing snapshot compared");
      expect_exit "missing new snapshot" 2 (Bench_diff.diff_files path missing);
      expect_exit "readable snapshots compare" 0 (Bench_diff.diff_files path path))

let test_table_cell_ignores_threshold () =
  expect_regression "changed table cell" ~item:"table2/irs1423: gates_p2"
    (diff ~threshold:1000. (snap ()) (snap ~cell:627 ()));
  (* The baseline's declaration binds even when the new one drops the key. *)
  expect_regression "changed undeclared cell" ~item:"table2/irs1423: gates_p2"
    (diff (snap ()) (snap ~table_keys:[ "gates_orig" ] ~cell:627 ()))

let test_missing_items_regress () =
  let old = snap () in
  expect_regression "missing table row" ~item:"table2/irs5378" (diff old (snap ~drop_row:true ()));
  expect_regression "missing table" ~item:"table2" (diff old (snap ~drop:[ "table2" ] ()));
  expect_regression "missing gated section" ~item:"incremental"
    (diff old (snap ~drop:[ "incremental" ] ()));
  (* A declared exact key must be recorded, even with no baseline value. *)
  let typo = snap ~table_keys:[ "gates_orig"; "gates_p2"; "gates_p3" ] () in
  expect_regression "declared key not recorded" ~item:"table2/irs1423: gates_p3" (diff typo typo);
  (* New sections and rows are not regressions. *)
  expect_exit "added table" 0 (diff (snap ~drop:[ "table2" ] ()) old)

let test_false_or_missing_gate_regresses () =
  let old = snap () in
  expect_regression "false gate" ~item:"incremental/micro: gate_ok"
    (diff old (snap ~gate_ok:(Some false) ()));
  expect_regression "missing gate" ~item:"incremental/micro: gate_ok"
    (diff old (snap ~gate_ok:None ()));
  (* A gate the baseline declares still binds when the new snapshot drops
     its declaration. *)
  expect_regression "undeclared false gate" ~item:"incremental/micro: gate_ok"
    (diff old (snap ~gate_keys:[ "identical_results" ] ~gate_ok:(Some false) ()));
  (* Declared gates hold in a self-diff too: that is the smoke test. A
     gated section that recorded no rows and no skip reason fails. *)
  let bad = snap ~gate_ok:(Some false) () in
  expect_exit "false gate, self-diff" 1 (diff bad bad);
  let empty = snap ~gated_rows:false () in
  expect_regression "gated section without rows" ~item:"incremental" (diff empty empty)

let test_differing_scope_is_incomparable () =
  expect_exit "schema 2 vs 3" 2 (diff (snap ~version:2 ()) (snap ()));
  expect_exit "only_circuits null vs a list" 2 (diff (snap ()) (snap ~only:[ "irs1423" ] ()));
  expect_exit "mode full vs quick" 2 (diff (snap ~mode:"full" ()) (snap ()))

let suite =
  [
    ("identical snapshots diff clean", `Quick, test_identical_is_clean);
    ("gate regression trips the gate", `Quick, test_gate_regression_detected);
    ("improvements stay clean", `Quick, test_improvement_is_clean);
    ("coverage drop is a regression", `Quick, test_coverage_drop_is_regression);
    ("cec degradation ignores threshold", `Quick, test_cec_degradation_ignores_threshold);
    ("schema mismatch is incomparable", `Quick, test_schema_mismatch_is_incomparable);
    ("unsupported schema is incomparable", `Quick, test_unsupported_schema_is_incomparable);
    ("malformed snapshot is incomparable", `Quick, test_malformed_snapshot_is_incomparable);
    ("disjoint circuit sets are incomparable", `Quick, test_disjoint_sets_are_incomparable);
    ("unknown metric is rejected", `Quick, test_unknown_metric_rejected);
    ("unreadable snapshot is incomparable", `Quick, test_unreadable_snapshot_is_incomparable);
    ("table cell change ignores threshold", `Quick, test_table_cell_ignores_threshold);
    ("missing row, table or section regresses", `Quick, test_missing_items_regress);
    ("false or missing gate regresses", `Quick, test_false_or_missing_gate_regresses);
    ("differing scope is incomparable", `Quick, test_differing_scope_is_incomparable);
  ]
