(* Bench_diff: snapshot alignment, threshold logic and the exit-code
   contract (0 clean / 1 regression / 2 incomparable) behind
   `sft bench-diff`, exercised on synthetically perturbed snapshots. *)

open Helpers

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = affix || at (i + 1)) in
  n = 0 || at 0

(* A minimal but complete bench --json snapshot, parameterised on the
   fields the diff tool compares. *)
let snap ?(version = 2) ?(name = "micro") ?(gates = 170) ?(paths = 639)
    ?(wall = 1.5) ?(speedup = 1.8) ?(verdict = "equivalent") ?(detected = 50)
    () =
  Printf.sprintf
    {|{
  "schema_version": %d,
  "generator": "sft bench harness",
  "mode": "quick",
  "domains": 2,
  "only_circuits": null,
  "recommended_domains": 2,
  "sections": [
    {"id": "micro", "title": "Bechamel micro-benchmarks", "wall_seconds": %f}
  ],
  "circuits": [
    {"name": "%s", "inputs": 24, "outputs": 16, "gates2": %d, "paths": %d}
  ],
  "speedups": [
    {"kernel": "fault_sim_campaign", "circuit": "%s", "domains": 2,
     "serial_seconds": 1.0, "parallel_seconds": 0.5, "speedup": %f,
     "identical_results": true}
  ],
  "cec": [
    {"circuit": "%s", "pair": "orig-vs-p2", "verdict": "%s",
     "outputs_solved": 16, "decisions": 10, "conflicts": 0, "wall_seconds": 0.1}
  ],
  "metrics": {"counters": {"fsim.faults_dropped": 420, "pdf.faults_detected": %d}}
}|}
    version wall name gates paths name speedup name verdict detected

let diff ?threshold ?metrics old_text new_text =
  Bench_diff.diff ?threshold ?metrics ~old_name:"old.json" ~old_text
    ~new_name:"new.json" ~new_text ()

let expect_exit label want result =
  check int_ (label ^ ": exit code") want (Bench_diff.exit_code result)

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
      (snap ~gates:150 ~paths:500 ~wall:1.0 ~speedup:2.5 ~detected:80 ())
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
  let r = diff (snap ~version:1 ()) (snap ()) in
  expect_exit "v1 vs v2" 2 r;
  match r with
  | Error msg ->
    check bool_ "error names both versions" true
      (contains ~affix:"v1" msg
      && contains ~affix:"v2" msg)
  | Ok _ -> Alcotest.fail "schema mismatch not rejected"

let test_unsupported_schema_is_incomparable () =
  expect_exit "future schema version" 2 (diff (snap ~version:99 ()) (snap ~version:99 ()))

let test_malformed_snapshot_is_incomparable () =
  expect_exit "malformed JSON" 2 (diff "{\"schema_version\": 2," (snap ()));
  expect_exit "not a snapshot" 2 (diff "{\"foo\": 1}" (snap ()))

let test_disjoint_sets_are_incomparable () =
  (* Restricted to circuit metrics, two snapshots about different circuits
     have no aligned rows — a vacuous "no regression" would be a lie. *)
  let r =
    diff ~metrics:[ "gates"; "paths" ] (snap ()) (snap ~name:"other" ())
  in
  expect_exit "disjoint circuits" 2 r

let test_unknown_metric_rejected () =
  expect_exit "unknown metric name" 2 (diff ~metrics:[ "bogus" ] (snap ()) (snap ()))

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
  ]
