open Helpers

let test_int_formatting () =
  check bool_ "groups" true (Table.int 1192971 = "1,192,971");
  check bool_ "small" true (Table.int 42 = "42");
  check bool_ "boundary" true (Table.int 1000 = "1,000");
  check bool_ "negative" true (Table.int (-1234) = "-1,234")

let test_render () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta"; "22" ];
  let s = Table.render t in
  check bool_ "title" true (String.length s > 0 && String.sub s 0 7 = "== demo");
  check bool_ "row order kept" true
    (let a = String.index s 'a' in
     String.length s > a)

(* --- run reports (Obs.Journal files) -------------------------------------- *)

let write_journal lines =
  let path = Filename.temp_file "sft_test" ".journal" in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  path

let with_journal lines f =
  let path = write_journal lines in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let header = {|{"ev":"journal_begin","journal_version":1,"tool":"sft","cmd":"optimize","ts":100.0}|}

let footer ~candidates ~identified =
  Printf.sprintf
    {|{"ev":"journal_end","events":5,"dropped":0,"wall_s":2.5,"counters":{"engine.candidates":%d,"engine.realised":%d}}|}
    candidates identified

let body =
  [
    {|{"ev":"span","seq":0,"ts":0.5,"dom":0,"name":"engine.pass","dur_s":0.4}|};
    {|{"ev":"identify","seq":1,"ts":0.6,"dom":0,"src":"fresh","verdict":true}|};
    {|{"ev":"identify","seq":2,"ts":0.7,"dom":1,"src":"run_cache","verdict":true}|};
    {|{"ev":"splice_accept","seq":3,"ts":0.8,"dom":0,"root":7,"idx":0,"gain":2,"new_paths":10,"cut":4,"exact":true}|};
    {|{"ev":"splice_rollback","seq":4,"ts":0.9,"dom":0,"root":9,"idx":1,"reason":"cec_counterexample"}|};
  ]

let load_ok path =
  match Run_report.load path with
  | Ok r -> r
  | Error msg -> Alcotest.failf "load failed: %s" msg

let test_run_report_load_and_funnel () =
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:10 ])
    (fun path ->
      let r = load_ok path in
      check bool_ "cmd from header" true (Run_report.cmd r = "optimize");
      check int_ "event count" 5 (Run_report.events r);
      check bool_ "not truncated" true (not (Run_report.truncated r));
      check bool_ "wall from footer" true (Run_report.wall_s r = 2.5);
      let f = Run_report.funnel r in
      check int_ "candidates from counter" 50 f.Run_report.candidates;
      check int_ "identified from counter" 10 f.Run_report.identified;
      check int_ "verified = accepts + rollbacks" 2 f.Run_report.verified;
      check int_ "committed = accepts" 1 f.Run_report.committed;
      check bool_ "funnel holds" true (Run_report.funnel_ok r);
      (match Run_report.phases r with
      | [ p ] ->
        check bool_ "phase name" true (p.Run_report.ph_name = "engine.pass");
        check int_ "phase calls" 1 p.Run_report.ph_calls
      | ps -> Alcotest.failf "expected one phase, got %d" (List.length ps));
      let text = Run_report.render r in
      check bool_ "render mentions the funnel" true (contains ~affix:"funnel" text))

let test_run_report_funnel_violation () =
  (* More commit attempts than identifications: the invariant must trip
     both per-run and in the top-level JSON conjunction. *)
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:1 ])
    (fun path ->
      let r = load_ok path in
      check bool_ "funnel violated" true (not (Run_report.funnel_ok r));
      match Run_report.to_json_value [ r ] with
      | Obs_json.Obj fields ->
        check bool_ "top-level funnel_ok false" true
          (List.assoc "funnel_ok" fields = Obs_json.Bool false)
      | _ -> Alcotest.fail "to_json_value not an object")

let test_run_report_truncated () =
  (* No footer at all (crashed run): load succeeds, counter-derived funnel
     stages are skipped, wall falls back to the event high-water mark. *)
  with_journal (header :: body) (fun path ->
      let r = load_ok path in
      check bool_ "truncated flagged" true (Run_report.truncated r);
      check int_ "events still counted" 5 (Run_report.events r);
      check bool_ "wall from last event ts" true (Run_report.wall_s r = 0.9);
      check bool_ "funnel vacuously ok without footer" true
        (Run_report.funnel_ok r))

let test_run_report_corrupt_middle_line () =
  (* One damaged line mid-file: the loader must name it instead of
     reporting the lines before it as a truncated run. *)
  let damaged = List.mapi (fun i l -> if i = 2 then {|{"ev":"identify","seq":2,|} else l) body in
  with_journal
    ((header :: damaged) @ [ footer ~candidates:50 ~identified:10 ])
    (fun path ->
      match Run_report.load path with
      | Error msg ->
        check bool_ "error names the file and line" true
          (contains ~affix:(path ^ ": line 4:") msg)
      | Ok _ -> Alcotest.fail "loaded a journal with a corrupt middle line");
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:10; List.hd body ])
    (fun path ->
      match Run_report.load path with
      | Error msg -> check bool_ "line after the footer named" true (contains ~affix:"line 8:" msg)
      | Ok _ -> Alcotest.fail "loaded a journal with content after its footer")

let test_run_report_torn_tail () =
  (* A crash mid-write cuts the last line short: still a truncated run,
     rendered without a funnel built from zeroed counters. *)
  with_journal ((header :: body) @ [ {|{"ev":"splice_acc|} ]) (fun path ->
      let r = load_ok path in
      check bool_ "truncated flagged" true (Run_report.truncated r);
      check int_ "complete events counted" 5 (Run_report.events r);
      check bool_ "no funnel line" false (contains ~affix:"funnel" (Run_report.render r)))

let test_run_report_rejects_non_journal () =
  with_journal [ {|{"not":"a journal"}|} ] (fun path ->
      match Run_report.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "loaded a non-journal");
  with_journal
    [ {|{"ev":"journal_begin","journal_version":999,"cmd":"x","ts":0.0}|} ]
    (fun path ->
      match Run_report.load path with
      | Error msg -> check bool_ "version named in error" true (contains ~affix:"999" msg)
      | Ok _ -> Alcotest.fail "loaded an unsupported version")

let test_run_report_json_and_diff () =
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:10 ])
    (fun path ->
      let r = load_ok path in
      (* The JSON document must re-parse and carry the documented keys. *)
      (match Obs_json.parse (Obs_json.to_string (Run_report.to_json_value [ r ])) with
      | Error msg -> Alcotest.failf "report JSON invalid: %s" msg
      | Ok doc ->
        check bool_ "report_version present" true
          (Obs_json.member "report_version" doc = Some (Obs_json.Int 1));
        (match Obs_json.member "runs" doc with
        | Some (Obs_json.List [ run ]) ->
          List.iter
            (fun k ->
              check bool_ (k ^ " present") true
                (Obs_json.member k run <> None))
            [
              "path"; "cmd"; "events"; "funnel"; "phases"; "runtime";
              "identify"; "sat_escalations"; "cec_checks"; "engine_phases";
            ]
        | _ -> Alcotest.fail "runs is not a one-element list"));
      let d = Run_report.diff r r in
      check bool_ "self-diff renders" true (String.length d > 0))

(* The engine's phase timers in the footer become one render line; a run
   without them (the plain footer) prints none. *)
let test_run_report_engine_phases () =
  let timed_footer =
    {|{"ev":"journal_end","events":5,"dropped":0,"wall_s":2.5,"counters":{"engine.candidates":50,"engine.realised":10,"engine.enumerate_ns":750000000,"engine.score_ns":1250000000}}|}
  in
  with_journal ((header :: body) @ [ timed_footer ]) (fun path ->
      check bool_ "phase line" true
        (contains ~affix:"engine phases: enumerate 0.750s, score 1.250s (80.0% of wall)"
           (Run_report.render (load_ok path))));
  with_journal
    ((header :: body) @ [ footer ~candidates:50 ~identified:10 ])
    (fun path ->
      check bool_ "no phase line without timers" false
        (contains ~affix:"engine phases" (Run_report.render (load_ok path))))

(* The per-candidate score split is its own line and its own JSON keys; a
   run that timed only enumerate and score prints no split line. *)
let test_run_report_score_split () =
  let split_footer =
    {|{"ev":"journal_end","events":5,"dropped":0,"wall_s":2.5,"counters":{"engine.candidates":50,"engine.realised":10,"engine.enumerate_ns":750000000,"engine.score_ns":1250000000,"engine.extract_ns":250000000,"engine.identify_ns":500000000,"engine.cost_ns":125000000}}|}
  in
  with_journal ((header :: body) @ [ split_footer ]) (fun path ->
      let r = load_ok path in
      check bool_ "split line" true
        (contains ~affix:"score split: extract 0.250s, identify 0.500s, cost 0.125s"
           (Run_report.render r));
      match Run_report.to_json_value [ r ] with
      | Obs_json.Obj fields -> (
        match List.assoc "runs" fields with
        | Obs_json.List [ run ] ->
          check bool_ "split keys" true
            (Obs_json.member "engine_phases" run
            = Some
                (Obs_json.Obj
                   [
                     ("enumerate_s", Obs_json.Float 0.75);
                     ("score_s", Obs_json.Float 1.25);
                     ("extract_s", Obs_json.Float 0.25);
                     ("identify_s", Obs_json.Float 0.5);
                     ("cost_s", Obs_json.Float 0.125);
                   ]))
        | _ -> Alcotest.fail "runs is not a one-element list")
      | _ -> Alcotest.fail "to_json_value not an object");
  let timed_footer =
    {|{"ev":"journal_end","events":5,"dropped":0,"wall_s":2.5,"counters":{"engine.enumerate_ns":750000000,"engine.score_ns":1250000000}}|}
  in
  with_journal ((header :: body) @ [ timed_footer ]) (fun path ->
      check bool_ "no split line without split timers" false
        (contains ~affix:"score split" (Run_report.render (load_ok path))))

(* Identification sources come from the footer's cache counters: a miss is
   a fresh identification, a disk hit came from the store, any other hit
   from the run. *)
let test_run_report_sources_from_counters () =
  let counted =
    {|{"ev":"journal_end","events":1,"dropped":0,"wall_s":2.5,"counters":{"idcache.hits":120,"idcache.disk_hits":20,"idcache.misses":30}}|}
  in
  with_journal [ header; List.hd body; counted ] (fun path ->
      let r = load_ok path in
      check bool_ "table rendered" true
        (contains ~affix:"identification sources" (Run_report.render r));
      match Run_report.to_json_value [ r ] with
      | Obs_json.Obj fields -> (
        match List.assoc "runs" fields with
        | Obs_json.List [ run ] ->
          check bool_ "counts from counters" true
            (Obs_json.member "identify" run
            = Some
                (Obs_json.Obj
                   [
                     ("fresh", Obs_json.Int 30);
                     ("run_cache", Obs_json.Int 100);
                     ("idcache_raw", Obs_json.Int 20);
                   ]))
        | _ -> Alcotest.fail "runs is not a one-element list")
      | _ -> Alcotest.fail "to_json_value not an object")

(* --- Chrome traces from journals ------------------------------------------- *)

let chrome_of lines =
  with_journal lines (fun path ->
      match Run_report.to_chrome (load_ok path) with
      | Obs_json.List evs -> evs
      | _ -> Alcotest.fail "Chrome trace is not an array")

let str k j = match Obs_json.member k j with Some (Obs_json.String s) -> s | _ -> ""

let num k j =
  match Obs_json.member k j with
  | Some (Obs_json.Float f) -> f
  | Some (Obs_json.Int i) -> float_of_int i
  | _ -> Float.nan

let named name evs = List.filter (fun j -> str "name" j = name) evs
let near a b = Float.abs (a -. b) < 1e-3

(* A span event's ts is the end of its dur_s: on domain 0, inner ends at
   2.0 s after 0.5 s inside outer, which ends at 3.0 s after 2.0 s; domain
   1 runs its own span meanwhile. *)
let test_chrome_spans_nest () =
  let evs =
    chrome_of
      [
        header;
        {|{"ev":"span","seq":0,"ts":2.0,"dom":0,"name":"inner","dur_s":0.5}|};
        {|{"ev":"span","seq":1,"ts":1.8,"dom":1,"name":"worker","dur_s":0.6}|};
        {|{"ev":"span","seq":2,"ts":3.0,"dom":0,"name":"outer","dur_s":2.0}|};
        footer ~candidates:0 ~identified:0;
      ]
  in
  let slice name =
    match named name evs with
    | [ j ] ->
      check bool_ (name ^ " is a complete slice") true (str "ph" j = "X");
      j
    | _ -> Alcotest.failf "expected one %s slice" name
  in
  let outer = slice "outer" and inner = slice "inner" and worker = slice "worker" in
  let tid j = Obs_json.member "tid" j in
  check bool_ "one domain, one tid" true (tid outer = tid inner);
  check bool_ "two domains, two tids" true (tid worker <> tid outer);
  check bool_ "start is ts - dur_s, in microseconds" true
    (near (num "ts" outer) 1e6 && near (num "dur" outer) 2e6);
  check bool_ "inner nests in outer" true
    (num "ts" inner >= num "ts" outer
    && num "ts" inner +. num "dur" inner <= num "ts" outer +. num "dur" outer);
  check int_ "a thread_name record per domain" 2 (List.length (named "thread_name" evs))

let test_chrome_instants_carry_fields () =
  let evs =
    chrome_of
      [
        header;
        {|{"ev":"sat_escalation","seq":0,"ts":0.25,"dom":0,"node":12,"stuck_at":1,"outcome":"redundant"}|};
        footer ~candidates:0 ~identified:0;
      ]
  in
  match named "sat_escalation" evs with
  | [ j ] ->
    check bool_ "an instant" true (str "ph" j = "i");
    check bool_ "at its ts" true (near (num "ts" j) 0.25e6);
    check bool_ "args are the event's own fields" true
      (Obs_json.member "args" j
      = Some
          (Obs_json.Obj
             [
               ("node", Obs_json.Int 12);
               ("stuck_at", Obs_json.Int 1);
               ("outcome", Obs_json.String "redundant");
             ]))
  | _ -> Alcotest.fail "expected one sat_escalation instant"

let test_chrome_dropped_marker () =
  let lossy =
    {|{"ev":"journal_end","events":5,"dropped":7,"wall_s":2.5,"counters":{}}|}
  in
  (match List.rev (chrome_of ((header :: body) @ [ lossy ])) with
  | last :: _ ->
    check bool_ "the trace ends with the marker" true (str "name" last = "journal.dropped");
    check bool_ "marker carries the count" true
      (Obs_json.member "args" last = Some (Obs_json.Obj [ ("count", Obs_json.Int 7) ]))
  | [] -> Alcotest.fail "empty trace");
  check int_ "no marker without drops" 0
    (List.length
       (named "journal.dropped"
          (chrome_of ((header :: body) @ [ footer ~candidates:50 ~identified:10 ]))))

(* [body] is in the format written before identification events were
   retired: every line still converts. *)
let test_chrome_parent_format () =
  let evs = chrome_of ((header :: body) @ [ footer ~candidates:50 ~identified:10 ]) in
  check int_ "five events and two thread records" 7 (List.length evs);
  check int_ "identify lookups become instants" 2
    (List.length (List.filter (fun j -> str "ph" j = "i") (named "identify" evs)));
  check int_ "the span becomes a slice" 1
    (List.length (List.filter (fun j -> str "ph" j = "X") (named "engine.pass" evs)))

let suite =
  [
    ("thousands separators", `Quick, test_int_formatting);
    ("render", `Quick, test_render);
    ("run report: load and funnel", `Quick, test_run_report_load_and_funnel);
    ("run report: funnel violation", `Quick, test_run_report_funnel_violation);
    ("run report: truncated journal", `Quick, test_run_report_truncated);
    ("run report: corrupt middle line", `Quick, test_run_report_corrupt_middle_line);
    ("run report: torn tail", `Quick, test_run_report_torn_tail);
    ("run report: rejects non-journals", `Quick, test_run_report_rejects_non_journal);
    ("run report: json schema and diff", `Quick, test_run_report_json_and_diff);
    ("run report: engine phase split", `Quick, test_run_report_engine_phases);
    ("run report: sources from counters", `Quick, test_run_report_sources_from_counters);
    ("chrome: spans nest per domain", `Quick, test_chrome_spans_nest);
    ("chrome: instants carry fields", `Quick, test_chrome_instants_carry_fields);
    ("chrome: dropped-events marker", `Quick, test_chrome_dropped_marker);
    ("chrome: parent-format journal", `Quick, test_chrome_parent_format);
    ("run report: score split", `Quick, test_run_report_score_split);
  ]
