(* The sft.obs observability subsystem: atomic counters under domain pools,
   span nesting, the JSON exporter, and the guarantee that enabling probes
   never changes a computation's result. *)

open Helpers

(* Every test flips the global switch; leave the registry disabled and
   empty for whoever runs next. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let test_counter_atomic_under_pool () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.obs.atomic" in
      let h = Obs.Histogram.make "test.obs.atomic_h" in
      let n = 100_000 in
      Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Pool.map pool ~chunk:97
               (fun _ ->
                 Obs.Counter.incr c;
                 Obs.Counter.add c 1;
                 Obs.Histogram.observe h 1)
               (Array.make n ())));
      check int_ "no lost increments across 4 domains" (2 * n) (Obs.Counter.value c);
      check int_ "histogram sum equals element total" n (Obs.Histogram.sum h);
      check bool_ "pool chunks exported" true
        (List.assoc "pool.chunks" (Obs.Export.counters ()) > 0))

let test_disabled_probes_record_nothing () =
  Obs.reset ();
  Obs.disable ();
  let c = Obs.Counter.make "test.obs.disabled" in
  let h = Obs.Histogram.make "test.obs.disabled_h" in
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Obs.Histogram.observe h 7;
  let r = Obs.Span.with_ "test.obs.disabled_span" (fun () -> 11) in
  check int_ "span passes the result through" 11 r;
  check int_ "disabled counter stays zero" 0 (Obs.Counter.value c);
  check int_ "disabled histogram stays empty" 0 (Obs.Histogram.count h);
  check bool_ "disabled span records nothing" true
    (not
       (List.exists
          (fun s -> s.Obs.Span.name = "test.obs.disabled_span")
          (Obs.Span.snapshot ())))

let test_span_nesting () =
  with_obs (fun () ->
      for _ = 1 to 3 do
        Obs.Span.with_ "test.obs.outer" (fun () ->
            Obs.Span.with_ "test.obs.inner" ignore;
            Obs.Span.with_ "test.obs.inner" ignore)
      done;
      (* an exception must still close the span *)
      (try Obs.Span.with_ "test.obs.outer" (fun () -> failwith "boom")
       with Failure _ -> ());
      let outer =
        List.find (fun s -> s.Obs.Span.name = "test.obs.outer") (Obs.Span.snapshot ())
      in
      check int_ "outer calls" 4 outer.Obs.Span.calls;
      check bool_ "outer wall is non-negative" true (outer.Obs.Span.wall >= 0.);
      match outer.Obs.Span.children with
      | [ inner ] ->
        check bool_ "inner nested under outer" true (inner.Obs.Span.name = "test.obs.inner");
        check int_ "inner calls accumulate" 6 inner.Obs.Span.calls
      | kids -> Alcotest.failf "expected one child, got %d" (List.length kids))

let test_json_roundtrip () =
  let v =
    Obs_json.Obj
      [
        ("int", Obs_json.Int 42);
        ("neg", Obs_json.Int (-7));
        ("float", Obs_json.Float 0.125);
        ("string", Obs_json.String "a \"quoted\"\nline\twith \\ escapes");
        ("null", Obs_json.Null);
        ("bools", Obs_json.List [ Obs_json.Bool true; Obs_json.Bool false ]);
        ("nested", Obs_json.Obj [ ("empty_list", Obs_json.List []); ("empty_obj", Obs_json.Obj []) ]);
      ]
  in
  (match Obs_json.parse (Obs_json.to_string v) with
  | Ok v' -> check bool_ "print/parse round-trip" true (v = v')
  | Error msg -> Alcotest.failf "round-trip parse failed: %s" msg);
  (match Obs_json.parse "{\"a\": [1, 2" with
  | Ok _ -> Alcotest.fail "truncated input parsed"
  | Error _ -> ());
  match Obs_json.parse "  {\"u\": \"\\u0041\\u00e9\"}  " with
  | Ok (Obs_json.Obj [ ("u", Obs_json.String s) ]) ->
    check bool_ "unicode escapes decode to UTF-8" true (s = "A\xc3\xa9")
  | Ok _ | Error _ -> Alcotest.fail "unicode escape parse failed"

let test_export_schema () =
  with_obs (fun () ->
      let c = Obs.Counter.make "test.obs.export" in
      Obs.Counter.add c 5;
      Obs.Histogram.observe (Obs.Histogram.make "test.obs.export_h") 3;
      Obs.Span.with_ "test.obs.export_span" ignore;
      match Obs_json.parse (Obs.Export.to_json ()) with
      | Error msg -> Alcotest.failf "exporter emits invalid JSON: %s" msg
      | Ok doc ->
        check bool_ "schema_version is 1" true
          (Obs_json.member "schema_version" doc = Some (Obs_json.Int 1));
        check bool_ "enabled is true" true
          (Obs_json.member "enabled" doc = Some (Obs_json.Bool true));
        (match Obs_json.member "counters" doc with
        | Some (Obs_json.Obj kvs) ->
          check bool_ "counter value exported" true
            (List.assoc_opt "test.obs.export" kvs = Some (Obs_json.Int 5))
        | _ -> Alcotest.fail "counters object missing");
        (match Obs_json.member "histograms" doc with
        | Some (Obs_json.Obj kvs) -> (
          match List.assoc_opt "test.obs.export_h" kvs with
          | Some h ->
            check bool_ "histogram count exported" true
              (Obs_json.member "count" h = Some (Obs_json.Int 1));
            check bool_ "histogram sum exported" true
              (Obs_json.member "sum" h = Some (Obs_json.Int 3))
          | None -> Alcotest.fail "histogram missing from export")
        | _ -> Alcotest.fail "histograms object missing");
        match Obs_json.member "trace" doc with
        | Some (Obs_json.List spans) ->
          check bool_ "span exported in trace" true
            (List.exists
               (fun s ->
                 Obs_json.member "name" s
                 = Some (Obs_json.String "test.obs.export_span"))
               spans)
        | _ -> Alcotest.fail "trace list missing")

let test_json_error_paths () =
  let expect_error label s =
    match Obs_json.parse s with
    | Ok _ -> Alcotest.failf "%s: malformed input parsed" label
    | Error msg ->
      check bool_ (label ^ ": error message is non-empty") true (String.length msg > 0)
  in
  expect_error "unknown escape" "\"a\\qb\"";
  expect_error "truncated unicode escape" "\"\\u00\"";
  expect_error "non-hex unicode escape" "{\"u\": \"\\uZZZZ\"}";
  expect_error "unterminated string" "\"abc";
  expect_error "trailing garbage" "{\"a\": 1} extra";
  expect_error "lone minus" "-";
  expect_error "bare word" "nul";
  expect_error "empty input" "   ";
  (* Nesting is depth-limited (clean error, not Stack_overflow). *)
  let deep n = String.make n '[' ^ String.make n ']' in
  (match Obs_json.parse (deep 100) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "depth 100 rejected: %s" msg);
  match Obs_json.parse (deep 100_000) with
  | Ok _ -> Alcotest.fail "absurdly deep nesting parsed"
  | Error msg ->
    check bool_ "deep-nesting error names the limit" true
      (String.length msg > 0)

let test_histogram_edges () =
  with_obs (fun () ->
      let h = Obs.Histogram.make "test.obs.edges_h" in
      Obs.Histogram.observe h 0;
      Obs.Histogram.observe h 1;
      Obs.Histogram.observe h (-5);
      Obs.Histogram.observe h max_int;
      check int_ "all edge observations counted" 4 (Obs.Histogram.count h);
      check int_ "sum is exact" (max_int - 4) (Obs.Histogram.sum h);
      (* The exporter must survive the extremes (min/max/buckets). *)
      match Obs_json.parse (Obs.Export.to_json ()) with
      | Error msg -> Alcotest.failf "export with edge values invalid: %s" msg
      | Ok doc -> (
        match
          Option.bind (Obs_json.member "histograms" doc)
            (Obs_json.member "test.obs.edges_h")
        with
        | Some hj ->
          check bool_ "min exported" true
            (Obs_json.member "min" hj = Some (Obs_json.Int (-5)));
          check bool_ "max exported" true
            (Obs_json.member "max" hj = Some (Obs_json.Int max_int))
        | None -> Alcotest.fail "edge histogram missing from export"))

(* --- journal -------------------------------------------------------------- *)

let with_journal path f =
  let cap0 = Obs.Journal.capacity () in
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Obs.Journal.finish ());
      Obs.Journal.set_capacity cap0;
      Obs.disable ();
      Obs.reset ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Journal.start ~cmd:"test" path;
      f ())

let journal_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  List.rev_map
    (fun l ->
      match Obs_json.parse l with
      | Ok j -> j
      | Error msg -> Alcotest.failf "journal line unparseable: %s: %s" msg l)
    !lines

let test_journal_disabled_is_silent () =
  Obs.reset ();
  Obs.Journal.emit "test_noop" [];
  let s = Obs.Journal.stats () in
  check int_ "nothing buffered while disabled" 0 s.Obs.Journal.recorded;
  check int_ "nothing dropped while disabled" 0 s.Obs.Journal.dropped;
  check int_ "finish without start writes nothing" 0
    (Obs.Journal.finish ()).Obs.Journal.recorded

let test_journal_roundtrip_multidomain () =
  let path = Filename.temp_file "sft_test" ".journal" in
  with_journal path (fun () ->
      (* Hold each element until two have started, so the events provably
         land in more than one domain-local buffer. *)
      let started = Atomic.make 0 in
      Pool.with_pool ~domains:4 (fun pool ->
          ignore
            (Pool.map pool ~chunk:7
               (fun i ->
                 Atomic.incr started;
                 while Atomic.get started < 2 do
                   Domain.cpu_relax ()
                 done;
                 Obs.Journal.emit "test_event"
                   [
                     ("i", Obs_json.Int i);
                     ("domain", Obs_json.Int (Domain.self () :> int));
                   ])
               (Array.init 200 Fun.id)));
      (* The pool itself journals a [runtime_sample] after the fan-out
         drains, so counts are lower bounds; payload checks below filter
         to our own event kind. *)
      let s = Obs.Journal.stats () in
      check bool_ "every event buffered" true (s.Obs.Journal.recorded >= 200);
      check bool_ "events spread across domain buffers" true
        (s.Obs.Journal.buffers > 1);
      let w = Obs.Journal.finish () in
      check bool_ "finish reports all events" true (w.Obs.Journal.recorded >= 200);
      check int_ "no drops" 0 w.Obs.Journal.dropped;
      match journal_lines path with
      | header :: rest ->
        check bool_ "header is journal_begin" true
          (Obs_json.member "ev" header
          = Some (Obs_json.String "journal_begin"));
        check bool_ "header carries version 1" true
          (Obs_json.member "journal_version" header = Some (Obs_json.Int 1));
        let events, footer =
          match List.rev rest with
          | f :: revd -> (List.rev revd, f)
          | [] -> Alcotest.fail "no footer"
        in
        check bool_ "footer is journal_end" true
          (Obs_json.member "ev" footer = Some (Obs_json.String "journal_end"));
        check bool_ "footer embeds counters" true
          (match Obs_json.member "counters" footer with
          | Some (Obs_json.Obj _) -> true
          | _ -> false);
        check bool_ "one line per event" true (List.length events >= 200);
        (* Global sequence ids give a total order across domains: the
           merged stream must be strictly increasing, with timestamps
           relative and clamped. *)
        let last = ref (-1) in
        let seen = Array.make 200 false in
        List.iter
          (fun ev ->
            (match Obs_json.member "seq" ev with
            | Some (Obs_json.Int s) ->
              check bool_ "seq strictly increasing" true (s > !last);
              last := s
            | _ -> Alcotest.fail "event without seq");
            (match Obs_json.member "ts" ev with
            | Some (Obs_json.Float ts) ->
              check bool_ "ts clamped to >= 0" true (ts >= 0.)
            | _ -> Alcotest.fail "event without float ts");
            (match Obs_json.member "dom" ev with
            | Some (Obs_json.Int _) -> ()
            | _ -> Alcotest.fail "event without dom");
            if Obs_json.member "ev" ev = Some (Obs_json.String "test_event")
            then
              match Obs_json.member "i" ev with
              | Some (Obs_json.Int i) -> seen.(i) <- true
              | _ -> Alcotest.fail "test_event without payload field")
          events;
        check bool_ "every emitted payload present exactly once" true
          (Array.for_all Fun.id seen)
      | [] -> Alcotest.fail "empty journal file")

let test_journal_overflow_drops_counted () =
  let path = Filename.temp_file "sft_test" ".journal" in
  with_journal path (fun () ->
      ignore (Obs.Journal.finish ());
      Obs.Journal.start ~capacity:16 ~cmd:"test" path;
      for i = 1 to 100 do
        Obs.Journal.emit "test_event" [ ("i", Obs_json.Int i) ]
      done;
      let s = Obs.Journal.stats () in
      check bool_ "overflow drops are counted" true (s.Obs.Journal.dropped > 0);
      check bool_ "recorded bounded by capacity" true
        (s.Obs.Journal.recorded <= 16);
      let w = Obs.Journal.finish () in
      check bool_ "footer records the drops" true (w.Obs.Journal.dropped > 0);
      match journal_lines path with
      | _ :: rest ->
        let footer = List.nth rest (List.length rest - 1) in
        check bool_ "dropped field in footer positive" true
          (match Obs_json.member "dropped" footer with
          | Some (Obs_json.Int d) -> d > 0
          | _ -> false)
      | [] -> Alcotest.fail "empty journal file")

let test_journal_survives_obs_reset () =
  let path = Filename.temp_file "sft_test" ".journal" in
  with_journal path (fun () ->
      Obs.Journal.emit "test_before" [];
      (* reset drops buffered events but keeps the journal open (obs.mli
         header): events after the reset still land in the file. *)
      Obs.reset ();
      check int_ "reset drops buffered events" 0
        (Obs.Journal.stats ()).Obs.Journal.recorded;
      check bool_ "journal still enabled after reset" true
        (Obs.Journal.enabled ());
      Obs.Journal.emit "test_after" [];
      ignore (Obs.Journal.finish ());
      let kinds =
        List.filter_map
          (fun j ->
            match Obs_json.member "ev" j with
            | Some (Obs_json.String s) -> Some s
            | _ -> None)
          (journal_lines path)
      in
      check bool_ "pre-reset event dropped" true
        (not (List.mem "test_before" kinds));
      check bool_ "post-reset event written" true (List.mem "test_after" kinds))

let test_runtime_sampler_and_reset () =
  with_obs (fun () ->
      Obs.Runtime.sample ();
      Obs.Runtime.sample ();
      check int_ "samples counted" 2 (Obs.Runtime.samples ());
      let samples_c =
        List.assoc "runtime.samples" (Obs.Export.counters ())
      in
      check int_ "runtime.samples counter moves" 2 samples_c;
      (* Obs.reset must also zero the sampler state (not just counters). *)
      Obs.reset ();
      check int_ "reset zeroes the sampler" 0 (Obs.Runtime.samples ());
      check int_ "reset zeroes runtime counters" 0
        (List.assoc "runtime.samples" (Obs.Export.counters ())))

let test_campaign_unchanged_by_journal () =
  let c = mixed () in
  let cfg = { Campaign.default with max_patterns = 2_048; seed = 9L } in
  Obs.disable ();
  Obs.reset ();
  let plain = Campaign.exec cfg (Circuit.copy c) in
  let path = Filename.temp_file "sft_test" ".journal" in
  let journaled =
    with_journal path (fun () ->
        Obs.enable ();
        Campaign.exec cfg (Circuit.copy c))
  in
  check bool_ "journaled campaign is bit-identical" true (plain = journaled)

let test_campaign_unchanged_by_obs () =
  let c = mixed () in
  let cfg = { Campaign.default with max_patterns = 2_048; seed = 9L } in
  Obs.disable ();
  Obs.reset ();
  let plain = Campaign.exec cfg (Circuit.copy c) in
  let observed =
    with_obs (fun () -> Campaign.exec cfg (Circuit.copy c))
  in
  check bool_ "instrumented campaign is bit-identical" true (plain = observed)

(* The footer reports each counter's change since [start], so a journal
   opened after other work counts only its own window. *)
let test_journal_counters_since_start () =
  let path = Filename.temp_file "sft_test" ".journal" in
  let c = Obs.Counter.make "test.journal_window" in
  let idle = Obs.Counter.make "test.journal_idle" in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      ignore (Obs.Journal.finish ());
      Obs.disable ();
      Obs.reset ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Counter.add c 5;
      Obs.Counter.add idle 2;
      Obs.Journal.start ~cmd:"test" path;
      Obs.Counter.add c 3;
      ignore (Obs.Journal.finish ());
      check int_ "the counter itself stays cumulative" 8 (Obs.Counter.value c);
      let footer =
        match List.rev (journal_lines path) with
        | f :: _ -> f
        | [] -> Alcotest.fail "empty journal file"
      in
      let footer_value name =
        match Obs_json.member "counters" footer with
        | Some counters -> Obs_json.member name counters
        | None -> Alcotest.fail "footer without counters"
      in
      check bool_ "footer counts the bumps after start" true
        (footer_value "test.journal_window" = Some (Obs_json.Int 3));
      check bool_ "a counter idle since start reads 0" true
        (footer_value "test.journal_idle" = Some (Obs_json.Int 0)))

(* The journal holds a whole resynthesis run in a small buffer: one
   [splice_accept] per accepted replacement, nothing dropped. *)
let test_journal_optimize_fits () =
  let c = Benchmarks.build (Benchmarks.find "irs1423") in
  let path = Filename.temp_file "sft_test" ".journal" in
  with_journal path (fun () ->
      ignore (Obs.Journal.finish ());
      Obs.enable ();
      Obs.Journal.start ~capacity:1024 ~cmd:"test" path;
      let stats = Engine.optimize Engine.Gates Engine.default_options c in
      let w = Obs.Journal.finish () in
      check int_ "nothing dropped" 0 w.Obs.Journal.dropped;
      check bool_ "the run accepted replacements" true (stats.Engine.replacements > 0);
      let accepts =
        List.length
          (List.filter
             (fun j -> Obs_json.member "ev" j = Some (Obs_json.String "splice_accept"))
             (journal_lines path))
      in
      check int_ "one splice_accept per replacement" stats.Engine.replacements accepts)

let suite =
  [
    ("counters: atomic under 4 domains", `Quick, test_counter_atomic_under_pool);
    ("disabled probes record nothing", `Quick, test_disabled_probes_record_nothing);
    ("spans: nesting and call counts", `Quick, test_span_nesting);
    ("json: round-trip and errors", `Quick, test_json_roundtrip);
    ("json: parser error paths", `Quick, test_json_error_paths);
    ("histograms: edge observations", `Quick, test_histogram_edges);
    ("export: documented schema keys", `Quick, test_export_schema);
    ("journal: disabled is silent", `Quick, test_journal_disabled_is_silent);
    ( "journal: multi-domain round-trip",
      `Quick,
      test_journal_roundtrip_multidomain );
    ("journal: overflow drops counted", `Quick, test_journal_overflow_drops_counted);
    ("journal: survives Obs.reset", `Quick, test_journal_survives_obs_reset);
    ("runtime: sampler counts and resets", `Quick, test_runtime_sampler_and_reset);
    ("campaign: obs on = obs off", `Quick, test_campaign_unchanged_by_obs);
    ("campaign: journal on = journal off", `Quick, test_campaign_unchanged_by_journal);
    ("journal: optimize fits 1024 events", `Quick, test_journal_optimize_fits);
    ("journal: footer counts since start", `Quick, test_journal_counters_since_start);
  ]
