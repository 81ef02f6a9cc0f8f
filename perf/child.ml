(* One repetition of one workload, run in a fresh process.

   The child reads its inputs (several times, so set-up time is a median),
   times only the calls into the layers' public functions, then runs the
   oracles after the clock has stopped and prints one JSON line. With
   [traced] the Obs metrics bit is on for the timed region and the child also
   reports the per-layer attribution it can see from outside the library:
   spans placed here around public calls, the library's own spans and
   counters. *)

let workloads = [ "resynth"; "redrem"; "rar"; "atpg" ]

(* Inputs are committed files (paths relative to the repository root);
   --smoke swaps in tiny in-memory circuits so the benchmark can test itself
   in seconds. *)
let inputs = function
  | "resynth" ->
    (* K = 6 resynthesis on three stand-ins spanning 1.3e4 to 3.5e5 paths;
       the other five push one repetition past the run budget. *)
    [
      "data/benchmarks/irs35932.bench";
      "data/benchmarks/irs1423.bench";
      "data/benchmarks/irs13207.bench";
    ]
  | "redrem" -> [ "perf/inputs/irs1423-p2k5.bench" ]
  | "rar" -> [ "perf/inputs/irs1423-rar.bench" ]
  | "atpg" -> [ "perf/inputs/irs1423-raw.bench" ]
  | w -> failwith ("unknown workload " ^ w)

let manifest = "perf/inputs/MD5SUMS"

let op_count ~smoke workload = if smoke then 2 else List.length (inputs workload)

let smoke_sources () =
  let gen =
    Circuit_gen.generate
      {
        Circuit_gen.name = "gen130";
        n_pi = 24;
        n_po = 16;
        n_gates = 130;
        depth = 12;
        combine_pct = 20;
        xor_pct = 6;
        seed = 130L;
      }
  in
  [ ("c17", Bench_format.to_string (Benchmarks.c17 ())); ("gen130", Bench_format.to_string gen) ]

let read_manifest root =
  In_channel.with_open_bin (Filename.concat root manifest) In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ md5; path ] -> Some (path, md5)
         | [] -> None
         | _ -> failwith (Printf.sprintf "%s: malformed line %S" manifest line))

(* --- set-up ------------------------------------------------------------ *)

let setups = 9

type source = { label : string; text : unit -> string; expected_md5 : string option }

let sources ~root ~smoke workload =
  if smoke then
    List.map
      (fun (label, text) -> { label; text = (fun () -> text); expected_md5 = None })
      (smoke_sources ())
  else
    let pinned = read_manifest root in
    List.map
      (fun path ->
        {
          label = path;
          text =
            (fun () ->
              In_channel.with_open_bin (Filename.concat root path) In_channel.input_all);
          expected_md5 =
            (match List.assoc_opt path pinned with
            | Some m -> Some m
            | None -> failwith (Printf.sprintf "%s is not pinned in %s" path manifest));
        })
      (inputs workload)

(* Read, digest-check and parse every input once. A digest mismatch or a
   typed parse error is fatal: the benchmark never measures other inputs
   than the pinned ones. *)
let setup_once sources =
  let parse_s = ref 0.0 in
  let loaded =
    List.map
      (fun s ->
        let text = s.text () in
        let md5 = Digest.to_hex (Digest.string text) in
        (match s.expected_md5 with
        | Some m when m <> md5 ->
          failwith (Printf.sprintf "%s: MD5 %s, pinned %s" s.label md5 m)
        | _ -> ());
        let t0 = Unix.gettimeofday () in
        let parsed =
          Bench_format.parse ~name:(Filename.remove_extension (Filename.basename s.label)) text
        in
        parse_s := !parse_s +. (Unix.gettimeofday () -. t0);
        match parsed with
        | Ok c -> (s.label, md5, c)
        | Error e -> failwith (s.label ^ ": " ^ Bench_format.error_to_string e))
      sources
  in
  (loaded, !parse_s)

(* --- workloads ---------------------------------------------------------- *)

type op = {
  label : string;
  input : Circuit.t;
  mutable wall : float;
  mutable output : Circuit.t;  (** the circuit the operation leaves behind *)
  mutable extra : unit -> string;  (** result beyond the netlist, e.g. tests *)
  mutable oracle : unit -> (unit, string) result;
}

type run = {
  ops : op list;
  timed : unit -> unit;  (** the timed region *)
  stats : unit -> (string * float) list;  (** workload results as layer metrics *)
  replay : unit -> unit;  (** traced runs only, after the timed region *)
}

let clocked op f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  op.wall <- op.wall +. (Unix.gettimeofday () -. t0);
  r

(* Resynthesis, redundancy removal and RAR must leave a circuit equivalent
   to their input: proved by CEC ([Unknown] counts as a failure) and
   cross-checked by random simulation on --seed-derived vectors. *)
let equivalence_oracle ~seed op () =
  match Cec.check_stats op.input op.output with
  | Cec.Equivalent, _ ->
    if Eval.equivalent_random ~seed:(Int64.of_int seed) op.input op.output then Ok ()
    else Error "random simulation disagrees with a CEC equivalence proof"
  | Cec.Counterexample _, _ -> Error "CEC found a counterexample"
  | Cec.Unknown n, _ -> Error (Printf.sprintf "CEC undecided after %d conflicts" n)

let new_op (label, c) =
  { label; input = c; wall = 0.0; output = c; extra = (fun () -> ""); oracle = (fun () -> Ok ()) }

let rewriting ~seed loaded f =
  let ops =
    List.map
      (fun (label, c) ->
        let op = new_op (label, c) in
        op.output <- Circuit.copy c;
        op.oracle <- equivalence_oracle ~seed op;
        op)
      loaded
  in
  (ops, fun () -> List.iter (fun op -> clocked op (fun () -> f op)) ops)

let resynth_options = { Engine.default_options with Engine.domains = 1 }

let resynth ~seed loaded =
  let passes = ref 0 in
  let ops, timed =
    rewriting ~seed loaded (fun op ->
        let s =
          Obs.Span.with_ "perf.synth.optimize" (fun () ->
              Procedure2.run ~options:resynth_options op.output)
        in
        passes := !passes + s.Engine.passes)
  in
  {
    ops;
    timed;
    stats = (fun () -> [ ("synth.passes", float_of_int !passes) ]);
    replay = ignore;
  }

(* Redundancy removal with the budget RAR's removal passes use (120 PODEM
   backtracks, 16,384 prefilter patterns): Table 2's red.rem operation on
   the same input, about 6x cheaper than the default budget, so a run holds
   several repetitions. *)
let redrem_limits = { Limits.default with Limits.podem_backtracks = 120 }
let redrem_prefilter = 16_384
let redrem_seed = 31L

(* Redundancy.remove has no inner spans; replaying its first pass through
   the same public calls attributes that pass to prefilter, PODEM and SAT. *)
let replay_pass1 c =
  let survivors =
    Obs.Span.with_ "perf.replay.prefilter" (fun () ->
        Campaign.survivors
          { Campaign.default with max_patterns = redrem_prefilter; seed = redrem_seed }
          c)
  in
  let aborted =
    Obs.Span.with_ "perf.replay.podem" (fun () ->
        List.filter
          (fun f ->
            Podem.generate ~backtrack_limit:redrem_limits.Limits.podem_backtracks c f
            = Podem.Aborted)
          survivors)
  in
  Obs.Span.with_ "perf.replay.sat" (fun () ->
      ignore (Sat_atpg.escalate ~limits:redrem_limits c aborted))

let redrem ~seed loaded =
  let totals = Array.make 4 0 in
  let ops, timed =
    rewriting ~seed loaded (fun op ->
        let r =
          Obs.Span.with_ "perf.redundancy.remove" (fun () ->
              Redundancy.remove ~limits:redrem_limits ~prefilter_patterns:redrem_prefilter
                ~seed:redrem_seed op.output)
        in
        if r.Redundancy.aborted > 0 then
          op.oracle <-
            (fun () -> Error (Printf.sprintf "%d faults left undecided" r.Redundancy.aborted));
        totals.(0) <- totals.(0) + r.Redundancy.passes;
        totals.(1) <- totals.(1) + r.Redundancy.removed;
        totals.(2) <- totals.(2) + r.Redundancy.proved_redundant_sat;
        totals.(3) <- totals.(3) + r.Redundancy.aborted)
  in
  {
    ops;
    timed;
    stats =
      (fun () ->
        [
          ("redundancy.passes", float_of_int totals.(0));
          ("redundancy.removed", float_of_int totals.(1));
          ("redundancy.removed_sat", float_of_int totals.(2));
          ("atpg.faults_undecided", float_of_int totals.(3));
        ]);
    replay = (fun () -> List.iter (fun (_, c) -> replay_pass1 (Circuit.copy c)) loaded);
  }

(* Table 3's quick-bench RAR options with a smaller trial budget (15, not
   60), on the circuit one RAR round already produced: the first removal
   finds nothing to tie off, so the time goes to wire-addition trials that
   snapshot, mutate and roll back the circuit, each followed by a full
   removal pass. *)
let rar_options =
  { Rar.default_options with Rar.max_additions = 8; max_trials = 15; seed = 17L }

let rar ~seed loaded =
  let additions = ref 0 and removals = ref 0 in
  let ops, timed =
    rewriting ~seed loaded (fun op ->
        let s =
          Obs.Span.with_ "perf.rar.optimize" (fun () ->
              Rar.optimize ~options:rar_options op.output)
        in
        additions := !additions + s.Rar.additions;
        removals := !removals + s.Rar.removals)
  in
  {
    ops;
    timed;
    stats =
      (fun () ->
        [
          ("rar.additions", float_of_int !additions);
          ("rar.removals", float_of_int !removals);
        ]);
    replay = ignore;
  }

(* The `sft fsim --sat-atpg` flow with PODEM starved to 20 backtracks, so
   most hard faults reach SAT. Read-only: the circuit it leaves behind is
   its input, which the oracle checks is untouched. *)
let atpg_campaign = { Campaign.default with max_patterns = 4096; seed = 7L; domains = 1 }
let atpg_backtracks = 20

let vector_string v = String.init (Array.length v) (fun i -> if v.(i) then '1' else '0')

let atpg ~seed:_ loaded =
  let detected = ref 0 and testable = ref 0 and undecided = ref 0 in
  let ops = List.map (fun l -> (new_op l, Bench_format.to_string (snd l))) loaded in
  let timed () =
    List.iter
      (fun (op, before) ->
        let c = op.input in
        let r, survivors =
          clocked op (fun () ->
              Obs.Span.with_ "perf.fault.campaign" (fun () ->
                  Campaign.exec_survivors atpg_campaign c))
        in
        let podem =
          clocked op (fun () ->
              Obs.Span.with_ "perf.atpg.podem" (fun () ->
                  Podem.generate_all ~backtrack_limit:atpg_backtracks c survivors))
        in
        let esc =
          clocked op (fun () ->
              Obs.Span.with_ "perf.atpg.sat" (fun () ->
                  Sat_atpg.escalate c podem.Podem.aborted_faults))
        in
        let tests = podem.Podem.tests @ esc.Sat_atpg.tests in
        let claimed = r.Campaign.detected + List.length tests in
        let redundant = podem.Podem.untestable + List.length esc.Sat_atpg.redundant in
        let n_testable = r.Campaign.total_faults - redundant in
        let unknown = List.length esc.Sat_atpg.unknown in
        detected := !detected + claimed;
        testable := !testable + n_testable;
        undecided := !undecided + unknown;
        op.extra <-
          (fun () ->
            String.concat "\n"
              (List.map (fun (f, v) -> Fault.to_string c f ^ " " ^ vector_string v) tests));
        op.oracle <-
          (fun () ->
            (* Every vector must detect its fault when replayed; coverage is
               recomputed from the replayed counts. *)
            let fsim = Fsim.create (Compiled.of_circuit c) in
            let replayed =
              List.length (List.filter (fun (f, v) -> Fsim.detect_single fsim f v) tests)
            in
            if Bench_format.to_string c <> before then Error "ATPG modified its input circuit"
            else if unknown > 0 then Error (Printf.sprintf "%d faults left undecided" unknown)
            else if r.Campaign.detected + replayed <> claimed then
              Error
                (Printf.sprintf "%d of %d test vectors fail on replay"
                   (List.length tests - replayed) (List.length tests))
            else Ok ()))
      ops
  in
  {
    ops = List.map fst ops;
    timed;
    stats =
      (fun () ->
        [
          ( "atpg.coverage_pct",
            if !testable = 0 then 100.0
            else 100.0 *. float_of_int !detected /. float_of_int !testable );
          ("atpg.faults_undecided", float_of_int !undecided);
        ]);
    replay = ignore;
  }

let make = function
  | "resynth" -> resynth
  | "redrem" -> redrem
  | "rar" -> rar
  | "atpg" -> atpg
  | w -> failwith ("unknown workload " ^ w)

(* --- measurements ------------------------------------------------------- *)

(* A fixed integer kernel timed before each repetition: it does the same
   work on every commit, so its drift is the host's drift. *)
let calibrate () =
  let t0 = Unix.gettimeofday () in
  let x = ref 0x2545F491 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1103515245) + i) land 0x3FFFFFFF
  done;
  ignore (Sys.opaque_identity !x);
  Unix.gettimeofday () -. t0

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
         | _ -> None)
  |> function
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "VmHWM not found in /proc/self/status"

(* Sum of the walls of spans named [name] in a span forest, not counting a
   match nested inside another. *)
let rec span_wall name forest =
  List.fold_left
    (fun acc (i : Obs.Span.info) ->
      acc +. if i.name = name then i.wall else span_wall name i.children)
    0.0 forest

let rec span_calls name forest =
  List.fold_left
    (fun acc (i : Obs.Span.info) ->
      acc + if i.name = name then i.calls else span_calls name i.children)
    0 forest

(* The subtrees under every span named [name]. *)
let rec within name forest =
  List.concat_map
    (fun (i : Obs.Span.info) -> if i.name = name then i.children else within name i.children)
    forest

let counter name =
  match List.assoc_opt name (Obs.Export.counters ()) with
  | Some v -> float_of_int v
  | None -> failwith ("Obs counter " ^ name ^ " is not registered")

(* Per-layer metrics of the traced timed region. Layer times are reported as
   shares of the traced wall ([*_frac]), so a layer a workload never enters
   reads 0 rather than a 0-second "time"; [obs.traced_wall_s] converts them
   back to seconds. *)
let layer_metrics ~wall ~stats forest =
  let frac s = s /. wall in
  let opt = span_wall "perf.synth.optimize" forest in
  let synth = within "perf.synth.optimize" forest in
  let flush = span_wall "engine.commit_flush" synth in
  let canon = counter "idcache.canon_ns" /. 1e9 in
  let remove = span_wall "perf.redundancy.remove" forest in
  let in_remove = within "perf.redundancy.remove" forest in
  let rar = span_wall "perf.rar.optimize" forest in
  let in_rar = within "perf.rar.optimize" forest in
  let hits = counter "idcache.hits" and npn = counter "idcache.npn_hits" in
  let misses = counter "idcache.misses" in
  let lookups = hits +. npn +. misses in
  let wrappers = within "perf.run" forest in
  let attributed =
    List.fold_left
      (fun acc (w : Obs.Span.info) ->
        List.fold_left (fun a (c : Obs.Span.info) -> a +. c.wall) acc w.children)
      0.0 wrappers
  in
  let stat name = Option.value ~default:0.0 (List.assoc_opt name stats) in
  [
    ("synth.optimize_frac", frac opt);
    ("synth.commit_flush_frac", frac flush);
    ("synth.verify_frac", frac (span_wall "cec.check" synth));
    ("synth.unattributed_frac", frac (opt -. flush -. canon));
    ("synth.passes", stat "synth.passes");
    ("synth.candidates", counter "engine.candidates");
    ("synth.realised", counter "engine.realised");
    ("synth.accepted", counter "engine.accepted");
    ("synth.extract_words", counter "extract.words");
    ("synth.worklist_popped", counter "engine.worklist_popped");
    ("synth.commit_waves", counter "engine.commit_waves");
    ("idcache.canon_frac", frac canon);
    ("idcache.hits", hits);
    ("idcache.npn_hits", npn);
    ("idcache.misses", misses);
    ("idcache.hit_rate", if lookups = 0.0 then 0.0 else (hits +. npn) /. lookups);
    ("cec.conflicts", counter "cec.conflicts");
    ("sat.conflicts", counter "sat.conflicts");
    ("sat.propagations", counter "sat.propagations");
    ("fault.campaign_frac", frac (span_wall "fsim.campaign" forest));
    ("fault.patterns", counter "fsim.patterns");
    ("fault.fault_scans", counter "fsim.fault_scans");
    ("atpg.podem_frac", frac (span_wall "perf.atpg.podem" forest));
    ("atpg.sat_frac", frac (span_wall "atpg.sat" forest));
    ("atpg.podem_decisions", counter "podem.decisions");
    ("atpg.podem_backtracks", counter "podem.backtracks");
    ("atpg.podem_aborted", counter "podem.aborted");
    ("atpg.sat_escalations", counter "atpg.sat_escalations");
    ("atpg.sat_redundant", counter "atpg.sat_redundant");
    ("atpg.coverage_pct", stat "atpg.coverage_pct");
    ("atpg.faults_undecided", stat "atpg.faults_undecided");
    ("redundancy.remove_frac", frac remove);
    ("redundancy.passes", stat "redundancy.passes");
    ("redundancy.removed", stat "redundancy.removed");
    ("redundancy.removed_sat", stat "redundancy.removed_sat");
    ( "redundancy.unattributed_frac",
      frac (remove -. span_wall "fsim.campaign" in_remove -. span_wall "atpg.sat" in_remove) );
    ("rar.optimize_frac", frac rar);
    ("rar.removal_passes", float_of_int (span_calls "fsim.campaign" in_rar));
    ("rar.additions", stat "rar.additions");
    ("rar.removals", stat "rar.removals");
    ( "rar.unattributed_frac",
      frac (rar -. span_wall "fsim.campaign" in_rar -. span_wall "atpg.sat" in_rar) );
    ("obs.attributed_frac", frac attributed);
    ("obs.traced_wall_s", wall);
  ]

let json_floats l = Obs_json.Obj (List.map (fun (k, v) -> (k, Obs_json.Float v)) l)

(* --- one repetition ------------------------------------------------------ *)

let run ~root ~smoke ~workload ~seed ~traced =
  let calib_s = calibrate () in
  let sources = sources ~root ~smoke workload in
  let setups_s = ref [] and parses_s = ref [] and loaded = ref [] in
  for _ = 1 to setups do
    let t0 = Unix.gettimeofday () in
    let l, parse_s = setup_once sources in
    setups_s := (Unix.gettimeofday () -. t0) :: !setups_s;
    parses_s := parse_s :: !parses_s;
    loaded := l
  done;
  let md5s = List.map (fun (label, md5, _) -> (label, Obs_json.String md5)) !loaded in
  let r = make workload ~seed (List.map (fun (label, _, c) -> (label, c)) !loaded) in
  Gc.full_major ();
  if traced then begin
    Obs.reset ();
    Obs.enable ()
  end;
  let gc0 = Gc.quick_stat () in
  let t0 = Unix.gettimeofday () in
  Obs.Span.with_ "perf.run" r.timed;
  let wall = Unix.gettimeofday () -. t0 in
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let layer =
    if not traced then []
    else begin
      let measured = layer_metrics ~wall ~stats:(r.stats ()) (Obs.Span.snapshot ()) in
      Obs.reset ();
      r.replay ();
      let replayed = Obs.Span.snapshot () in
      Obs.disable ();
      measured
      @ List.map
          (fun part ->
            ( "redundancy.replay_" ^ part ^ "_frac",
              span_wall ("perf.replay." ^ part) replayed /. wall ))
          [ "prefilter"; "podem"; "sat" ]
    end
  in
  let ops =
    List.map
      (fun op ->
        let failure =
          match op.oracle () with
          | Ok () -> None
          | Error e -> Some e
          | exception e -> Some (Printexc.to_string e)
        in
        let text = Bench_format.to_string op.output ^ op.extra () in
        Obs_json.Obj
          ([
             ("input", Obs_json.String op.label);
             ("wall_s", Obs_json.Float op.wall);
             ("gates2", Obs_json.Int (Circuit.two_input_gate_count op.output));
             ("paths", Obs_json.Int (Paths.total op.output));
             ("digest", Obs_json.String (Digest.to_hex (Digest.string text)));
           ]
          @ match failure with None -> [] | Some e -> [ ("error", Obs_json.String e) ]))
      r.ops
  in
  let words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  Obs_json.Obj
    [
      ("workload", Obs_json.String workload);
      ("traced", Obs_json.Bool traced);
      ("wall_s", Obs_json.Float wall);
      ("setup_s", Obs_json.Float (Stats.median !setups_s));
      ("parse_s", Obs_json.Float (Stats.median !parses_s));
      ("peak_rss_mb", Obs_json.Float rss);
      ("calib_s", Obs_json.Float calib_s);
      ( "gc",
        json_floats
          [
            ("gc.minor_gwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e9);
            ( "gc.major_collections",
              float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
            ("gc.top_heap_mb", words (float_of_int gc1.Gc.top_heap_words));
          ] );
      ("inputs", Obs_json.Obj md5s);
      ("ops", Obs_json.List ops);
      ("layer", json_floats layer);
    ]
