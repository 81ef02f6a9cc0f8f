(* The sft benchmark runner (perf/README.md).

   Every repetition of a workload runs in a fresh child process — this
   executable with --child — one child at a time, so no repetition inherits
   another's heap or caches. Modes:

   - no mode flag: every workload, R untraced repetitions interleaved
     round-robin across workloads, then one traced repetition each; prints a
     table and writes the results document (--out);
   - --workload W --seed S --seconds T --trace 0|1: repetitions of one
     workload for about T seconds, printing one JSON result line whose
     metrics are the end-to-end ones (trace 0) or the per-layer ones
     (trace 1) declared in BENCHMARK.json;
   - --compare A B: compares two results documents with the bounds declared
     in BENCHMARK.json.

   Exit codes: 0 success; 1 a failed oracle, missing metric or run, or a
   `worse` verdict; 2 usage errors and incomparable or invalid documents. *)

let schema = "sft-perf/1"

(* --- one child ----------------------------------------------------------- *)

type op = {
  input : string;
  op_wall : float;
  gates2 : int;
  paths : int;
  digest : string;
  error : string option;
}

type rep = {
  traced : bool;
  wall : float;
  setup : float;
  parse : float;
  rss : float;
  calib : float;
  gc : (string * float) list;
  inputs : (string * string) list;
  ops : op list;
  layer : (string * float) list;
}

let floats json = List.map (fun (k, v) -> (k, Json.num v)) (Json.obj json)

let op_of_json json =
  {
    input = Json.str (Json.field "input" json);
    op_wall = Json.num (Json.field "wall_s" json);
    gates2 = Json.int (Json.field "gates2" json);
    paths = Json.int (Json.field "paths" json);
    digest = Json.str (Json.field "digest" json);
    error = Option.map Json.str (Obs_json.member "error" json);
  }

let rep_of_json json =
  let f k = Json.num (Json.field k json) in
  {
    traced = Json.bool (Json.field "traced" json);
    wall = f "wall_s";
    setup = f "setup_s";
    parse = f "parse_s";
    rss = f "peak_rss_mb";
    calib = f "calib_s";
    gc = floats (Json.field "gc" json);
    inputs = List.map (fun (k, v) -> (k, Json.str v)) (Json.obj (Json.field "inputs" json));
    ops = List.map op_of_json (Json.list (Json.field "ops" json));
    layer = floats (Json.field "layer" json);
  }

let rec wait pid =
  try snd (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

(* Run one repetition in a fresh process and wait for it to end. *)
let spawn ~smoke ~seed ~traced workload =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; workload; "--seed"; string_of_int seed; "--trace"; (if traced then "1" else "0") ]
    @ if smoke then [ "--smoke" ] else []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let out = In_channel.input_all ic in
  close_in ic;
  let last =
    match List.rev (String.split_on_char '\n' (String.trim out)) with l :: _ -> l | [] -> ""
  in
  match wait pid with
  | Unix.WEXITED 0 -> (
    try Ok (rep_of_json (Json.parse ~what:"child output" last))
    with Failure e -> Error (Printf.sprintf "%s child: %s" workload e))
  | Unix.WEXITED n -> Error (Printf.sprintf "%s child exited with code %d" workload n)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Error (Printf.sprintf "%s child stopped by signal %d" workload s)

(* --- summaries ----------------------------------------------------------- *)

type summary = {
  workload : string;
  attempted : int;  (** operations: one per input circuit per repetition *)
  failed : int;  (** operations whose child or oracle failed *)
  problems : string list;  (** every failure, including consistency checks *)
  digest : string;
  inputs : (string * string) list;
  end_to_end : (string * Stats.t) list;
  per_layer : (string * Stats.t) list;
  rows : (string * Stats.t * int * int) list;  (** input, wall, gates2, paths *)
}

let stats_of f = function [] -> None | l -> Some (Stats.of_values (List.map f l))

let named l = List.filter_map (fun (name, s) -> Option.map (fun s -> (name, s)) s) l

let summarise ~smoke workload results =
  let n_ops = Child.op_count ~smoke workload in
  let reps = List.filter_map Result.to_option results in
  let op_failures =
    List.concat_map
      (function
        | Error e -> List.init n_ops (fun _ -> e)
        | Ok r ->
          List.filter_map (fun o -> Option.map (fun e -> o.input ^ ": " ^ e) o.error) r.ops)
      results
  in
  let digest_of r =
    String.concat " " (List.sort compare (List.map (fun o -> o.input ^ "=" ^ o.digest) r.ops))
  in
  let distinct f = List.sort_uniq compare (List.map f reps) in
  let digests = distinct digest_of in
  let consistency =
    (if List.length digests > 1 then [ "outputs differ between repetitions" ] else [])
    @
    if List.length (distinct (fun r -> List.sort compare r.inputs)) > 1 then
      [ "inputs differ between repetitions" ]
    else []
  in
  let untraced = List.filter (fun r -> not r.traced) reps in
  let traced = List.filter (fun r -> r.traced) reps in
  let total f r = float_of_int (List.fold_left (fun a o -> a + f o) 0 r.ops) in
  let end_to_end =
    named
      [
        ("wall_s", stats_of (fun r -> r.wall) untraced);
        ("setup_s", stats_of (fun r -> r.setup) untraced);
        ("peak_rss_mb", stats_of (fun r -> r.rss) untraced);
        ("gates2_out", stats_of (total (fun o -> o.gates2)) untraced);
        ("paths_out", stats_of (total (fun o -> o.paths)) untraced);
      ]
  in
  let first_layer = match traced with r :: _ -> r.layer | [] -> [] in
  let first_gc = match untraced with r :: _ -> r.gc | [] -> [] in
  let overhead =
    match (stats_of (fun r -> r.wall) traced, stats_of (fun r -> r.wall) untraced) with
    | Some t, Some u -> Some (Stats.of_values [ 100.0 *. ((t.median /. u.median) -. 1.0) ])
    | _ -> None
  in
  let per_layer =
    named
      (List.map (fun (n, _) -> (n, stats_of (fun r -> List.assoc n r.layer) traced)) first_layer
      @ List.map (fun (n, _) -> (n, stats_of (fun r -> List.assoc n r.gc) untraced)) first_gc
      @ [
          ("netlist.parse_s", stats_of (fun r -> r.parse) untraced);
          ("host.calib_s", stats_of (fun r -> r.calib) untraced);
          ("obs.overhead_pct", overhead);
        ])
  in
  let rows =
    match untraced with
    | [] -> []
    | r0 :: _ ->
      List.map
        (fun o ->
          let walls =
            List.filter_map
              (fun r ->
                List.find_map (fun o' -> if o'.input = o.input then Some o'.op_wall else None) r.ops)
              untraced
          in
          (o.input, Stats.of_values walls, o.gates2, o.paths))
        r0.ops
  in
  {
    workload;
    attempted = List.length results * n_ops;
    failed = List.length op_failures;
    problems = op_failures @ consistency;
    digest = Digest.to_hex (Digest.string (match digests with d :: _ -> d | [] -> ""));
    inputs = (match reps with r :: _ -> r.inputs | [] -> []);
    end_to_end;
    per_layer;
    rows;
  }

(* The failures of a summary plus any mismatch between the metrics it holds
   and the ones BENCHMARK.json declares. *)
let problems ~(spec : Spec.t) ~end_to_end ~per_layer s =
  let check wanted what declared present =
    if not wanted then []
    else
      match Spec.check_names ~what declared (List.map fst present) with
      | Ok () -> []
      | Error e -> [ e ]
  in
  s.problems
  @ check end_to_end "end-to-end" spec.end_to_end s.end_to_end
  @ check per_layer "per-layer" spec.per_layer s.per_layer

(* --- running ------------------------------------------------------------- *)

let now = Unix.gettimeofday

(* The value a run reports for a metric. [wall_s] is the fastest untraced
   repetition: the work is deterministic and single-threaded, so host noise
   only ever adds time, and on a shared VM whose speed drifts for minutes
   the run minimum moved 2-4x less between runs than the run median.
   Everything else, set-up time included, is the median. *)
let run_value name (st : Stats.t) = if name = "wall_s" then st.min else st.median

(* Repetitions of one workload for about [seconds]: untraced runs take at
   least three repetitions; traced runs alternate an untraced and a traced
   repetition (the pair gives the tracing overhead). Another round starts
   only if it is expected to end within the budget. *)
let drive ~spec ~smoke ~seed ~seconds ~traced workload =
  let round = if traced then [ false; true ] else [ false ] in
  let min_rounds = if traced then 1 else 3 in
  let t0 = now () in
  let results = ref [] and rounds = ref 0 and last = ref 0.0 in
  let ok () = List.for_all Result.is_ok !results in
  while
    ok ()
    && (!rounds < min_rounds || now () -. t0 +. !last <= float_of_int seconds)
  do
    let r0 = now () in
    List.iter (fun traced -> results := spawn ~smoke ~seed ~traced workload :: !results) round;
    last := now () -. r0;
    incr rounds
  done;
  let s = summarise ~smoke workload (List.rev !results) in
  let problems = problems ~spec ~end_to_end:(not traced) ~per_layer:traced s in
  List.iter (fun p -> prerr_endline ("perf: " ^ workload ^ ": " ^ p)) problems;
  let declared, measured =
    if traced then (spec.Spec.per_layer, s.per_layer) else (spec.Spec.end_to_end, s.end_to_end)
  in
  let metrics =
    List.filter_map
      (fun (m : Spec.metric) ->
        Option.map
          (fun (st : Stats.t) ->
            ( m.name,
              Obs_json.Obj
                [
                  ("value", Obs_json.Float (run_value m.name st));
                  ("unit", Obs_json.String m.unit_);
                ]
            ))
          (List.assoc_opt m.name measured))
      declared
  in
  print_endline
    (Obs_json.to_string
       (Obs_json.Obj
          [
            ("correct", Obs_json.Bool (problems = []));
            ("attempted", Obs_json.Int s.attempted);
            ("failed", Obs_json.Int s.failed);
            ("metrics", Obs_json.Obj metrics);
          ]));
  if problems <> [] then exit 1

let summary_json ~(spec : Spec.t) s =
  let section declared measured =
    Obs_json.Obj
      (List.filter_map
         (fun (name, st) ->
           Option.map
             (fun (m : Spec.metric) -> (name, Stats.to_json ~unit_:m.unit_ st))
             (Spec.find declared name))
         measured)
  in
  let problems = problems ~spec ~end_to_end:true ~per_layer:true s in
  Obs_json.Obj
    [
      ("correct", Obs_json.Bool (problems = []));
      ("attempted", Obs_json.Int s.attempted);
      ("failed", Obs_json.Int s.failed);
      ("problems", Obs_json.List (List.map (fun p -> Obs_json.String p) problems));
      ("output_digest", Obs_json.String s.digest);
      ("end_to_end", section spec.end_to_end s.end_to_end);
      ("per_layer", section spec.per_layer s.per_layer);
      ( "ops",
        Obs_json.List
          (List.map
             (fun (input, wall, gates2, paths) ->
               Obs_json.Obj
                 [
                   ("input", Obs_json.String input);
                   ("wall_s", Stats.to_json ~unit_:"s" wall);
                   ("gates2", Obs_json.Int gates2);
                   ("paths", Obs_json.Int paths);
                 ])
             s.rows) );
    ]

let print_summary ~(spec : Spec.t) s =
  Printf.printf "\n%s  (%d operations, %d failed)\n" s.workload s.attempted s.failed;
  List.iter
    (fun (m : Spec.metric) ->
      match List.assoc_opt m.name s.end_to_end with
      | Some st ->
        Printf.printf "  %-14s %14.6g %-6s  [q1 %.6g, q3 %.6g, n %d]\n" m.name st.Stats.median
          m.unit_ st.q1 st.q3 st.n
      | None -> Printf.printf "  %-14s missing\n" m.name)
    spec.end_to_end;
  List.iter
    (fun (input, (wall : Stats.t), gates2, paths) ->
      Printf.printf "    %-34s %8.3f s  gates2 %6d  paths %d\n" input wall.median gates2 paths)
    s.rows;
  List.iter
    (fun name ->
      match List.assoc_opt name s.per_layer with
      | Some st -> Printf.printf "  %-22s %.4g\n" name st.Stats.median
      | None -> ())
    [ "obs.attributed_frac"; "obs.overhead_pct" ]

(* R untraced repetitions interleaved round-robin across the workloads, so
   host drift hits every workload alike, then one traced repetition each. *)
let report ~(spec : Spec.t) ~smoke ~seed ~reps ~out =
  let results = Hashtbl.create 8 in
  let add w r = Hashtbl.replace results w (r :: Option.value ~default:[] (Hashtbl.find_opt results w)) in
  for _ = 1 to reps do
    List.iter (fun w -> add w (spawn ~smoke ~seed ~traced:false w)) spec.workloads
  done;
  List.iter (fun w -> add w (spawn ~smoke ~seed ~traced:true w)) spec.workloads;
  let summaries =
    List.map (fun w -> summarise ~smoke w (List.rev (Hashtbl.find results w))) spec.workloads
  in
  List.iter (print_summary ~spec) summaries;
  let doc =
    Obs_json.Obj
      [
        ("schema", Obs_json.String schema);
        ("smoke", Obs_json.Bool smoke);
        ("seed", Obs_json.Int seed);
        ("reps", Obs_json.Int reps);
        ("nproc", Obs_json.Int (Domain.recommended_domain_count ()));
        ( "inputs",
          Obs_json.Obj
            (List.sort_uniq compare
               (List.concat_map
                  (fun s -> List.map (fun (k, v) -> (k, Obs_json.String v)) s.inputs)
                  summaries)) );
        ("workloads", Obs_json.Obj (List.map (fun s -> (s.workload, summary_json ~spec s)) summaries));
      ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (Obs_json.to_string doc);
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" out;
  let bad =
    List.concat_map
      (fun s ->
        List.map (fun p -> s.workload ^ ": " ^ p) (problems ~spec ~end_to_end:true ~per_layer:true s))
      summaries
  in
  List.iter (fun p -> prerr_endline ("perf: " ^ p)) bad;
  if bad <> [] then exit 1

(* --- comparing documents -------------------------------------------------- *)

type doc = {
  header : (string * Obs_json.t) list;  (** what must match to compare *)
  metrics : (string * (string * Stats.t) list) list;  (** workload -> end-to-end *)
}

(* A document is valid when it holds every declared workload and metric and
   every oracle passed; anything else is refused, never read as a default. *)
let read_doc ~(spec : Spec.t) path =
  try
    let json = Json.read_file path in
    if Json.str (Json.field "schema" json) <> schema then failwith "unknown schema";
    let workloads = Json.obj (Json.field "workloads" json) in
    (match List.find_opt (fun (w, _) -> not (List.mem w spec.workloads)) workloads with
    | Some (w, _) -> failwith ("undeclared workload " ^ w)
    | None -> ());
    let metrics =
      List.map
        (fun w ->
          let wj =
            match List.assoc_opt w workloads with
            | Some j -> j
            | None -> failwith ("workload " ^ w ^ " is missing")
          in
          if not (Json.bool (Json.field "correct" wj)) || Json.int (Json.field "failed" wj) <> 0
          then failwith (w ^ ": failed operations or oracles");
          let section name declared =
            let present = Json.obj (Json.field name wj) in
            match Spec.check_names ~what:name declared (List.map fst present) with
            | Ok () -> present
            | Error e -> failwith (w ^ ": " ^ e)
          in
          ignore (section "per_layer" spec.per_layer);
          (w, List.map (fun (m, j) -> (m, Stats.of_json j)) (section "end_to_end" spec.end_to_end)))
        spec.workloads
    in
    Ok
      {
        header = List.map (fun k -> (k, Json.field k json)) [ "smoke"; "seed"; "reps"; "nproc"; "inputs" ];
        metrics;
      }
  with Failure e | Sys_error e -> Error (path ^ ": " ^ e)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Worse or better by more than the bound; when either side's spread exceeds
   the bound, only a complete separation of the runs decides. *)
let verdict (m : Spec.metric) (a : Stats.t) (b : Stats.t) =
  let worse_by = if m.lower_is_better then b.median -. a.median else a.median -. b.median in
  let rel =
    if a.median <> 0.0 then worse_by /. Float.abs a.median
    else if worse_by = 0.0 then 0.0
    else Float.copy_sign Float.infinity worse_by
  in
  let all_better = if m.lower_is_better then b.max < a.min else b.min > a.max in
  let all_worse = if m.lower_is_better then b.min > a.max else b.max < a.min in
  if Float.max (Stats.spread a) (Stats.spread b) > m.bound then
    if all_better then Better else if all_worse then Worse else Unresolved
  else if rel > m.bound then Worse
  else if rel < -.m.bound then Better
  else Same

let compare_docs ~(spec : Spec.t) path_a path_b =
  match (read_doc ~spec path_a, read_doc ~spec path_b) with
  | Error e, _ | _, Error e ->
    prerr_endline ("perf: " ^ e);
    exit 2
  | Ok a, Ok b ->
    List.iter
      (fun (k, v) ->
        if List.assoc k b.header <> v then begin
          Printf.eprintf "perf: incomparable documents: %s differs\n" k;
          exit 2
        end)
      a.header;
    Printf.printf "%-8s %-12s %14s %9s %14s %9s %8s  %s\n" "workload" "metric" "A median" "A IQR"
      "B median" "B IQR" "bound" "verdict";
    let worse = ref false in
    List.iter
      (fun w ->
        List.iter
          (fun (m : Spec.metric) ->
            let sa = List.assoc m.name (List.assoc w a.metrics) in
            let sb = List.assoc m.name (List.assoc w b.metrics) in
            let v = verdict m sa sb in
            if v = Worse then worse := true;
            Printf.printf "%-8s %-12s %14.6g %8.2f%% %14.6g %8.2f%% %7.0f%%  %s\n" w m.name sa.median
              (100.0 *. Stats.spread sa) sb.median (100.0 *. Stats.spread sb) (100.0 *. m.bound)
              (verdict_name v))
          spec.end_to_end)
      spec.workloads;
    if !worse then exit 1

(* --- command line ---------------------------------------------------------- *)

let () =
  let workload = ref "" and child = ref "" and seed = ref 0 and seconds = ref 0 in
  let trace = ref 0 and smoke = ref false and out = ref "perf-results.json" in
  let doc_a = ref "" and doc_b = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  run one workload for --seconds and print one JSON line");
      ("--seed", Arg.Set_int seed, "N  seed of the oracles' random-simulation vectors (default 0)");
      ("--seconds", Arg.Set_int seconds, "T  measuring time of a --workload run");
      ( "--trace",
        Arg.Int (fun v -> if v = 0 || v = 1 then trace := v else raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1  report the end-to-end (0) or the per-layer (1) metrics" );
      ("--smoke", Arg.Set smoke, " tiny inputs (c17 and a 130-gate generated circuit)");
      ("--out", Arg.Set_string out, "FILE  results document (default perf-results.json)");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string doc_a; Arg.Set_string doc_b ],
        "A B  compare two results documents" );
      ("--child", Arg.Set_string child, "NAME  (internal) one repetition in this process");
    ]
  in
  let usage = "perf/main.exe [--workload NAME --seed N --seconds T --trace 0|1] [--compare A B] [--smoke]" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let usage_error msg =
    prerr_endline ("perf: " ^ msg);
    exit 2
  in
  let root =
    match Spec.find_root () with
    | Some r -> r
    | None -> usage_error (Spec.file ^ " not found here or in a parent directory")
  in
  let spec = try Spec.load root with Failure e | Sys_error e -> usage_error e in
  if List.sort compare spec.workloads <> List.sort compare Child.workloads then
    usage_error (Spec.file ^ " declares other workloads than perf/child.ml defines");
  let known w = if not (List.mem w spec.workloads) then usage_error ("unknown workload " ^ w) in
  if !child <> "" then begin
    known !child;
    match Child.run ~root ~smoke:!smoke ~workload:!child ~seed:!seed ~traced:(!trace = 1) with
    | json -> print_endline (Obs_json.to_string json)
    | exception e ->
      prerr_endline ("perf: " ^ !child ^ ": " ^ Printexc.to_string e);
      exit 1
  end
  else if !doc_a <> "" then compare_docs ~spec !doc_a !doc_b
  else if !workload <> "" then begin
    known !workload;
    if !seconds < 1 then usage_error "--workload needs --seconds of at least 1";
    drive ~spec ~smoke:!smoke ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) !workload
  end
  else report ~spec ~smoke:!smoke ~seed:!seed ~reps:(if !smoke then 1 else 5) ~out:!out
