(* sft — command-line front end for the synthesis-for-testability library.

   Circuits are read from ISCAS-style .bench files ("-" reads stdin), or
   taken from the built-in benchmark registry with --bench NAME.

   Every subcommand that runs a computation accepts --metrics
   [text|json|FILE] and --journal FILE (observability, see Obs
   and DESIGN.md §9; the structured decision journal, DESIGN.md §16, is
   analysed with `sft report` and converted to a Chrome trace with
   `sft report --chrome`, §11). With --metrics json the metrics document
   owns stdout and all human-readable output moves to stderr, so
   `sft fsim --metrics json -` composes in a pipe. An output file that
   cannot be written ends the command with `sft: PATH: reason` and exit 1;
   journal and metrics files are checked before the command runs. *)

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("sft: " ^ msg);
      exit 1)
    fmt

(* [writing path f] runs [f], which writes [path], and turns a failure
   into [sft: PATH: reason]. Errors from opening a file already name it;
   errors from writing to it do not. *)
let writing path f =
  try f ()
  with Sys_error msg ->
    if String.starts_with ~prefix:(path ^ ": ") msg then die "%s" msg
    else die "%s: %s" path msg

(* Probe an output path before the work that fills it: creates no file
   and truncates none. *)
let check_writable path =
  let existed = Sys.file_exists path in
  writing path (fun () -> close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path));
  if not existed then Sys.remove path

(* A registry entry by name, or exit 1 with the bench harness's wording. *)
let find_bench name =
  try Benchmarks.find name with Not_found -> die "unknown benchmark %s (see sft list)" name

let load ~file ~bench =
  match (file, bench) with
  | Some "-", None -> (
    match Bench_format.parse ~name:"stdin" (In_channel.input_all In_channel.stdin) with
    | Ok c -> c
    | Error e -> die "stdin: %s" (Bench_format.error_to_string e))
  | Some f, None -> (
    match Bench_format.parse_file f with
    | Ok c -> c
    | Error e -> die "%s: %s" f (Bench_format.error_to_string e))
  | None, Some b -> Benchmarks.build (find_bench b)
  | Some _, Some _ -> die "give either FILE or --bench, not both"
  | None, None -> die "give a .bench FILE or --bench NAME"

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Input .bench netlist ($(b,-) reads standard input).")

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "bench" ] ~docv:"NAME"
        ~doc:"Use a built-in benchmark stand-in (irs1423, irs5378, ..., see $(b,sft list)).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Write the resulting netlist to OUT.")

let seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* An integer option [--FLAG] that must be at least [min]: a lower value
   ends the command with [sft: --FLAG N is below MIN] before it runs. *)
let int_at_least ?docv ~min flag default ~doc =
  let check n =
    if n < min then die "--%s %d is below %d" flag n min;
    n
  in
  Term.(const check $ Arg.value (Arg.opt Arg.int default (Arg.info [ flag ] ?docv ~doc)))

(* Checked here, before any subcommand runs: a pool wider than the
   runtime's domain limit would die spawning its workers. *)
let domains_arg =
  let check n =
    if n > Pool.max_domains then
      die "--domains %d is above the runtime's limit of %d" n Pool.max_domains;
    n
  in
  Term.(
    const check
    $ Arg.(
        value & opt int 0
        & info [ "domains" ] ~docv:"N"
            ~doc:
              (Printf.sprintf
                 "Computation domains for the parallel fan-out: 0 picks the \
                  recommended domain count, 1 forces the serial path, at \
                  most %d. Results are identical for every value."
                 Pool.max_domains)))

(* --- observability plumbing ---------------------------------------------- *)

type metrics =
  | MNone
  | MText
  | MJson
  | MFile of string

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"SINK"
        ~doc:
          "Collect observability metrics and emit them when the command \
           finishes: $(b,text) prints a readable dump, $(b,json) prints the \
           JSON document on stdout (human output moves to stderr), anything \
           else is a file path that receives the JSON.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Record a structured decision journal to FILE as JSONL while the \
           command runs: span closes, splice accepts/rollbacks with cut and \
           gain, PODEM aborts and their SAT-escalation outcomes, redundancy \
           proofs, CEC verdicts and periodic runtime (GC/RSS) samples, with \
           every counter in the footer. Analyse afterwards with \
           $(b,sft report), or convert it to a Chrome trace with \
           $(b,sft report --chrome). Implies metrics collection; results \
           are bit-identical with or without a journal.")

(* [with_obs ~cmd metrics journal body] runs [body ppf] with
   observability enabled as requested and exports the registry afterwards
   (also on failure, so an interrupted run still reports what it measured).
   [journal] opens an [Obs.Journal] destined for the given file and tagged
   with [cmd]; journaling needs the funnel counters, so it switches metrics
   collection on too. [ppf] is where the command's human-readable output
   goes: stderr when stdout carries JSON. *)
let with_obs ~cmd metrics journal body =
  let metrics =
    match metrics with
    | None -> MNone
    | Some "text" -> MText
    | Some "json" -> MJson
    | Some path -> MFile path
  in
  (match metrics with MFile path -> check_writable path | _ -> ());
  Option.iter check_writable journal;
  if metrics <> MNone then Obs.enable ();
  (match journal with
  | Some path ->
    Obs.enable ();
    Obs.Journal.start ~cmd path;
    (* Anchor the GC/RSS baselines so the first periodic sample reports a
       run-relative delta, not process-lifetime totals. *)
    Obs.Runtime.sample ()
  | None -> ());
  let ppf = if metrics = MJson then Format.err_formatter else Format.std_formatter in
  Fun.protect
    ~finally:(fun () ->
      Format.pp_print_flush ppf ();
      (match journal with
      | Some path ->
        Obs.Runtime.sample ();
        let s = writing path Obs.Journal.finish in
        if s.Obs.Journal.dropped > 0 then
          Printf.eprintf
            "sft: journal %s: %d event(s) dropped (buffer full or emitted off the main domain)\n"
            path s.Obs.Journal.dropped
      | None -> ());
      match metrics with
      | MNone -> ()
      | MText -> print_string (Obs.Export.to_text ())
      | MJson -> print_endline (Obs.Export.to_json ())
      | MFile path -> writing path (fun () -> Obs.Export.write_file path))
    (fun () -> body ppf)

let save ppf output c =
  match output with
  | Some path ->
    writing path (fun () -> Bench_format.write_file path c);
    Format.fprintf ppf "wrote %s@." path
  | None -> ()

let print_stats ppf c =
  let paths = try Table.int (Paths.total c) with Paths.Overflow -> "overflow" in
  Format.fprintf ppf
    "%s: inputs %d, outputs %d, gates %d (eq. 2-input %d), paths %s, depth %d (logic %d)@."
    (Circuit.name c) (Circuit.num_inputs c) (Circuit.num_outputs c)
    (Circuit.num_gates c)
    (Circuit.two_input_gate_count c)
    paths (Levelize.depth c) (Levelize.depth_logic c)

(* --- stats ---------------------------------------------------------------- *)

let stats_cmd =
  let run file bench metrics journal =
    with_obs ~cmd:"stats" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        print_stats ppf c)
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print circuit statistics (Procedure 1 path count included).")
    Term.(const run $ file_arg $ bench_arg $ metrics_arg $ journal_arg)

(* --- list ----------------------------------------------------------------- *)

let list_cmd =
  let run () =
    let t =
      Table.create ~title:"built-in benchmark stand-ins"
        ~columns:[ "name"; "inputs"; "outputs"; "paper 2-inp"; "paper paths" ]
    in
    List.iter
      (fun e ->
        Table.add_row t
          [
            e.Benchmarks.name;
            string_of_int e.Benchmarks.profile.Circuit_gen.n_pi;
            string_of_int e.Benchmarks.profile.Circuit_gen.n_po;
            Table.int e.Benchmarks.paper_gates2;
            Table.int e.Benchmarks.paper_paths;
          ])
      Benchmarks.all;
    Table.print t
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in benchmark stand-ins.")
    Term.(const run $ const ())

(* --- gen ------------------------------------------------------------------ *)

let gen_cmd =
  let run name raw output metrics journal =
    with_obs ~cmd:"gen" metrics journal (fun ppf ->
        let e = find_bench name in
        let c =
          if raw then Circuit_gen.generate e.Benchmarks.profile else Benchmarks.build e
        in
        print_stats ppf c;
        save ppf output c)
  in
  let name_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME") in
  let raw =
    Arg.(value & flag & info [ "raw" ] ~doc:"Skip the redundancy-removal preparation step.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark stand-in and optionally write it out.")
    Term.(const run $ name_arg $ raw $ output_arg $ metrics_arg $ journal_arg)

(* --- optimize ------------------------------------------------------------- *)

let optimize_cmd =
  let run file bench objective k engine budget no_merge dontcares units output metrics
      journal =
    with_obs ~cmd:"optimize" metrics journal (fun ppf ->
        if k < 1 || k > Engine.max_k then die "-k %d is outside 1..%d" k Engine.max_k;
        let c = load ~file ~bench in
        let objective =
          match objective with
          | "gates" -> Engine.Gates
          | "paths" -> Engine.Paths
          | other -> die "unknown objective %S" other
        in
        let engine =
          match engine with
          | "exact" -> Comparison_fn.Exact
          | "sampled" -> Comparison_fn.Sampled budget
          | other -> die "unknown engine %S" other
        in
        let options =
          {
            Engine.default_options with
            Engine.k;
            engine;
            merge = not no_merge;
            use_dontcares = dontcares;
            max_units = units;
          }
        in
        let stats = Engine.optimize objective options c in
        Format.fprintf ppf "%a@." Engine.pp_stats stats;
        print_stats ppf c;
        save ppf output c)
  in
  let objective =
    Arg.(
      value & opt string "gates"
      & info [ "objective" ] ~docv:"OBJ"
          ~doc:"$(b,gates) for Procedure 2, $(b,paths) for Procedure 3.")
  in
  let k = Arg.(value & opt int 6 & info [ "k" ] ~doc:"Subcircuit input limit K, 1 to 16.") in
  let engine =
    Arg.(
      value & opt string "exact"
      & info [ "engine" ] ~doc:"Identification engine: $(b,exact) or $(b,sampled).")
  in
  let budget =
    int_at_least ~min:1 "budget" 200 ~doc:"Permutation budget for --engine sampled."
  in
  let no_merge = Arg.(value & flag & info [ "no-merge" ] ~doc:"Disable chain-gate merging.") in
  let dontcares =
    Arg.(
      value & flag
      & info [ "dontcares" ]
          ~doc:"Exploit controllability don't-cares (paper Sec. 6, issue 1).")
  in
  let units =
    int_at_least ~min:1 "units" 1
      ~doc:"Allow covers of up to this many comparison units (Sec. 6, issue 2)."
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Resynthesise with comparison units (Procedures 2 and 3 of the paper).")
    Term.(
      const run $ file_arg $ bench_arg $ objective $ k $ engine $ budget $ no_merge
      $ dontcares $ units $ output_arg $ metrics_arg $ journal_arg)

(* --- check ----------------------------------------------------------------- *)

let check_cmd =
  let run file_a file_b budget domains metrics journal =
    let code =
      with_obs ~cmd:"check" metrics journal (fun ppf ->
          let a = load ~file:(Some file_a) ~bench:None in
          let b = load ~file:(Some file_b) ~bench:None in
          match Cec.check_stats ~budget ~domains:(Pool.domains_of_flag domains) a b with
          | exception Cec.Interface_mismatch msg ->
            die "%s vs %s: %s" file_a file_b msg
          | verdict, s ->
            Format.fprintf ppf
              "%s vs %s: %a (%d outputs solved, %d vars, %d clauses, %d \
               decisions, %d conflicts)@."
              file_a file_b Cec.pp_verdict verdict s.Cec.outputs_checked
              s.Cec.vars s.Cec.clauses s.Cec.decisions s.Cec.conflicts;
            (match verdict with
            | Cec.Counterexample v ->
              let ia = Circuit.inputs a in
              Array.iteri
                (fun i bit ->
                  let n =
                    match Circuit.node_name a ia.(i) with
                    | Some n -> n
                    | None -> Printf.sprintf "pi%d" i
                  in
                  Format.fprintf ppf "  %s = %d@." n (Bool.to_int bit))
                v;
              1
            | Cec.Equivalent -> 0
            | Cec.Unknown _ -> 2))
    in
    if code <> 0 then exit code
  in
  let file_a =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"First .bench netlist ($(b,-) reads standard input).")
  in
  let file_b =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Second .bench netlist.")
  in
  let budget =
    int_at_least ~docv:"N" ~min:0 "budget" Cec.default_budget
      ~doc:"SAT conflict budget per output miter; exhausted budget reports unknown."
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Prove two netlists functionally equivalent with a SAT miter \
          (DESIGN.md \xc2\xa710). Inputs and outputs are matched by name when both \
          sides carry complete unique name sets, positionally otherwise. Exit \
          status: 0 equivalent, 1 counterexample (printed as an input \
          assignment), 2 budget exhausted.")
    Term.(
      const run $ file_a $ file_b $ budget $ domains_arg $ metrics_arg $ journal_arg)

(* --- rar ------------------------------------------------------------------ *)

let rar_cmd =
  let run file bench additions trials seed output metrics journal =
    with_obs ~cmd:"rar" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        let options =
          { Rar.default_options with Rar.max_additions = additions; max_trials = trials; seed }
        in
        let stats = Rar.optimize ~options c in
        Format.fprintf ppf "%a@." Rar.pp_stats stats;
        print_stats ppf c;
        save ppf output c)
  in
  let additions = int_at_least ~min:0 "additions" 40 ~doc:"Accepted-addition budget." in
  let trials = int_at_least ~min:0 "trials" 400 ~doc:"Proof attempts per round." in
  Cmd.v
    (Cmd.info "rar" ~doc:"Redundancy-addition-and-removal baseline (RAMBO_C stand-in).")
    Term.(
      const run $ file_arg $ bench_arg $ additions $ trials $ seed_arg $ output_arg
      $ metrics_arg $ journal_arg)

(* --- redundancy ------------------------------------------------------------ *)

let redundancy_cmd =
  let run file bench seed output metrics journal =
    with_obs ~cmd:"redundancy" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        let report = Redundancy.remove ~seed c in
        Format.fprintf ppf "%a@." Redundancy.pp_report report;
        print_stats ppf c;
        save ppf output c)
  in
  Cmd.v
    (Cmd.info "redundancy"
       ~doc:
         "Remove stuck-at redundancies (the paper's [15] step); PODEM aborts \
          escalate to SAT.")
    Term.(
      const run $ file_arg $ bench_arg $ seed_arg $ output_arg $ metrics_arg $ journal_arg)

(* --- fsim ------------------------------------------------------------------ *)

(* Shared by fsim/atpg: summarise a SAT escalation and list every residual
   undecided fault with the conflict budget it exhausted. *)
let pp_escalation ppf c (esc : Sat_atpg.escalation) =
  Format.fprintf ppf "sat-atpg: escalated %d, tests %d, redundant %d, unknown %d@."
    esc.Sat_atpg.escalated
    (List.length esc.Sat_atpg.tests)
    (List.length esc.Sat_atpg.redundant)
    (List.length esc.Sat_atpg.unknown);
  List.iter
    (fun (f, budget) ->
      Format.fprintf ppf "  undecided %a (budget %d conflicts)@." (Fault.pp c) f
        budget)
    esc.Sat_atpg.unknown

let sat_atpg_flag =
  Arg.(
    value & flag
    & info [ "sat-atpg" ]
        ~doc:
          "Escalate every fault PODEM aborts to the exact SAT decision \
           procedure; proved-redundant faults are excluded from the coverage \
           denominator.")

let fsim_cmd =
  let run file bench patterns seed sat_atpg metrics journal =
    with_obs ~cmd:"fsim" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        let cfg = { Campaign.default with max_patterns = patterns; seed } in
        if not sat_atpg then
          Format.fprintf ppf "%a@." Campaign.pp_result (Campaign.exec cfg c)
        else begin
          let r, survivors = Campaign.exec_survivors cfg c in
          Format.fprintf ppf "%a@." Campaign.pp_result r;
          let stats = Podem.generate_all c survivors in
          Format.fprintf ppf "podem on %d survivors: tested %d, untestable %d, aborted %d@."
            (List.length survivors) stats.Podem.tested stats.Podem.untestable
            stats.Podem.aborted;
          let esc = Sat_atpg.escalate c stats.Podem.aborted_faults in
          pp_escalation ppf c esc;
          let detected =
            r.Campaign.detected + stats.Podem.tested
            + List.length esc.Sat_atpg.tests
          in
          let redundant =
            stats.Podem.untestable + List.length esc.Sat_atpg.redundant
          in
          let testable = r.Campaign.total_faults - redundant in
          let coverage =
            if testable = 0 then 100.0
            else 100.0 *. float_of_int detected /. float_of_int testable
          in
          Format.fprintf ppf
            "exact coverage: %d/%d testable faults (%.2f%%), %d redundant excluded@."
            detected testable coverage redundant
        end)
  in
  let patterns = int_at_least ~min:0 "patterns" 100_000 ~doc:"Random pattern budget." in
  Cmd.v
    (Cmd.info "fsim" ~doc:"Random-pattern stuck-at fault simulation campaign (Table 6).")
    Term.(
      const run $ file_arg $ bench_arg $ patterns $ seed_arg $ sat_atpg_flag
      $ metrics_arg $ journal_arg)

(* --- atpg ------------------------------------------------------------------ *)

let atpg_cmd =
  let run file bench limit sat_atpg metrics journal =
    with_obs ~cmd:"atpg" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        let faults = Fault.collapsed c in
        let stats = Podem.generate_all ~backtrack_limit:limit c faults in
        Format.fprintf ppf "faults %d: tested %d, untestable %d, aborted %d@."
          (List.length faults) stats.Podem.tested stats.Podem.untestable
          stats.Podem.aborted;
        if sat_atpg && stats.Podem.aborted > 0 then
          pp_escalation ppf c (Sat_atpg.escalate c stats.Podem.aborted_faults))
  in
  let limit =
    int_at_least ~min:0 "backtracks" Limits.default.Limits.podem_backtracks
      ~doc:"PODEM backtrack limit."
  in
  Cmd.v (Cmd.info "atpg" ~doc:"Run PODEM on every collapsed stuck-at fault.")
    Term.(
      const run $ file_arg $ bench_arg $ limit $ sat_atpg_flag $ metrics_arg
      $ journal_arg)

(* --- pdf ------------------------------------------------------------------ *)

let pdf_cmd =
  let run file bench pairs window domains seed metrics journal =
    with_obs ~cmd:"pdf" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        let r =
          Pdf_campaign.exec
            { Pdf_campaign.max_pairs = pairs; stop_window = window; domains; seed }
            c
        in
        Format.fprintf ppf "%a@." Pdf_campaign.pp_result r)
  in
  let pairs = int_at_least ~min:0 "pairs" 200_000 ~doc:"Two-pattern test budget." in
  let window =
    int_at_least ~min:0 "window" 20_000 ~doc:"Stop after this many ineffective pairs."
  in
  Cmd.v
    (Cmd.info "pdf"
       ~doc:"Random-pattern robust path-delay-fault campaign (Table 7).")
    Term.(
      const run $ file_arg $ bench_arg $ pairs $ window $ domains_arg $ seed_arg
      $ metrics_arg $ journal_arg)

(* --- map ------------------------------------------------------------------ *)

let map_cmd =
  let run file bench metrics journal =
    with_obs ~cmd:"map" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        let r = Mapper.map c in
        Format.fprintf ppf "%s: literals %d, longest path %d cells, cells used %d@."
          (Circuit.name c) r.Mapper.literals r.Mapper.longest r.Mapper.cells_used)
  in
  Cmd.v (Cmd.info "map" ~doc:"Technology-map the circuit and report literals/depth (Table 4).")
    Term.(const run $ file_arg $ bench_arg $ metrics_arg $ journal_arg)

(* --- identify --------------------------------------------------------------- *)

(* The table [identify] and [sop] read from [-n N MINTERMS]: N within the
   tables' arity range and every comma-separated minterm a number below
   2^N, or exit 1 naming the first bad argument. *)
let table_of_args n minterms =
  if n < 0 || n > Truthtable.max_arity then
    die "-n %d is outside 0..%d" n Truthtable.max_arity;
  let ms =
    String.split_on_char ',' minterms
    |> List.filter_map (fun s ->
           let s = String.trim s in
           if s = "" then None
           else
             match int_of_string_opt s with
             | None -> die "bad minterm %S" s
             | Some m when m < 0 || m >= 1 lsl n ->
               die "minterm %d is outside 0..%d" m ((1 lsl n) - 1)
             | Some m -> Some m)
  in
  Truthtable.of_minterms n ms

let identify_cmd =
  let run n minterms =
    let f = table_of_args n minterms in
    match Comparison_fn.identify_exact f with
    | None -> print_endline "not a comparison function (nor is its complement)"
    | Some spec ->
      Format.printf "comparison function: %a@." Comparison_fn.pp_spec spec;
      let built = Comparison_unit.build ~n spec in
      print_string (Comparison_unit.describe built)
  in
  let n = Arg.(required & opt (some int) None & info [ "n" ] ~doc:"Number of variables.") in
  let minterms =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MINTERMS" ~doc:"Comma-separated ON-set minterms, e.g. 1,5,6,9,10,14.")
  in
  Cmd.v
    (Cmd.info "identify"
       ~doc:"Identify a comparison function and print its comparison unit.")
    Term.(const run $ n $ minterms)

(* --- sop ------------------------------------------------------------------- *)

let sop_cmd =
  let run n minterms output metrics journal =
    with_obs ~cmd:"sop" metrics journal (fun ppf ->
        let f = table_of_args n minterms in
        let cover = Sop.minimise f in
        Format.fprintf ppf "%d cubes, %d literals:@." (List.length cover) (Sop.literals cover);
        List.iter (fun cube -> Format.fprintf ppf "  %a@." (Sop.pp_cube ~n) cube) cover;
        let c = Sop.to_circuit n cover in
        print_stats ppf c;
        save ppf output c)
  in
  let n = Arg.(required & opt (some int) None & info [ "n" ] ~doc:"Number of variables.") in
  let minterms =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"MINTERMS" ~doc:"Comma-separated ON-set minterms.")
  in
  Cmd.v
    (Cmd.info "sop" ~doc:"Minimise to two-level form (Quine-McCluskey) and build the netlist.")
    Term.(const run $ n $ minterms $ output_arg $ metrics_arg $ journal_arg)

(* --- pdfatpg ----------------------------------------------------------------- *)

let pdfatpg_cmd =
  let run file bench limit max_paths seed metrics journal =
    with_obs ~cmd:"pdfatpg" metrics journal (fun ppf ->
        let c = load ~file ~bench in
        (match Paths.total c with
        | n when n > max_paths ->
          die "%d paths are above the --max-paths cap of %d" n max_paths
        | _ -> ()
        | exception Paths.Overflow ->
          die "the path count overflows, above the --max-paths cap of %d" max_paths);
        let s = Pdf_atpg.classify_all ~backtrack_limit:limit ~max_paths ~seed c in
        Format.fprintf ppf "%a@." Pdf_atpg.pp_summary s)
  in
  let limit = int_at_least ~min:0 "backtracks" 2000 ~doc:"Justification budget per frame." in
  let max_paths = int_at_least ~min:1 "max-paths" 20_000 ~doc:"Path enumeration cap." in
  Cmd.v
    (Cmd.info "pdfatpg"
       ~doc:"Classify every path delay fault as robustly testable/untestable (exact ATPG).")
    Term.(const run $ file_arg $ bench_arg $ limit $ max_paths $ seed_arg $ metrics_arg $ journal_arg)

(* --- bench-diff -------------------------------------------------------------- *)

let bench_diff_cmd =
  let run old_file new_file threshold metrics =
    let metrics =
      match metrics with
      | None -> None
      | Some spec ->
        Some
          (String.split_on_char ',' spec
          |> List.map String.trim
          |> List.filter (fun s -> s <> ""))
    in
    let result = Bench_diff.diff_files ~threshold ?metrics old_file new_file in
    (match result with
    | Ok (report, _) -> print_string report
    | Error msg -> prerr_endline ("sft: bench-diff: " ^ msg));
    exit (Bench_diff.exit_code result)
  in
  let old_file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD" ~doc:"Baseline snapshot (bench harness $(b,--json) output).")
  in
  let new_file =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate snapshot to compare against OLD.")
  in
  let threshold =
    Arg.(
      value & opt float 5.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Regression tolerance in percent: a metric must be worse than OLD \
             by more than PCT to count as a regression (declared gates and \
             exact keys ignore the threshold). Use $(b,0) for a strict gate \
             on deterministic metrics.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"LIST"
          ~doc:
            (Printf.sprintf
               "Comma-separated threshold metrics to compare (default: all). \
                Known: %s. Declared gates and exact keys are always checked."
               (String.concat ", " Bench_diff.default_metrics)))
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Diff two bench-harness $(b,--json) snapshots and flag regressions. \
          Every gate a section declares must be true, and every section, \
          table row and exact value of OLD must be in NEW unchanged; \
          generated-circuit sizes, wall times and coverage counters are \
          compared against the threshold. Exit status: 0 no regression, 1 \
          regression, 2 incomparable (unreadable file, parse error, a \
          different schema version, mode or circuit scope, or nothing to \
          compare).")
    Term.(const run $ old_file $ new_file $ threshold $ metrics)

(* --- report ------------------------------------------------------------------ *)

let report_cmd =
  let run files diff json output chrome =
    let load path =
      match Run_report.load path with
      | Ok r -> r
      | Error msg -> die "%s" msg
    in
    let write path text =
      writing path (fun () ->
          Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text))
    in
    let emit text = match output with Some path -> write path text | None -> print_string text in
    match (chrome, diff) with
    | Some out, _ -> (
      match files with
      | [ file ] ->
        write out (Obs_json.to_string (Run_report.to_chrome (load file)) ^ "\n");
        Printf.printf "wrote %s\n" out
      | _ -> die "report: --chrome takes exactly one journal")
    | None, true -> (
      match files with
      | [ a; b ] ->
        let a = load a and b = load b in
        emit (Run_report.diff a b);
        if not (Run_report.funnel_ok a && Run_report.funnel_ok b) then exit 1
      | _ -> die "report: --diff takes exactly two journals")
    | None, false ->
      if files = [] then die "report: give at least one journal file";
      let runs = List.map load files in
      if json then
        emit (Obs_json.to_string (Run_report.to_json_value runs) ^ "\n")
      else
        emit (String.concat "" (List.map Run_report.render runs));
      List.iter
        (fun r ->
          if Run_report.dropped r > 0 then
            Printf.eprintf "sft: report: %s dropped %d event(s) at record time\n"
              (Run_report.path r) (Run_report.dropped r);
          if Run_report.truncated r then
            Printf.eprintf "sft: report: %s is truncated (no footer)\n"
              (Run_report.path r))
        runs;
      if not (List.for_all Run_report.funnel_ok runs) then begin
        prerr_endline "sft: report: decision-funnel invariant violated";
        exit 1
      end
  in
  let files =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"JOURNAL" ~doc:"Journal file(s) written by $(b,--journal).")
  in
  let diff =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Compare exactly two journals side by side (wall, funnel, GC, \
             per-phase wall) instead of reporting each one.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the report as a single JSON document (report_version 1) \
             with a top-level $(b,funnel_ok) conjunction for scripting.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"OUT"
          ~doc:
            "Instead of reporting, convert the one JOURNAL to a Chrome \
             trace-event JSON array in OUT (open with chrome://tracing or \
             Perfetto): each span becomes a complete slice on its domain's \
             thread, every other event an instant carrying its fields.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyse decision journals recorded with $(b,--journal): per-phase \
          wall/GC breakdown, the decision funnel (candidates, identified, \
          verified, committed), identification-source and SAT-escalation \
          tables; or, with $(b,--chrome), a Chrome trace of the run. Exit \
          status: 0 ok, 1 the decision-funnel invariant (committed <= \
          verified <= identified <= candidates) is violated or a file \
          cannot be read or written.")
    Term.(const run $ files $ diff $ json $ output_arg $ chrome)

let () =
  let doc = "synthesis-for-testability with comparison units (Pomeranz & Reddy, DAC'95)" in
  let info = Cmd.info "sft" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        stats_cmd;
        list_cmd;
        gen_cmd;
        optimize_cmd;
        check_cmd;
        rar_cmd;
        redundancy_cmd;
        fsim_cmd;
        atpg_cmd;
        pdf_cmd;
        map_cmd;
        identify_cmd;
        sop_cmd;
        pdfatpg_cmd;
        bench_diff_cmd;
        report_cmd;
      ]
  in
  exit (Cmd.eval group)
