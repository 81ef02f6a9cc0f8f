(* Bench harness: regenerates every table and figure of the paper.

   Usage: dune exec bench/main.exe [-- OPTIONS]
     --quick        smaller pattern budgets / single K (for CI-style runs)
     --full         paper-scale budgets where feasible
     --only IDS     comma-separated subset of: figures,table1,table2,table3,
                    table4,table5,table6,table7,cec,ablations,micro,kernels,
                    incremental,idcache,sat_atpg
     --only-circuits NAMES
                    comma-separated benchmark filter (e.g. irs1423,irs5378)
                    applied to the per-circuit sections (table2-7, cec);
                    lets small machines produce a complete, reproducible
                    snapshot of the circuits they can carry
     --json FILE    write a machine-readable BENCH_results.json snapshot
                    (per-section wall clock, circuit sizes, parallel
                    speedups and the observability registry; schema in
                    DESIGN.md "Parallel execution" and §9)
     --domains N    domain budget for the parallel kernels (0 or omitted
                    picks Pool.default_domains (), i.e. recommended - 1;
                    resolved by Pool.domains_of_flag like the CLI flag;
                    at most Pool.max_domains)
     --metrics SINK observability export: "text" prints a readable dump,
                    "json" prints the JSON document, anything else is a
                    file path receiving the JSON (see DESIGN.md §9)
     --trace        print the span trace tree when the run finishes
     --trace-out FILE
                    record begin/end/instant events during the run and
                    write them to FILE as a Chrome trace-event JSON array
                    (chrome://tracing / Perfetto; see DESIGN.md §11)
   Every table prints our measured rows next to the paper's published rows;
   absolute numbers differ (synthetic stand-in circuits, scaled budgets) but
   the qualitative shape is the claim under test. EXPERIMENTS.md records a
   snapshot of this output. *)

let quick = ref false
let only : string list ref = ref []
let only_circuits : string list ref = ref []
let json_file : string option ref = ref None
let domains = ref (Pool.default_domains ())
let metrics : string option ref = ref None
let trace = ref false
let trace_out : string option ref = ref None

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--full" :: rest ->
      quick := false;
      parse rest
    | "--only" :: ids :: rest | "--only-sections" :: ids :: rest ->
      only := String.split_on_char ',' ids;
      parse rest
    | "--only-circuits" :: names :: rest ->
      only_circuits := String.split_on_char ',' names;
      List.iter
        (fun n ->
          if not (List.exists (fun e -> e.Benchmarks.name = n) Benchmarks.all)
          then begin
            Printf.eprintf "error: unknown benchmark %s (see `sft list`)\n" n;
            exit 2
          end)
        !only_circuits;
      parse rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | "--metrics" :: sink :: rest ->
      metrics := Some sink;
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--trace-out" :: file :: rest ->
      trace_out := Some file;
      parse rest
    | "--domains" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n > Pool.max_domains ->
        Printf.eprintf "error: --domains %d is above the runtime's limit of %d\n" n
          Pool.max_domains;
        exit 2
      | Some n -> domains := Pool.domains_of_flag n
      | None ->
        Printf.eprintf "error: --domains expects an integer, got %s\n" n;
        exit 2);
      parse rest
    | other :: _ ->
      (* A typo'd flag must not silently fall through to a full-scale run. *)
      Printf.eprintf
        "error: unknown argument %s\n\
         usage: main.exe [--quick|--full] [--only-sections IDS] \
         [--only-circuits NAMES] [--json FILE] [--domains N] \
         [--metrics text|json|FILE] [--trace] [--trace-out FILE]\n\
         (--only is an alias of --only-sections)\n"
        other;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* The JSON snapshot always embeds the observability registry, so collect
     whenever any sink wants it. *)
  if !metrics <> None || !trace || !json_file <> None then Obs.enable ();
  if !trace_out <> None then Obs.Trace.enable ()

let enabled id = !only = [] || List.mem id !only

let circuit_enabled e =
  !only_circuits = [] || List.mem e.Benchmarks.name !only_circuits

let bench_all () = List.filter circuit_enabled Benchmarks.all
let bench_small () = List.filter circuit_enabled Benchmarks.small

(* CPU time for the per-section progress lines (historic behaviour) ... *)
let now () = Sys.time ()

(* ... but wall clock for everything recorded in the JSON snapshot: the
   whole point of the parallel kernels is wall-clock speedup. Obs.now is
   the observability layer's (non-monotonic) clock, hence the clamps. *)
let wall () = Obs.now ()

let time_wall f =
  let t0 = wall () in
  let r = f () in
  (r, max 0. (wall () -. t0))

(* --- JSON snapshot accumulators ----------------------------------------- *)

type speedup_row = {
  sp_kernel : string;
  sp_circuit : string;
  sp_domains : int;
  sp_serial : float;
  sp_parallel : float;
  sp_identical : bool;
}

(* Word-parallel kernels (DESIGN.md §12): baseline = the scalar reference,
   accelerated = the shipping bit-parallel/cached path, on one domain. *)
type kernel_row = {
  kr_kernel : string;
  kr_baseline_ns : float;
  kr_accel_ns : float;
  kr_identical : bool;
}

(* Incremental resynthesis (DESIGN.md §13, §17): the cost of a second pass
   on a large synthetic circuit, the reference full walk vs the production
   worklist walk, plus the pop counter and the bit-identity check CI gates
   on. *)
type incr_row = {
  in_circuit : string;
  in_domains : int;
  in_pass2_cuts_full : int;
  in_pass2_cuts_incr : int;
  in_reenum_fraction : float;
  in_pass2_full_s : float;
  in_pass2_incr_s : float;
  in_speedup : float;
  in_popped : int;
  in_total_roots : int; (* full-walk visit bound: passes x circuit size *)
  in_pop_fraction : float;
  in_identical : bool; (* reference = production = production on the pool *)
  in_gate_ok : bool; (* identical && speedup >= 1 && fraction < 1 && pop fraction < 1 *)
}

(* Persistent identification cache (DESIGN.md §15): lookup traffic of the
   same resynthesis run cold (empty store), warm (the store the cold run
   published) and with the cache off, plus the bit-identity and hit-rate
   checks CI gates on. *)
type idc_row = {
  ic_circuit : string;
  ic_cold_hits : int;
  ic_cold_misses : int;
  ic_warm_hits : int;
  ic_warm_disk_hits : int;
  ic_warm_misses : int;
  ic_cold_hit_rate : float;
  ic_warm_hit_rate : float;
  ic_identical : bool; (* off = cold = warm *)
  ic_gate_ok : bool;
      (* identical && warm disk hits > 0 && warm misses = 0 (the store
         answers every lookup of a deterministic rerun) && warm rate >=
         cold rate *)
}

(* SAT-powered ATPG (DESIGN.md §14): how many faults the bounded PODEM
   search abandons, and how many of those the exact SAT escalation settles
   (test found or redundancy proved). [sa_escalation_ok] is the CI gate:
   no fault may remain undecided after escalation. *)
type sat_atpg_row = {
  sa_circuit : string;
  sa_survivors : int;
  sa_aborted_before : int;
  sa_sat_tests : int;
  sa_sat_redundant : int;
  sa_aborted_after : int;
  sa_conflict_budget : int;
  sa_escalation_ok : bool;
  sa_seconds : float;
}

(* Decision journal (DESIGN.md §16): the same resynthesis run with and
   without a journal attached. [jr_identical] is the bit-identity gate
   (journaling never perturbs results); [jr_gate_ok] additionally requires
   the journal to load cleanly, record events, and satisfy the decision-
   funnel invariant. *)
type journal_row = {
  jr_circuit : string;
  jr_events : int;
  jr_dropped : int;
  jr_plain_s : float;
  jr_journal_s : float;
  jr_overhead_pct : float;
  jr_identical : bool; (* plain = journaled *)
  jr_funnel_ok : bool;
  jr_gate_ok : bool;
}

let json_sections : (string * string * float) list ref = ref []
let json_circuits : (string * int * int * int * int) list ref = ref []
let json_speedups : speedup_row list ref = ref []
let json_kernels : kernel_row list ref = ref []
let json_incremental : incr_row list ref = ref []
let json_idcache : idc_row list ref = ref []
let json_sat_atpg : sat_atpg_row list ref = ref []
let json_journal : journal_row list ref = ref []

let record_circuit name c =
  let row =
    ( name,
      Circuit.num_inputs c,
      Circuit.num_outputs c,
      Circuit.two_input_gate_count c,
      try Paths.total c with Paths.Overflow -> -1 )
  in
  if not (List.mem row !json_circuits) then json_circuits := row :: !json_circuits

let section id title f =
  if enabled id then begin
    Printf.printf "\n################ %s — %s\n%!" id title;
    let t0 = now () in
    let w0 = wall () in
    Obs.Span.with_ ("bench." ^ id) f;
    json_sections := (id, title, max 0. (wall () -. w0)) :: !json_sections;
    Printf.printf "[%s done in %.1fs cpu]\n%!" id (now () -. t0)
  end

(* ------------------------------------------------------------------ *)
(* Shared circuit versions, computed once per benchmark name.          *)
(* ------------------------------------------------------------------ *)

let memo : (string, Circuit.t) Hashtbl.t = Hashtbl.create 32

(* Derived circuits (Procedure 2/3, RAR, ...) are deterministic, so they are
   also cached on disk; re-runs and partial runs (--only) then skip the
   expensive resynthesis. Delete data/cache to recompute from scratch. *)
let cache_dir = "data/cache"

let version name variant build =
  let mode = if !quick then "quick" else "full" in
  let key = name ^ "/" ^ variant ^ "/" ^ mode in
  let file = Printf.sprintf "%s/%s.%s.%s.bench" cache_dir name variant mode in
  match Hashtbl.find_opt memo key with
  | Some c -> Circuit.copy c
  | None ->
    let c =
      if Sys.file_exists file then Bench_format.read_file file
      else begin
        let c = build () in
        if Sys.file_exists cache_dir && Sys.is_directory cache_dir then
          Bench_format.write_file file c;
        c
      end
    in
    Hashtbl.replace memo key c;
    Circuit.copy c

let original e = version e.Benchmarks.name "orig" (fun () -> Benchmarks.build e)

let proc2_options k = { Engine.default_options with Engine.k }

(* Procedure 2 with the paper's protocol: try K = 5 and K = 6, keep the best
   circuit (fewest 2-input gates, then fewest paths). In quick mode only
   K = 5 runs. *)
let proc2 e =
  version e.Benchmarks.name "p2" (fun () ->
      let run k =
        let c = original e in
        ignore (Procedure2.run ~options:(proc2_options k) c);
        c
      in
      let candidates = if !quick then [ run 5 ] else [ run 5; run 6 ] in
      let score c = (Circuit.two_input_gate_count c, Paths.total c) in
      List.sort (fun a b -> compare (score a) (score b)) candidates |> List.hd)

let proc2_redrem e =
  version e.Benchmarks.name "p2rr" (fun () ->
      let c = proc2 e in
      ignore (Redundancy.remove ~seed:31L c);
      c)

let proc3 e =
  version e.Benchmarks.name "p3" (fun () ->
      let c = original e in
      let k = if !quick then 5 else 6 in
      ignore (Procedure3.run ~options:(proc2_options k) c);
      c)

let rar e =
  version e.Benchmarks.name "rar" (fun () ->
      let c = original e in
      let options =
        {
          Rar.default_options with
          Rar.max_additions = (if !quick then 8 else 15);
          max_trials = (if !quick then 60 else 150);
          seed = 17L;
        }
      in
      ignore (Rar.optimize ~options c);
      c)

let rar_proc2 e =
  version e.Benchmarks.name "rar+p2" (fun () ->
      let c = rar e in
      ignore (Procedure2.run ~options:(proc2_options (if !quick then 5 else 6)) c);
      c)

let gates2 = Circuit.two_input_gate_count
let paths c = try Paths.total c with Paths.Overflow -> -1

(* ------------------------------------------------------------------ *)
(* Figures 1-6 and Table 1                                              *)
(* ------------------------------------------------------------------ *)

let figures () =
  let show title b =
    Printf.printf "%s\n%s" title (Comparison_unit.describe b)
  in
  let f2 = Truthtable.of_minterms 4 [ 1; 5; 6; 9; 10; 14 ] in
  (match Comparison_fn.identify_exact f2 with
  | Some spec ->
    Format.printf "f2 {1,5,6,9,10,14} identified: %a@." Comparison_fn.pp_spec spec;
    show "Figure 1: comparison unit for f2 (L=5, U=10 after permutation)"
      (Comparison_unit.build ~n:4 spec)
  | None -> print_endline "BUG: f2 not identified");
  show "Figure 3(a): >= 3 block" (Comparison_unit.build_interval ~lo:3 ~hi:15 4);
  show "Figure 3(b): >= 12 block" (Comparison_unit.build_interval ~lo:12 ~hi:15 4);
  show "Figure 3(c): <= 12 block" (Comparison_unit.build_interval ~lo:0 ~hi:12 4);
  show "Figure 3(d): <= 3 block" (Comparison_unit.build_interval ~lo:0 ~hi:3 4);
  show "Figure 4: >= 7 unit with merged AND gates"
    (Comparison_unit.build_interval ~lo:7 ~hi:15 4);
  show "Figure 5-like: free variables, L=5 U=7"
    (Comparison_unit.build_interval ~lo:5 ~hi:7 4);
  show "Figure 6: unit for L=11, U=12" (Comparison_unit.build_interval ~lo:11 ~hi:12 4)

let table1 () =
  (* The complete robust test set of the Figure 6 unit. The paper's Table 1
     lists one (pair of) tests per structural path fault; we generate and
     verify ours mechanically. *)
  let b = Comparison_unit.build_interval ~lo:11 ~hi:12 4 in
  let r = Unit_testgen.generate b in
  let t =
    Table.create ~title:"Table 1 — robust tests for the L=11,U=12 unit"
      ~columns:[ "path"; "transition"; "v1 -> v2" ]
  in
  let c = b.Comparison_unit.circuit in
  List.iter
    (fun test ->
      let name id =
        match Circuit.node_name c id with Some s -> s | None -> string_of_int id
      in
      let vec v =
        String.concat ""
          (Array.to_list (Array.map (fun x -> if x then "1" else "0") v))
      in
      Table.add_row t
        [
          String.concat "-" (Array.to_list (Array.map name test.Unit_testgen.path));
          Robust.direction_to_string test.Unit_testgen.direction;
          vec test.Unit_testgen.v1 ^ " -> " ^ vec test.Unit_testgen.v2;
        ])
    r.Unit_testgen.tests;
  Table.print t;
  Printf.printf
    "untestable path faults: %d (paper: comparison units are fully robustly testable)\n"
    (List.length r.Unit_testgen.untested)

(* ------------------------------------------------------------------ *)
(* Table 2 — Procedure 2                                               *)
(* ------------------------------------------------------------------ *)

(* paper rows: gates orig/modif/redrem, paths orig/modif/redrem
   (-1 where the paper omits the redundancy-removal column) *)
let paper_table2 =
  [
    ("irs1423", (491, 490, 488), (42_089, 37_293, 37_278));
    ("irs5378", (1394, 1388, -1), (10_976, 10_581, -1));
    ("irs9234", (1929, 1784, 1783), (109_283, 20_333, 20_330));
    ("irs13207", (2737, 2537, -1), (261_312, 85_174, -1));
    ("irs15850", (3361, 3115, 3107), (23_003_369, 3_635_532, 3_584_511));
    ("irs35932", (9900, 8497, -1), (58_645, 20_898, -1));
    ("irs38417", (9698, 9344, 9316), (1_192_971, 674_081, 672_121));
    ("irs38584", (12037, 11773, -1), (565_433, 157_979, -1));
  ]

let opt_int v = if v < 0 then "-" else Table.int v

let table2 () =
  let t =
    Table.create ~title:"Table 2 — Procedure 2 (2-input gates and paths)"
      ~columns:
        [
          "circuit"; "which"; "g.orig"; "g.modif"; "g.red.rem"; "p.orig";
          "p.modif"; "p.red.rem";
        ]
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let orig = original e in
      let p2 = proc2 e in
      let p2rr = proc2_redrem e in
      Table.add_row t
        [
          name; "ours";
          Table.int (gates2 orig); Table.int (gates2 p2); Table.int (gates2 p2rr);
          Table.int (paths orig); Table.int (paths p2); Table.int (paths p2rr);
        ];
      match List.find_opt (fun (n, _, _) -> n = name) paper_table2 with
      | Some (_, (g1, g2, g3), (p1, p2v, p3v)) ->
        Table.add_row t
          [
            name; "paper";
            Table.int g1; Table.int g2; opt_int g3;
            Table.int p1; Table.int p2v; opt_int p3v;
          ]
      | None -> ())
    (bench_all ());
  Table.print t

(* ------------------------------------------------------------------ *)
(* Table 3 — comparison with RAMBO_C                                   *)
(* ------------------------------------------------------------------ *)

let paper_table3 =
  [
    ("irs1423", (491, 42_089), (448, 54_596), (448, 50_000));
    ("irs5378", (1394, 10_976), (1248, 12_235), (1242, 11_552));
    ("irs9234", (1929, 109_283), (1539, 32_376), (1497, 23_133));
    ("irs13207", (2737, 261_312), (2266, 577_911), (2171, 163_525));
  ]

let table3 () =
  let t =
    Table.create ~title:"Table 3 — RAR baseline vs RAR + Procedure 2"
      ~columns:
        [
          "circuit"; "which"; "orig 2-inp"; "orig paths"; "RAR 2-inp";
          "RAR paths"; "RAR+P2 2-inp"; "RAR+P2 paths";
        ]
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let orig = original e in
      let r = rar e in
      let rp = rar_proc2 e in
      Table.add_row t
        [
          name; "ours";
          Table.int (gates2 orig); Table.int (paths orig);
          Table.int (gates2 r); Table.int (paths r);
          Table.int (gates2 rp); Table.int (paths rp);
        ];
      match List.find_opt (fun (n, _, _, _) -> n = name) paper_table3 with
      | Some (_, (g0, p0), (g1, p1), (g2, p2)) ->
        Table.add_row t
          [
            name; "paper";
            Table.int g0; Table.int p0; Table.int g1; Table.int p1;
            Table.int g2; Table.int p2;
          ]
      | None -> ())
    (bench_small ());
  Table.print t;
  print_endline
    "shape under test: RAR reduces gates more than Procedure 2 but tends to increase\n\
     paths; running Procedure 2 afterwards recovers gates AND cuts paths."

(* ------------------------------------------------------------------ *)
(* Table 4 — technology mapping                                         *)
(* ------------------------------------------------------------------ *)

let paper_table4a =
  [
    ("irs1423", ((1035, 72), (1031, 70)));
    ("irs5378", ((2607, 17), (2610, 16)));
    ("irs9234", ((3817, 30), (3577, 30)));
    ("irs13207", ((5443, 31), (5004, 31)));
  ]

let paper_table4b =
  [
    ("irs1423", ((959, 68), (956, 66)));
    ("irs5378", ((2413, 20), (2428, 20)));
    ("irs9234", ((3140, 30), (3090, 30)));
    ("irs13207", ((4591, 35), (4487, 35)));
  ]

let table4 () =
  let ta =
    Table.create ~title:"Table 4(a) — technology mapping: original vs Procedure 2"
      ~columns:[ "circuit"; "which"; "lit orig"; "longest"; "lit P2"; "longest P2" ]
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let m0 = Mapper.map (original e) in
      let m2 = Mapper.map (proc2 e) in
      Table.add_row ta
        [
          name; "ours";
          Table.int m0.Mapper.literals; string_of_int m0.Mapper.longest;
          Table.int m2.Mapper.literals; string_of_int m2.Mapper.longest;
        ];
      match List.assoc_opt name paper_table4a with
      | Some ((l0, d0), (l2, d2)) ->
        Table.add_row ta
          [ name; "paper"; Table.int l0; string_of_int d0; Table.int l2; string_of_int d2 ]
      | None -> ())
    (bench_small ());
  Table.print ta;
  let tb =
    Table.create ~title:"Table 4(b) — technology mapping: RAR vs RAR + Procedure 2"
      ~columns:[ "circuit"; "which"; "lit RAR"; "longest"; "lit RAR+P2"; "longest" ]
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let m1 = Mapper.map (rar e) in
      let m2 = Mapper.map (rar_proc2 e) in
      Table.add_row tb
        [
          name; "ours";
          Table.int m1.Mapper.literals; string_of_int m1.Mapper.longest;
          Table.int m2.Mapper.literals; string_of_int m2.Mapper.longest;
        ];
      match List.assoc_opt name paper_table4b with
      | Some ((l0, d0), (l2, d2)) ->
        Table.add_row tb
          [ name; "paper"; Table.int l0; string_of_int d0; Table.int l2; string_of_int d2 ]
      | None -> ())
    (bench_small ());
  Table.print tb;
  print_endline
    "shape under test: literal savings track the 2-input-gate savings and the\n\
     longest path does not grow."

(* ------------------------------------------------------------------ *)
(* Table 5 — Procedure 3                                               *)
(* ------------------------------------------------------------------ *)

let paper_table5 =
  [
    ("irs1423", (91, 79), (491, 503), (42_089, 35_810));
    ("irs5378", (214, 224), (1394, 1476), (10_976, 9_746));
    ("irs9234", (247, 248), (1929, 1981), (109_283, 19_842));
    ("irs13207", (699, 788), (2737, 2606), (261_312, 85_151));
    ("irs15850", (611, 680), (3361, 3690), (23_003_369, 2_875_815));
    ("irs35932", (1763, 2048), (9900, 10_850), (58_645, 20_898));
    ("irs38417", (1664, 1742), (9698, 10_825), (1_192_971, 624_779));
    ("irs38584", (1455, 1700), (12_139, 11_953), (565_433, 156_201));
  ]

let table5 () =
  let t =
    Table.create ~title:"Table 5 — Procedure 3 (path minimisation)"
      ~columns:
        [ "circuit"; "which"; "inp"; "out"; "g.orig"; "g.modif"; "p.orig"; "p.modif" ]
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let orig = original e in
      let p3 = proc3 e in
      Table.add_row t
        [
          name; "ours";
          string_of_int (Circuit.num_inputs orig);
          string_of_int (Circuit.num_outputs orig);
          Table.int (gates2 orig); Table.int (gates2 p3);
          Table.int (paths orig); Table.int (paths p3);
        ];
      match List.find_opt (fun (n, _, _, _) -> n = name) paper_table5 with
      | Some (_, (i, o), (g0, g1), (p0, p1)) ->
        Table.add_row t
          [
            name; "paper"; string_of_int i; string_of_int o;
            Table.int g0; Table.int g1; Table.int p0; Table.int p1;
          ]
      | None -> ())
    (bench_all ());
  Table.print t;
  print_endline "shape under test: paths drop more than under Procedure 2; gates may grow."

(* ------------------------------------------------------------------ *)
(* Table 6 — random-pattern stuck-at testability                        *)
(* ------------------------------------------------------------------ *)

let paper_table6 =
  [
    ("irs1423", (1468, 0, 34_656), (1439, 0, 34_656));
    ("irs5378", (4500, 0, 114_848), (3515, 0, 114_848));
    ("irs9234", (5768, 0, 15_606_336), (4672, 0, 15_606_336));
    ("irs13207", (8813, 0, 333_120), (7452, 0, 333_120));
    ("irs15850", (10_510, 18, 27_884_608), (8795, 16, 27_884_608));
    ("irs35932", (33_174, 0, 256), (26_595, 0, 256));
    ("irs38417", (30_472, 0, 9_485_440), (26_002, 0, 9_485_440));
    ("irs38584", (33_536, 9, 25_454_368), (30_802, 9, 25_454_368));
  ]

let table6 () =
  let budget = if !quick then 50_000 else 200_000 in
  Printf.printf "pattern budget: %s (paper: 30,000,000)\n" (Table.int budget);
  let t =
    Table.create ~title:"Table 6 — random-pattern stuck-at testability"
      ~columns:
        [
          "circuit"; "which"; "faults"; "remain"; "eff.patt"; "m.faults";
          "m.remain"; "m.eff.patt";
        ]
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let cfg = { Campaign.default with max_patterns = budget; seed = 101L } in
      let r0 = Campaign.exec cfg (original e) in
      let r1 = Campaign.exec cfg (proc2_redrem e) in
      Table.add_row t
        [
          name; "ours";
          Table.int r0.Campaign.total_faults; string_of_int r0.Campaign.remaining;
          Table.int r0.Campaign.last_effective_pattern;
          Table.int r1.Campaign.total_faults; string_of_int r1.Campaign.remaining;
          Table.int r1.Campaign.last_effective_pattern;
        ];
      match List.find_opt (fun (n, _, _) -> n = name) paper_table6 with
      | Some (_, (f0, rem0, e0), (f1, rem1, e1)) ->
        Table.add_row t
          [
            name; "paper"; Table.int f0; string_of_int rem0; Table.int e0;
            Table.int f1; string_of_int rem1; Table.int e1;
          ]
      | None -> ())
    (bench_all ());
  Table.print t;
  print_endline
    "shape under test: the modified circuits remain (equally) random-pattern testable;\n\
     the last effective pattern stays in the same regime."

(* ------------------------------------------------------------------ *)
(* Table 7 — robust PDF detection by random patterns (irs13207)        *)
(* ------------------------------------------------------------------ *)

let table7 () =
  let window = if !quick then 5_000 else 10_000 in
  let max_pairs = if !quick then 100_000 else 200_000 in
  Printf.printf "stop window: %s ineffective pairs (paper: 100,000)\n" (Table.int window);
  let e = Benchmarks.find "irs13207" in
  if not (circuit_enabled e) then
    print_endline "skipped (irs13207 excluded by --only-circuits)"
  else begin
  let t =
    Table.create ~title:"Table 7 — robust PDF detection by random patterns, irs13207"
      ~columns:[ "base"; "which"; "eff"; "det/faults (base)"; "det/faults (after P2)" ]
  in
  let run c =
    Pdf_campaign.exec
      { Pdf_campaign.default with max_pairs; stop_window = window; seed = 77L }
      c
  in
  let fmt r =
    Printf.sprintf "%s/%s"
      (Table.int r.Pdf_campaign.detected)
      (Table.int r.Pdf_campaign.total_faults)
  in
  let row base_name base_circuit modified =
    let r0 = run base_circuit in
    let r1 = run modified in
    Table.add_row t
      [
        base_name; "ours";
        Table.int
          (max r0.Pdf_campaign.last_effective_pattern
             r1.Pdf_campaign.last_effective_pattern);
        fmt r0; fmt r1;
      ]
  in
  row "original" (original e) (proc2 e);
  row "RAR" (rar e) (rar_proc2 e);
  Table.add_row t [ "original"; "paper"; "131,000"; "7,304/522,624"; "8,324/170,348" ];
  Table.add_row t [ "RAMBO_C"; "paper"; "132,000"; "7,459/1,155,822"; "8,096/327,050" ];
  Table.print t;
  print_endline
    "shape under test: the modification removes path faults faster than it removes\n\
     detected ones, so robust coverage rises on both bases."
  end

(* ------------------------------------------------------------------ *)
(* CEC — SAT-proved equivalence of the resynthesised circuits           *)
(* ------------------------------------------------------------------ *)

type cec_row = {
  cc_circuit : string;
  cc_pair : string;
  cc_verdict : string;
  cc_outputs : int;
  cc_decisions : int;
  cc_conflicts : int;
  cc_seconds : float;
}

let json_cec : cec_row list ref = ref []

(* Every table row above compares a resynthesised circuit against its
   original; this section SAT-proves (Cec.check_stats, DESIGN.md §10) that
   each of those pairs really computes the same function, so the size and
   testability numbers describe the *same* circuit family. *)
let cec () =
  let t =
    Table.create ~title:"Equivalence — SAT miter proofs for the resynthesised circuits"
      ~columns:
        [ "circuit"; "pair"; "verdict"; "outputs solved"; "decisions"; "conflicts"; "seconds" ]
  in
  let with_pool f =
    if !domains <= 1 then f None
    else Pool.with_pool ~domains:!domains (fun p -> f (Some p))
  in
  with_pool (fun pool ->
      List.iter
        (fun e ->
          let name = e.Benchmarks.name in
          let orig = original e in
          let check pair c =
            let (verdict, s), secs =
              time_wall (fun () -> Cec.check_stats ?pool orig c)
            in
            let vs = Format.asprintf "%a" Cec.pp_verdict verdict in
            let short = if String.length vs > 24 then String.sub vs 0 21 ^ "..." else vs in
            json_cec :=
              {
                cc_circuit = name;
                cc_pair = pair;
                cc_verdict = short;
                cc_outputs = s.Cec.outputs_checked;
                cc_decisions = s.Cec.decisions;
                cc_conflicts = s.Cec.conflicts;
                cc_seconds = secs;
              }
              :: !json_cec;
            Table.add_row t
              [
                name; pair; short;
                Table.int s.Cec.outputs_checked; Table.int s.Cec.decisions;
                Table.int s.Cec.conflicts; Printf.sprintf "%.2f" secs;
              ]
          in
          check "orig-vs-p2" (proc2 e);
          check "orig-vs-p3" (proc3 e))
        (bench_all ()));
  Table.print t;
  print_endline
    "every verdict must read `equivalent': resynthesis is function-preserving, and\n\
     each row is an unconditional SAT proof of that for the tables above."

(* ------------------------------------------------------------------ *)
(* SAT-powered ATPG — escalation of PODEM-aborted faults                *)
(* ------------------------------------------------------------------ *)

(* Measures the escalation path of DESIGN.md §14 on the raw (pre-removal)
   stand-ins: random-pattern campaign for the easy faults, a deliberately
   starved PODEM (low backtrack limit) to manufacture a realistic abort
   worklist, then Sat_atpg.escalate to settle it exactly. The CI gate
   (scripts/check_regression.sh) requires escalation_ok on every row:
   no fault may remain undecided after the SAT pass. *)
let sat_atpg () =
  let t =
    Table.create ~title:"SAT ATPG — escalation of PODEM-aborted faults (raw stand-ins)"
      ~columns:
        [ "circuit"; "survivors"; "podem aborts"; "sat tests"; "sat redundant";
          "undecided"; "ok"; "seconds" ]
  in
  let entries =
    if !quick then List.filter circuit_enabled [ Benchmarks.find "irs1423" ]
    else bench_small ()
  in
  let podem_backtracks = 20 in
  let limits = Limits.default in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let c = Circuit_gen.generate e.Benchmarks.profile in
      let (aborted, esc, survivors), secs =
        time_wall (fun () ->
            let cfg = { Campaign.default with max_patterns = 4096; seed = 7L } in
            let _, survivors = Campaign.exec_survivors cfg c in
            let stats =
              Podem.generate_all ~backtrack_limit:podem_backtracks c survivors
            in
            let aborted = stats.Podem.aborted_faults in
            let esc = Sat_atpg.escalate ~limits c aborted in
            (List.length aborted, esc, List.length survivors))
      in
      let undecided = List.length esc.Sat_atpg.unknown in
      let ok = undecided = 0 in
      json_sat_atpg :=
        {
          sa_circuit = name;
          sa_survivors = survivors;
          sa_aborted_before = aborted;
          sa_sat_tests = List.length esc.Sat_atpg.tests;
          sa_sat_redundant = List.length esc.Sat_atpg.redundant;
          sa_aborted_after = undecided;
          sa_conflict_budget = limits.Limits.sat_conflicts;
          sa_escalation_ok = ok;
          sa_seconds = secs;
        }
        :: !json_sat_atpg;
      Table.add_row t
        [
          name; Table.int survivors; Table.int aborted;
          Table.int (List.length esc.Sat_atpg.tests);
          Table.int (List.length esc.Sat_atpg.redundant);
          Table.int undecided; (if ok then "yes" else "NO");
          Printf.sprintf "%.2f" secs;
        ];
      List.iter
        (fun (f, budget) ->
          Printf.printf "  undecided after escalation: %s (budget %d conflicts)\n"
            (Fault.to_string c f) budget)
        esc.Sat_atpg.unknown)
    entries;
  Table.print t;
  print_endline
    "every SAT test vector is replay-validated against the fault simulator, and\n\
     `ok' asserts that no PODEM abort survives the exact escalation pass."

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablations () =
  let e = Benchmarks.find "irs1423" in
  let t =
    Table.create ~title:"Ablation — K (subcircuit input limit), Procedure 2 on irs1423"
      ~columns:[ "K"; "gates"; "paths"; "depth"; "seconds" ]
  in
  List.iter
    (fun k ->
      let c = original e in
      let t0 = now () in
      ignore (Procedure2.run ~options:(proc2_options k) c);
      Table.add_row t
        [
          string_of_int k; Table.int (gates2 c); Table.int (paths c);
          string_of_int (Levelize.depth_logic c);
          Printf.sprintf "%.2f" (now () -. t0);
        ])
    [ 4; 5; 6 ];
  Table.print t;
  let t =
    Table.create ~title:"Ablation — identification engine, Procedure 2 on irs1423"
      ~columns:[ "engine"; "gates"; "paths"; "seconds" ]
  in
  List.iter
    (fun (label, engine) ->
      let c = original e in
      let options = { (proc2_options 5) with Engine.engine } in
      let t0 = now () in
      ignore (Procedure2.run ~options c);
      Table.add_row t
        [
          label; Table.int (gates2 c); Table.int (paths c);
          Printf.sprintf "%.2f" (now () -. t0);
        ])
    [
      ("exact", Comparison_fn.Exact);
      ("sampled-200 (paper)", Comparison_fn.Sampled 200);
      ("sampled-20", Comparison_fn.Sampled 20);
    ];
  Table.print t;
  let t =
    Table.create ~title:"Ablation — chain-gate merging (Fig. 4), Procedure 2 on irs1423"
      ~columns:[ "merge"; "gates"; "paths"; "depth" ]
  in
  List.iter
    (fun merge ->
      let c = original e in
      ignore (Procedure2.run ~options:{ (proc2_options 5) with Engine.merge } c);
      Table.add_row t
        [
          string_of_bool merge; Table.int (gates2 c); Table.int (paths c);
          string_of_int (Levelize.depth_logic c);
        ])
    [ true; false ];
  Table.print t;
  (* The paper's Sec. 6 future-work items, implemented as engine options. *)
  let t =
    Table.create
      ~title:"Extension — Sec. 6 items (don't-cares, multi-unit covers), Procedure 2 on irs1423"
      ~columns:[ "variant"; "gates"; "paths"; "seconds" ]
  in
  List.iter
    (fun (label, options) ->
      let c = original e in
      let t0 = now () in
      ignore (Procedure2.run ~options c);
      Table.add_row t
        [
          label; Table.int (gates2 c); Table.int (paths c);
          Printf.sprintf "%.2f" (now () -. t0);
        ])
    [
      ("baseline (paper)", proc2_options 5);
      ("+ don't-cares", { (proc2_options 5) with Engine.use_dontcares = true });
      ("+ multi-unit covers", { (proc2_options 5) with Engine.max_units = 3 });
      ( "+ both",
        { (proc2_options 5) with Engine.use_dontcares = true; max_units = 3 } );
    ];
  Table.print t;
  (* Direct check of the central testability claim with the robust PDF test
     generator: most paths removed by Procedure 3 were robustly untestable. *)
  let small =
    Circuit_gen.generate
      {
        Circuit_gen.name = "claim";
        n_pi = 20;
        n_po = 14;
        n_gates = 110;
        depth = 10;
        combine_pct = 28;
        xor_pct = 0;
        seed = 4242L;
      }
  in
  let c0, _ = Redundancy.make_irredundant ~seed:12L small in
  let p3 = Circuit.copy c0 in
  ignore (Procedure3.run ~options:(proc2_options 5) p3);
  let s0 = Pdf_atpg.classify_all ~seed:5L c0 in
  let s1 = Pdf_atpg.classify_all ~seed:5L p3 in
  let t =
    Table.create
      ~title:"Claim check — robust PDF testability before/after Procedure 3 (exact ATPG)"
      ~columns:[ "circuit"; "paths"; "testable"; "untestable"; "aborted" ]
  in
  let row label c s =
    Table.add_row t
      [
        label; Table.int (paths c);
        Table.int s.Pdf_atpg.testable; Table.int s.Pdf_atpg.untestable;
        Table.int s.Pdf_atpg.aborted;
      ]
  in
  row "original" c0 s0;
  row "after Procedure 3" p3 s1;
  Table.print t;
  Printf.printf
    "paper's claim: the path faults removed are mostly untestable ones (untestable\n\
     count drops faster than testable count).\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one kernel per table/figure               *)
(* ------------------------------------------------------------------ *)

let rec micro () =
  let open Bechamel in
  let c17 = Benchmarks.c17 () in
  let unit_spec =
    { Comparison_fn.perm = [| 4; 3; 1; 2 |]; lo = 5; hi = 10; complemented = false }
  in
  let f2 = Truthtable.of_minterms 4 [ 1; 5; 6; 9; 10; 14 ] in
  let small =
    Circuit_gen.generate
      {
        Circuit_gen.name = "micro";
        n_pi = 24;
        n_po = 16;
        n_gates = 130;
        depth = 10;
        combine_pct = 25;
        xor_pct = 4;
        seed = 99L;
      }
  in
  let cmp = Compiled.of_circuit small in
  let sim = Fsim.create cmp in
  let rng = Rng.create 3L in
  let n_pi = Circuit.num_inputs small in
  let faults = Array.of_list (Fault.collapsed small) in
  let tests =
    [
      Test.make ~name:"fig1: build comparison unit"
        (Staged.stage (fun () -> Comparison_unit.build ~n:4 unit_spec));
      Test.make ~name:"table1: unit robust test set"
        (Staged.stage (fun () ->
             Unit_testgen.generate (Comparison_unit.build ~n:4 unit_spec)));
      Test.make ~name:"sec3.4: exact identification of f2"
        (Staged.stage (fun () -> Comparison_fn.identify_exact f2));
      Test.make ~name:"table2: Procedure-2 pass (130 gates)"
        (Staged.stage (fun () ->
             let c = Circuit.copy small in
             Procedure2.run ~options:{ (proc2_options 5) with Engine.max_passes = 1 } c));
      Test.make ~name:"table3: RAR 64-pattern sim filter"
        (Staged.stage (fun () ->
             Compiled.simulate cmp (Array.init n_pi (fun _ -> Rng.next64 rng))));
      Test.make ~name:"table4: technology map c17"
        (Staged.stage (fun () -> Mapper.map c17));
      Test.make ~name:"table5: Procedure-3 pass (130 gates)"
        (Staged.stage (fun () ->
             let c = Circuit.copy small in
             Procedure3.run ~options:{ (proc2_options 5) with Engine.max_passes = 1 } c));
      Test.make ~name:"table6: PPSFP batch over all faults"
        (Staged.stage (fun () ->
             Fsim.load_patterns sim (Array.init n_pi (fun _ -> Rng.next64 rng));
             Array.iter (fun f -> ignore (Fsim.detect sim f)) faults));
      Test.make ~name:"table7: wave sim + robust count"
        (Staged.stage (fun () ->
             let v1 = Array.init n_pi (fun _ -> Rng.bool rng) in
             let v2 = Array.init n_pi (fun _ -> Rng.bool rng) in
             let waves = Wave.simulate cmp ~v1 ~v2 in
             Pdf_campaign.count_robust cmp waves));
      Test.make ~name:"proc1: path counting"
        (Staged.stage (fun () -> Paths.total small));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if !quick then 0.05 else 0.25))
      ~kde:None ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Printf.printf "%-44s %16s\n" "kernel" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name r ->
          match Analyze.OLS.estimates r with
          | Some [ est ] -> Printf.printf "%-44s %16.1f\n" name est
          | Some _ | None -> Printf.printf "%-44s %16s\n" name "n/a")
        stats)
    tests;
  parallel_speedups ()

(* ------------------------------------------------------------------ *)
(* Parallel-engine speedups: the three hottest loops, measured serial   *)
(* (1 domain) against the --domains pool, with a bit-identity check.    *)
(* ------------------------------------------------------------------ *)

and parallel_speedups () =
  let nd = !domains in
  Printf.printf "\nparallel kernels: 1 domain vs %d domains (recommended %d)\n" nd
    (Domain.recommended_domain_count ());
  let report row =
    json_speedups := row :: !json_speedups;
    Printf.printf "%-28s %-10s serial %8.3fs  parallel %8.3fs  speedup %5.2fx  %s\n%!"
      row.sp_kernel row.sp_circuit row.sp_serial row.sp_parallel
      (if row.sp_parallel > 0. then row.sp_serial /. row.sp_parallel else 0.)
      (if row.sp_identical then "bit-identical" else "RESULTS DIFFER (bug!)")
  in
  (* Fault-simulation campaign: shard the fault list. *)
  let par_circuit =
    Circuit_gen.generate
      {
        Circuit_gen.name = "micro-par";
        n_pi = 32;
        n_po = 20;
        n_gates = (if !quick then 400 else 900);
        depth = 12;
        combine_pct = 25;
        xor_pct = 4;
        seed = 1234L;
      }
  in
  record_circuit "micro-par" par_circuit;
  let budget = if !quick then 2_048 else 16_384 in
  let fsim_cfg d = { Campaign.default with max_patterns = budget; domains = d; seed = 7L } in
  let r1, t1 = time_wall (fun () -> Campaign.exec (fsim_cfg 1) par_circuit) in
  let rn, tn = time_wall (fun () -> Campaign.exec (fsim_cfg nd) par_circuit) in
  report
    {
      sp_kernel = "fault_sim_campaign";
      sp_circuit = "micro-par";
      sp_domains = nd;
      sp_serial = t1;
      sp_parallel = tn;
      sp_identical = r1 = rn;
    };
  (* Robust PDF campaign: fan out the wave simulations. *)
  let small =
    Circuit_gen.generate
      {
        Circuit_gen.name = "micro";
        n_pi = 24;
        n_po = 16;
        n_gates = 130;
        depth = 10;
        combine_pct = 25;
        xor_pct = 4;
        seed = 99L;
      }
  in
  record_circuit "micro" small;
  let pairs = if !quick then 2_000 else 20_000 in
  let pdf_cfg d =
    { Pdf_campaign.default with max_pairs = pairs; stop_window = pairs; domains = d; seed = 77L }
  in
  let p1, tp1 = time_wall (fun () -> Pdf_campaign.exec (pdf_cfg 1) small) in
  let pn, tpn = time_wall (fun () -> Pdf_campaign.exec (pdf_cfg nd) small) in
  report
    {
      sp_kernel = "pdf_campaign";
      sp_circuit = "micro";
      sp_domains = nd;
      sp_serial = tp1;
      sp_parallel = tpn;
      sp_identical = p1 = pn;
    };
  (* Resynthesis engine: concurrent candidate scoring. *)
  let engine_opts d =
    { (proc2_options 5) with Engine.max_candidates = 32; max_passes = 1; domains = d }
  in
  let (s1, c1), te1 =
    time_wall (fun () ->
        let c = Circuit.copy par_circuit in
        (Procedure2.run ~options:(engine_opts 1) c, c))
  in
  let (sn, cn), ten =
    time_wall (fun () ->
        let c = Circuit.copy par_circuit in
        (Procedure2.run ~options:(engine_opts nd) c, c))
  in
  report
    {
      sp_kernel = "engine_score_candidates";
      sp_circuit = "micro-par";
      sp_domains = nd;
      sp_serial = te1;
      sp_parallel = ten;
      sp_identical = s1 = sn && Bench_format.to_string c1 = Bench_format.to_string cn;
    }

(* ------------------------------------------------------------------ *)
(* Word-parallel kernels: the candidate-evaluation hot paths measured   *)
(* against their scalar baselines, single-domain (DESIGN.md §12).       *)
(* ------------------------------------------------------------------ *)

let kernels () =
  let report row =
    json_kernels := row :: !json_kernels;
    Printf.printf "%-28s scalar %10.1f ns/call  word %10.1f ns/call  speedup %5.2fx  %s\n%!"
      row.kr_kernel row.kr_baseline_ns row.kr_accel_ns
      (if row.kr_accel_ns > 0. then row.kr_baseline_ns /. row.kr_accel_ns else 0.)
      (if row.kr_identical then "bit-identical" else "RESULTS DIFFER (bug!)")
  in
  let small =
    Circuit_gen.generate
      {
        Circuit_gen.name = "micro";
        n_pi = 24;
        n_po = 16;
        n_gates = 130;
        depth = 10;
        combine_pct = 25;
        xor_pct = 4;
        seed = 99L;
      }
  in
  record_circuit "micro" small;
  (* Every K=6 candidate cone of the micro circuit, the same workload the
     resynthesis inner loop sees. *)
  let subs =
    Array.to_list (Circuit.topo_order small)
    |> List.filter (fun id ->
           match Circuit.kind small id with
           | Gate.Input | Gate.Const0 | Gate.Const1 -> false
           | _ -> true)
    |> List.concat_map (fun root -> Subcircuit.enumerate ~k:6 ~max_candidates:16 small root)
    |> Array.of_list
  in
  let reps = if !quick then 5 else 20 in
  let calls = reps * Array.length subs in
  let per_call secs = max 0. secs *. 1e9 /. float_of_int (max 1 calls) in
  let scalar_tts = Array.map (Subcircuit.extract_scalar small) subs in
  let word_tts = Array.map (Subcircuit.extract small) subs in
  let _, t_scalar =
    time_wall (fun () ->
        for _ = 1 to reps do
          Array.iter (fun s -> ignore (Subcircuit.extract_scalar small s)) subs
        done)
  in
  let scratch = Array.make (Circuit.size small) 0L in
  let _, t_word =
    time_wall (fun () ->
        for _ = 1 to reps do
          Array.iter (fun s -> ignore (Subcircuit.extract ~scratch small s)) subs
        done)
  in
  report
    {
      kr_kernel = "subcircuit_extract_k6";
      kr_baseline_ns = per_call t_scalar;
      kr_accel_ns = per_call t_word;
      kr_identical =
        (try Array.for_all2 Truthtable.equal scalar_tts word_tts
         with Invalid_argument _ -> false);
    };
  (* Identification over the same cone functions: every call computed from
     scratch vs the engine's identification cache (first encounter
     computes, repeats hit — the steady state of a multi-pass optimisation
     run). *)
  let verdicts_plain = Array.map Comparison_fn.identify_exact word_tts in
  let cache = Idcache.create () in
  let cached_identify tt =
    match Idcache.find cache tt with
    | Some v -> v
    | None ->
      let v = Comparison_fn.identify_exact tt in
      Idcache.record cache tt v;
      v
  in
  let verdicts_cached = Array.map cached_identify word_tts in
  let _, t_plain =
    time_wall (fun () ->
        for _ = 1 to reps do
          Array.iter (fun tt -> ignore (Comparison_fn.identify_exact tt)) word_tts
        done)
  in
  let _, t_cached =
    time_wall (fun () ->
        for _ = 1 to reps do
          Array.iter (fun tt -> ignore (cached_identify tt)) word_tts
        done)
  in
  report
    {
      kr_kernel = "identify_exact_cached";
      kr_baseline_ns = per_call t_plain;
      kr_accel_ns = per_call t_cached;
      kr_identical = verdicts_plain = verdicts_cached;
    }

(* ------------------------------------------------------------------ *)
(* Incremental resynthesis: second-pass cost on a large synthetic       *)
(* circuit, the reference full walk vs the production worklist walk,   *)
(* and the bit-identity of the two (DESIGN.md §13, §17).                *)
(* ------------------------------------------------------------------ *)

let incremental () =
  (* Cut enumeration and pop counts come from the engine.*
     counters, so collection must be on even when no --json/--metrics
     sink asked for it (this section registers last: earlier sections keep
     their baseline probe cost when run together without a sink). *)
  Obs.enable ();
  let base =
    Circuit_gen.generate
      {
        (* Wide and shallow with little cross-slice reconvergence: fanout
           cones stay local, so pass-1 splices dirty only a small fraction
           of the circuit and pass 2 shows the incremental win. *)
        Circuit_gen.name = "incr-large";
        n_pi = 400;
        n_po = 360;
        n_gates = (if !quick then 5200 else 10400);
        depth = 4;
        combine_pct = 1;
        xor_pct = 4;
        seed = 4242L;
      }
  in
  record_circuit "incr-large" base;
  let candidates_c = Obs.Counter.make "engine.candidates" in
  let popped_c = Obs.Counter.make "engine.worklist_popped" in
  let opts ~passes ~domains =
    { (proc2_options 4) with Engine.max_candidates = 24; max_passes = passes; domains }
  in
  (* The timed configurations below are all serial (domains = 1), so they
     are measured in process CPU time, not wall clock: the pass-2 cost is
     a difference of two short runs and scheduler noise on a loaded box
     would otherwise dominate it (the §8 wall-clock rationale only applies
     to the parallel kernels). The counter deltas are exactly
     reproducible. *)
  let run optimize o =
    let c = Circuit.copy base in
    let counters = [ candidates_c; popped_c ] in
    let v0 = List.map Obs.Counter.value counters in
    let t0 = Sys.time () in
    let stats = optimize Engine.Gates o c in
    let t = max 0. (Sys.time () -. t0) in
    let deltas = List.map2 (fun k v -> Obs.Counter.value k - v) counters v0 in
    (stats, Bench_format.to_string c, deltas, t, Circuit.size c)
  in
  let reference = Engine.optimize_reference and production = Engine.optimize in
  let one = opts ~passes:1 ~domains:1 and two = opts ~passes:2 ~domains:1 in
  (* Pass-2 cost = (two-pass run) - (one-pass run). The cut counts are
     exact (deterministic enumeration), taken from one run of each. *)
  let s1f, _, d1f, _, _ = run reference one in
  let sf, nf, d2f, _, _ = run reference two in
  let _, _, d1i, _, _ = run production one in
  let si, ni, d2i, _, size = run production two in
  (* Even CPU time jitters (allocation, GC, the host's speed drifting):
     each round runs all four configurations back to back, and the pass-2
     time is the median over rounds of the round's difference. A minimum
     is no estimator here: a few runs land well below the rest, and a
     difference of two minima taken minutes apart can lose the whole
     pass-2 cost. *)
  let cpu optimize o =
    let _, _, _, t, _ = run optimize o in
    t
  in
  let rounds =
    Array.init 7 (fun _ ->
        let f1 = cpu reference one in
        let f2 = cpu reference two in
        let i1 = cpu production one in
        let i2 = cpu production two in
        (f2 -. f1, i2 -. i1))
  in
  let median xs =
    Array.sort Float.compare xs;
    xs.(Array.length xs / 2)
  in
  (* The production walk scoring candidates on the --domains pool must
     land the exact same netlist. *)
  let sc, nc, _, _, _ = run production (opts ~passes:2 ~domains:!domains) in
  let cuts = function c :: _ -> c | [] -> 0 in
  let pass2_cuts_full = max 0 (cuts d2f - cuts d1f) in
  let pass2_cuts_incr = max 0 (cuts d2i - cuts d1i) in
  let fraction =
    if pass2_cuts_full = 0 then 1.
    else float_of_int pass2_cuts_incr /. float_of_int pass2_cuts_full
  in
  let pass2_full_s = max 0. (median (Array.map fst rounds)) in
  let pass2_incr_s = max 0. (median (Array.map snd rounds)) in
  (* An unmeasurably cheap incremental pass counts as fast, not as a
     division-by-zero failure of the gate. *)
  let speedup =
    if pass2_incr_s <= 0. then if pass2_full_s <= 0. then 1. else 99.99
    else pass2_full_s /. pass2_incr_s
  in
  let popped = match d2i with [ _; p ] -> p | _ -> assert false in
  (* The full walk visits every root of every pass; the worklist pops only
     the dirty ones. *)
  let total_roots = si.Engine.passes * size in
  let pop_fraction =
    if total_roots = 0 then 1. else float_of_int popped /. float_of_int total_roots
  in
  let identical = sf = si && sf = sc && nf = ni && nf = nc in
  let row =
    {
      in_circuit = "incr-large";
      in_domains = !domains;
      in_pass2_cuts_full = pass2_cuts_full;
      in_pass2_cuts_incr = pass2_cuts_incr;
      in_reenum_fraction = fraction;
      in_pass2_full_s = pass2_full_s;
      in_pass2_incr_s = pass2_incr_s;
      in_speedup = speedup;
      in_popped = popped;
      in_total_roots = total_roots;
      in_pop_fraction = pop_fraction;
      in_identical = identical;
      in_gate_ok = identical && speedup >= 1. && fraction < 1. && pop_fraction < 1.;
    }
  in
  json_incremental := row :: !json_incremental;
  Printf.printf "incremental resynthesis on %s (%d two-input gates, %d replacements in pass 1)\n"
    row.in_circuit
    (Circuit.two_input_gate_count base)
    s1f.Engine.replacements;
  Printf.printf "  pass-2 cuts   full %8d   incremental %8d   (%.1f%% re-enumerated)\n"
    pass2_cuts_full pass2_cuts_incr (100. *. fraction);
  Printf.printf "  pass-2 cpu    full %7.3fs   incremental %7.3fs   (speedup %.2fx)\n"
    pass2_full_s pass2_incr_s speedup;
  Printf.printf "  worklist pops %d of %d full-walk visits (%.2f%%)\n" popped
    total_roots (100. *. pop_fraction);
  Printf.printf
    "  identical results: %b (reference vs production vs production domains=%d)\n%!"
    identical !domains

(* ------------------------------------------------------------------ *)
(* "Persistent identification cache" section (DESIGN.md §15).           *)
(* ------------------------------------------------------------------ *)

let idcache () =
  (* Lookup traffic comes from the idcache.* counters, so collection must
     be on (same rationale as the incremental section). *)
  Obs.enable ();
  let base =
    Circuit_gen.generate
      {
        Circuit_gen.name = "idc-large";
        n_pi = 200;
        n_po = 180;
        n_gates = (if !quick then 2600 else 5200);
        depth = 4;
        combine_pct = 1;
        xor_pct = 4;
        seed = 2424L;
      }
  in
  record_circuit "idc-large" base;
  (* The persistent store lives in its own subdirectory of the derived-
     circuit cache (or the temp dir when data/cache is absent) and is wiped
     first, so "cold" genuinely starts from an empty store. *)
  let store_dir =
    let parent =
      if Sys.file_exists cache_dir && Sys.is_directory cache_dir then cache_dir
      else Filename.get_temp_dir_name ()
    in
    Filename.concat parent "idcache-bench"
  in
  if Sys.file_exists store_dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat store_dir f))
      (Sys.readdir store_dir);
  let hits_c = Obs.Counter.make "idcache.hits" in
  let disk_c = Obs.Counter.make "idcache.disk_hits" in
  let miss_c = Obs.Counter.make "idcache.misses" in
  let opts ~id_cache ~cache_dir =
    {
      (proc2_options 4) with
      Engine.max_candidates = 24;
      max_passes = 2;
      domains = 1;
      id_cache;
      cache_dir;
    }
  in
  let run o =
    let c = Circuit.copy base in
    let v0 =
      (Obs.Counter.value hits_c, Obs.Counter.value disk_c, Obs.Counter.value miss_c)
    in
    let stats = Engine.optimize Engine.Gates o c in
    let h0, d0, m0 = v0 in
    ( stats,
      Bench_format.to_string c,
      Obs.Counter.value hits_c - h0,
      Obs.Counter.value disk_c - d0,
      Obs.Counter.value miss_c - m0 )
  in
  let s_off, n_off, _, _, _ = run (opts ~id_cache:false ~cache_dir:None) in
  let s_cold, n_cold, ch, _, cm = run (opts ~id_cache:true ~cache_dir:(Some store_dir)) in
  let s_warm, n_warm, wh, wd, wm = run (opts ~id_cache:true ~cache_dir:(Some store_dir)) in
  let rate h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m) in
  let cold_rate = rate ch cm and warm_rate = rate wh wm in
  let identical = s_off = s_cold && s_off = s_warm && n_off = n_cold && n_off = n_warm in
  let row =
    {
      ic_circuit = "idc-large";
      ic_cold_hits = ch;
      ic_cold_misses = cm;
      ic_warm_hits = wh;
      ic_warm_disk_hits = wd;
      ic_warm_misses = wm;
      ic_cold_hit_rate = cold_rate;
      ic_warm_hit_rate = warm_rate;
      ic_identical = identical;
      ic_gate_ok = identical && wd > 0 && wm = 0 && warm_rate >= cold_rate;
    }
  in
  json_idcache := row :: !json_idcache;
  Printf.printf "persistent identification cache on %s (%d two-input gates, store %s)\n"
    row.ic_circuit
    (Circuit.two_input_gate_count base)
    store_dir;
  Printf.printf "  cold   hits %8d   misses %8d   (hit rate %.1f%%)\n" ch cm
    (100. *. cold_rate);
  Printf.printf "  warm   hits %8d   misses %8d   (hit rate %.1f%%, disk hits %d)\n" wh wm
    (100. *. warm_rate) wd;
  Printf.printf "  identical results: %b (off vs cold vs warm)\n%!" identical

(* ------------------------------------------------------------------ *)
(* "Decision journal" section (DESIGN.md §16).                          *)
(* ------------------------------------------------------------------ *)

let journal () =
  Obs.enable ();
  let base =
    Circuit_gen.generate
      {
        Circuit_gen.name = "jr-large";
        n_pi = 200;
        n_po = 180;
        n_gates = (if !quick then 2600 else 5200);
        depth = 4;
        combine_pct = 1;
        xor_pct = 4;
        seed = 2424L;
      }
  in
  record_circuit "jr-large" base;
  let o =
    { (proc2_options 4) with Engine.max_candidates = 24; max_passes = 2; domains = 1 }
  in
  let run () =
    let c = Circuit.copy base in
    let t0 = wall () in
    let stats = Engine.optimize Engine.Gates o c in
    (stats, Bench_format.to_string c, max 0. (wall () -. t0))
  in
  (* One throwaway run warms the allocator and the engine's lazy state so
     the plain-vs-journaled wall comparison isn't dominated by first-run
     effects; each variant then keeps its best of two runs. *)
  ignore (run ());
  let s_plain, n_plain, ta = run () in
  let _, _, tb = run () in
  let t_plain = min ta tb in
  let path = Filename.temp_file "sft_bench" ".journal" in
  Obs.Journal.start ~cmd:"bench" path;
  let s_j, n_j, tc = run () in
  let _, _, td = run () in
  let t_j = min tc td in
  let w = Obs.Journal.finish () in
  let identical = s_plain = s_j && n_plain = n_j in
  let events, dropped, funnel_ok, funnel_line =
    match Run_report.load path with
    | Error msg ->
      Printf.printf "  journal failed to load: %s\n" msg;
      (0, 0, false, "")
    | Ok r ->
      let f = Run_report.funnel r in
      ( Run_report.events r,
        Run_report.dropped r,
        Run_report.funnel_ok r && not (Run_report.truncated r),
        Printf.sprintf "%d candidates -> %d identified -> %d verified -> %d committed"
          f.Run_report.candidates f.Run_report.identified f.Run_report.verified
          f.Run_report.committed )
  in
  Sys.remove path;
  let overhead =
    if t_plain > 0. then 100. *. ((t_j -. t_plain) /. t_plain) else 0.
  in
  let row =
    {
      jr_circuit = "jr-large";
      jr_events = events;
      jr_dropped = dropped;
      jr_plain_s = t_plain;
      jr_journal_s = t_j;
      jr_overhead_pct = overhead;
      jr_identical = identical;
      jr_funnel_ok = funnel_ok;
      jr_gate_ok = identical && funnel_ok && events > 0 && w.Obs.Journal.dropped = 0;
    }
  in
  json_journal := row :: !json_journal;
  Printf.printf "decision journal on %s (%d two-input gates)\n" row.jr_circuit
    (Circuit.two_input_gate_count base);
  Printf.printf "  plain    %7.3fs   journaled %7.3fs   (overhead %+.1f%%)\n"
    t_plain t_j overhead;
  Printf.printf "  events %d, dropped %d\n" events dropped;
  if funnel_line <> "" then Printf.printf "  funnel: %s (holds: %b)\n" funnel_line funnel_ok;
  Printf.printf "  identical results: %b (plain vs journaled)\n%!" identical

(* ------------------------------------------------------------------ *)
(* Machine-readable snapshot (--json FILE). Schema: DESIGN.md,          *)
(* "Parallel execution" section.                                        *)
(* ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json file =
  let b = Buffer.create 4096 in
  let item first s = (if not first then Buffer.add_string b ",\n"); Buffer.add_string b s in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema_version\": 2,\n";
  Buffer.add_string b "  \"generator\": \"sft bench harness\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"mode\": \"%s\",\n" (if !quick then "quick" else "full"));
  Buffer.add_string b (Printf.sprintf "  \"domains\": %d,\n" !domains);
  (* Record the --only-circuits scope so a committed snapshot says which
     benchmarks it covers; null means the unrestricted circuit set. *)
  Buffer.add_string b
    (match !only_circuits with
    | [] -> "  \"only_circuits\": null,\n"
    | names ->
      Printf.sprintf "  \"only_circuits\": [%s],\n"
        (String.concat ", "
           (List.map (fun n -> Printf.sprintf "\"%s\"" (json_escape n)) names)));
  Buffer.add_string b
    (Printf.sprintf "  \"recommended_domains\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string b "  \"sections\": [\n";
  List.iteri
    (fun i (id, title, secs) ->
      item (i = 0)
        (Printf.sprintf "    {\"id\": \"%s\", \"title\": \"%s\", \"wall_seconds\": %.6f}"
           (json_escape id) (json_escape title) secs))
    (List.rev !json_sections);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"circuits\": [\n";
  List.iteri
    (fun i (name, pis, pos, gates2, paths) ->
      item (i = 0)
        (Printf.sprintf
           "    {\"name\": \"%s\", \"inputs\": %d, \"outputs\": %d, \"gates2\": %d, \
            \"paths\": %s}"
           (json_escape name) pis pos gates2
           (if paths < 0 then "null" else string_of_int paths)))
    (List.rev !json_circuits);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"speedups\": [\n";
  List.iteri
    (fun i r ->
      item (i = 0)
        (Printf.sprintf
           "    {\"kernel\": \"%s\", \"circuit\": \"%s\", \"domains\": %d, \
            \"serial_seconds\": %.6f, \"parallel_seconds\": %.6f, \"speedup\": %.4f, \
            \"identical_results\": %b}"
           (json_escape r.sp_kernel) (json_escape r.sp_circuit) r.sp_domains
           r.sp_serial r.sp_parallel
           (if r.sp_parallel > 0. then r.sp_serial /. r.sp_parallel else 0.)
           r.sp_identical))
    (List.rev !json_speedups);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"kernels\": [\n";
  List.iteri
    (fun i r ->
      item (i = 0)
        (Printf.sprintf
           "    {\"kernel\": \"%s\", \"baseline_ns\": %.1f, \"accelerated_ns\": %.1f, \
            \"speedup\": %.4f, \"identical_results\": %b}"
           (json_escape r.kr_kernel) r.kr_baseline_ns r.kr_accel_ns
           (if r.kr_accel_ns > 0. then r.kr_baseline_ns /. r.kr_accel_ns else 0.)
           r.kr_identical))
    (List.rev !json_kernels);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"incremental\": [\n";
  List.iteri
    (fun i r ->
      item (i = 0)
        (Printf.sprintf
           "    {\"circuit\": \"%s\", \"domains\": %d, \"pass2_cuts_full\": %d, \
            \"pass2_cuts_incremental\": %d, \"reenum_fraction\": %.4f, \
            \"pass2_full_seconds\": %.6f, \"pass2_incremental_seconds\": %.6f, \
            \"speedup\": %.4f, \"worklist_popped\": %d, \"total_roots\": %d, \
            \"pop_fraction\": %.4f, \"identical_results\": %b, \
            \"gate_ok\": %b}"
           (json_escape r.in_circuit) r.in_domains r.in_pass2_cuts_full
           r.in_pass2_cuts_incr r.in_reenum_fraction r.in_pass2_full_s
           r.in_pass2_incr_s r.in_speedup r.in_popped r.in_total_roots
           r.in_pop_fraction r.in_identical r.in_gate_ok))
    (List.rev !json_incremental);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"idcache\": [\n";
  List.iteri
    (fun i r ->
      item (i = 0)
        (Printf.sprintf
           "    {\"circuit\": \"%s\", \"cold_hits\": %d, \"cold_misses\": %d, \
            \"warm_hits\": %d, \"warm_disk_hits\": %d, \"warm_misses\": %d, \
            \"cold_hit_rate\": %.4f, \"warm_hit_rate\": %.4f, \
            \"identical_results\": %b, \"gate_ok\": %b}"
           (json_escape r.ic_circuit) r.ic_cold_hits r.ic_cold_misses r.ic_warm_hits
           r.ic_warm_disk_hits r.ic_warm_misses r.ic_cold_hit_rate r.ic_warm_hit_rate
           r.ic_identical r.ic_gate_ok))
    (List.rev !json_idcache);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"cec\": [\n";
  List.iteri
    (fun i r ->
      item (i = 0)
        (Printf.sprintf
           "    {\"circuit\": \"%s\", \"pair\": \"%s\", \"verdict\": \"%s\", \
            \"outputs_solved\": %d, \"decisions\": %d, \"conflicts\": %d, \
            \"wall_seconds\": %.6f}"
           (json_escape r.cc_circuit) (json_escape r.cc_pair)
           (json_escape r.cc_verdict) r.cc_outputs r.cc_decisions r.cc_conflicts
           r.cc_seconds))
    (List.rev !json_cec);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"sat_atpg\": [\n";
  List.iteri
    (fun i r ->
      item (i = 0)
        (Printf.sprintf
           "    {\"circuit\": \"%s\", \"survivors\": %d, \"aborted_before\": %d, \
            \"sat_tests\": %d, \"sat_redundant\": %d, \"aborted_after\": %d, \
            \"conflict_budget\": %d, \"escalation_ok\": %b, \"wall_seconds\": %.6f}"
           (json_escape r.sa_circuit) r.sa_survivors r.sa_aborted_before
           r.sa_sat_tests r.sa_sat_redundant r.sa_aborted_after
           r.sa_conflict_budget r.sa_escalation_ok r.sa_seconds))
    (List.rev !json_sat_atpg);
  Buffer.add_string b "\n  ],\n";
  Buffer.add_string b "  \"journal\": [\n";
  List.iteri
    (fun i r ->
      item (i = 0)
        (Printf.sprintf
           "    {\"circuit\": \"%s\", \"events\": %d, \"dropped\": %d, \
            \"plain_seconds\": %.6f, \"journal_seconds\": %.6f, \
            \"overhead_pct\": %.2f, \"funnel_ok\": %b, \
            \"identical_results\": %b, \"gate_ok\": %b}"
           (json_escape r.jr_circuit) r.jr_events r.jr_dropped r.jr_plain_s
           r.jr_journal_s r.jr_overhead_pct r.jr_funnel_ok r.jr_identical
           r.jr_gate_ok))
    (List.rev !json_journal);
  Buffer.add_string b "\n  ],\n";
  (* Schema v2: a summary of the event-tracing buffers, so a snapshot
     records whether its trace (if any) was complete or lossy. *)
  let ts = Obs.Trace.stats () in
  Buffer.add_string b
    (Printf.sprintf
       "  \"trace_events\": {\"enabled\": %b, \"rings\": %d, \"recorded\": %d, \
        \"dropped\": %d},\n"
       (Obs.Trace.enabled ()) ts.Obs.Trace.rings ts.Obs.Trace.recorded
       ts.Obs.Trace.dropped);
  (* The observability registry (counters, histograms, span trace) rides
     along in the snapshot; schema in DESIGN.md §9. *)
  Buffer.add_string b (Printf.sprintf "  \"metrics\": %s\n}\n" (Obs.Export.to_json ()));
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let () =
  Printf.printf "sft bench harness (%s mode)\n" (if !quick then "quick" else "full");
  section "figures" "comparison-unit structures (Figures 1-6)" figures;
  section "table1" "robust test set of a comparison unit" table1;
  section "table2" "Procedure 2: gates and paths" table2;
  section "table3" "RAR baseline comparison" table3;
  section "table4" "technology mapping" table4;
  section "table5" "Procedure 3: path minimisation" table5;
  section "table6" "random-pattern stuck-at testability" table6;
  section "table7" "robust PDF random-pattern campaigns" table7;
  section "cec" "SAT equivalence proofs of the resynthesised circuits" cec;
  section "ablations" "design-choice ablations" ablations;
  section "micro" "Bechamel micro-benchmarks" micro;
  section "kernels" "word-parallel kernels vs scalar baselines" kernels;
  section "incremental" "incremental resynthesis vs the reference full walk" incremental;
  section "idcache" "persistent identification cache: cold vs warm vs off" idcache;
  section "sat_atpg" "SAT escalation of PODEM-aborted faults" sat_atpg;
  section "journal" "decision journal: overhead and bit-identity" journal;
  (match !json_file with
  | None -> ()
  | Some file -> (
    try write_json file
    with Sys_error msg ->
      Printf.eprintf "error: could not write %s: %s\n" file msg;
      exit 1));
  (match !trace_out with
  | None -> ()
  | Some file -> (
    try
      Obs.Trace.write_file file;
      let s = Obs.Trace.stats () in
      Printf.printf "wrote %s (%d events, %d dropped)\n" file s.Obs.Trace.recorded
        s.Obs.Trace.dropped
    with Sys_error msg ->
      Printf.eprintf "error: could not write %s: %s\n" file msg;
      exit 1));
  if !trace then prerr_string (Obs.Export.trace_text ());
  match !metrics with
  | None -> ()
  | Some "text" -> print_string (Obs.Export.to_text ())
  | Some "json" -> print_endline (Obs.Export.to_json ())
  | Some path -> Obs.Export.write_file path
