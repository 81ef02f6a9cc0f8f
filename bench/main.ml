(* Bench harness: regenerates every table and figure of the paper.

   Usage: dune exec bench/main.exe [-- OPTIONS]
     --quick        smaller pattern budgets / single K (for CI-style runs)
     --full         paper-scale budgets where feasible
     --only IDS     comma-separated subset of: figures,table1,table2,table3,
                    table4,table5,table6,table7,cec,ablations,incremental,
                    idcache,sat_atpg,journal (an unknown id exits 2)
     --only-circuits NAMES
                    comma-separated benchmark filter (e.g. irs1423,irs5378)
                    applied to the per-circuit sections (table2-7, cec);
                    lets small machines produce a complete, reproducible
                    snapshot of the circuits they can carry
     --json FILE    write the machine-readable snapshot: each section's
                    rows with its declared gate and exact keys, plus the
                    observability registry (schema 3, DESIGN.md §8)
     --domains N    domain budget for the cec section's pooled miters (0
                    or omitted picks Pool.default_domains (), i.e.
                    recommended - 1; resolved by Pool.domains_of_flag like
                    the CLI flag; at most Pool.max_domains)
     --metrics SINK observability export: "text" prints a readable dump
                    ending in the span tree, "json" prints the JSON
                    document, anything else is a file path receiving the
                    JSON (see DESIGN.md §9)
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

let enabled id = !only = [] || List.mem id !only

let circuit_enabled e =
  !only_circuits = [] || List.mem e.Benchmarks.name !only_circuits

let bench_all () = List.filter circuit_enabled Benchmarks.all
let bench_small () = List.filter circuit_enabled Benchmarks.small

(* The one clock: wall time, for the progress lines and the JSON snapshot.
   Obs.now is the observability layer's (non-monotonic) clock, hence the
   clamps. *)
let wall () = Obs.now ()

let time_wall f =
  let t0 = wall () in
  let r = f () in
  (r, max 0. (wall () -. t0))

(* --- snapshot rows ------------------------------------------------------- *)

(* The running section's rows, newest first, and why it did not run. *)
let rows : Obs_json.t list ref = ref []
let skipped : string option ref = ref None

(* Rows align by their first field when two snapshots are diffed. *)
let row fields = rows := Obs_json.Obj fields :: !rows

(* A table's "ours" row: its numbers under [keys], after the row's name. *)
let ours_row name keys values =
  row
    (("circuit", Obs_json.String name)
    :: List.map2 (fun k v -> (k, Obs_json.Int v)) keys values)

let skip reason =
  Printf.printf "skipped (%s)\n" reason;
  skipped := Some reason

type section = {
  id : string;
  title : string;
  gate_keys : string list; (* booleans every row must hold true *)
  exact_keys : string list; (* values a later snapshot must repeat *)
  run : unit -> unit;
}

let run_section s =
  Printf.printf "\n################ %s — %s\n%!" s.id s.title;
  rows := [];
  skipped := None;
  let w0 = wall () in
  Obs.Span.with_ ("bench." ^ s.id) s.run;
  let secs = max 0. (wall () -. w0) in
  Printf.printf "[%s done in %.2fs wall]\n%!" s.id secs;
  let strings l = Obs_json.List (List.map (fun k -> Obs_json.String k) l) in
  Obs_json.Obj
    ([
       ("id", Obs_json.String s.id);
       ("title", Obs_json.String s.title);
       ("wall_seconds", Obs_json.Float secs);
       ("gate_keys", strings s.gate_keys);
       ("exact_keys", strings s.exact_keys);
       ("rows", Obs_json.List (List.rev !rows));
     ]
    @ match !skipped with Some r -> [ ("skipped", Obs_json.String r) ] | None -> [])

(* ------------------------------------------------------------------ *)
(* Shared circuit versions, computed once per benchmark name.          *)
(* ------------------------------------------------------------------ *)

(* Derived circuits (Procedure 2/3, RAR, ...) are deterministic, so each is
   built once per run and handed out as a copy. *)
let memo : (string * string, Circuit.t) Hashtbl.t = Hashtbl.create 32

let version name variant build =
  let c =
    match Hashtbl.find_opt memo (name, variant) with
    | Some c -> c
    | None ->
      let c = build () in
      Hashtbl.replace memo (name, variant) c;
      c
  in
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

let table1_keys = [ "v1"; "v2" ]

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
      let path = String.concat "-" (Array.to_list (Array.map name test.Unit_testgen.path)) in
      let direction = Robust.direction_to_string test.Unit_testgen.direction in
      let v1 = vec test.Unit_testgen.v1 and v2 = vec test.Unit_testgen.v2 in
      Table.add_row t [ path; direction; v1 ^ " -> " ^ v2 ];
      row
        Obs_json.
          [ ("fault", String (path ^ " " ^ direction)); ("v1", String v1); ("v2", String v2) ])
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

let table2_keys =
  [ "gates_orig"; "gates_p2"; "gates_p2rr"; "paths_orig"; "paths_p2"; "paths_p2rr" ]

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
      let values =
        [ gates2 orig; gates2 p2; gates2 p2rr; paths orig; paths p2; paths p2rr ]
      in
      Table.add_row t (name :: "ours" :: List.map Table.int values);
      ours_row name table2_keys values;
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

let table3_keys =
  [ "gates_orig"; "paths_orig"; "gates_rar"; "paths_rar"; "gates_rar_p2"; "paths_rar_p2" ]

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
      let values = [ gates2 orig; paths orig; gates2 r; paths r; gates2 rp; paths rp ] in
      Table.add_row t (name :: "ours" :: List.map Table.int values);
      ours_row name table3_keys values;
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

let table4_keys =
  [
    "literals_orig"; "longest_orig"; "literals_p2"; "longest_p2"; "literals_rar";
    "longest_rar"; "literals_rar_p2"; "longest_rar_p2";
  ]

let table4 () =
  let ta =
    Table.create ~title:"Table 4(a) — technology mapping: original vs Procedure 2"
      ~columns:[ "circuit"; "which"; "lit orig"; "longest"; "lit P2"; "longest P2" ]
  in
  let tb =
    Table.create ~title:"Table 4(b) — technology mapping: RAR vs RAR + Procedure 2"
      ~columns:[ "circuit"; "which"; "lit RAR"; "longest"; "lit RAR+P2"; "longest" ]
  in
  let add t name (m1, m2) paper =
    Table.add_row t
      [
        name; "ours";
        Table.int m1.Mapper.literals; string_of_int m1.Mapper.longest;
        Table.int m2.Mapper.literals; string_of_int m2.Mapper.longest;
      ];
    match List.assoc_opt name paper with
    | Some ((l0, d0), (l2, d2)) ->
      Table.add_row t
        [ name; "paper"; Table.int l0; string_of_int d0; Table.int l2; string_of_int d2 ]
    | None -> ()
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let m0 = Mapper.map (original e) in
      let m2 = Mapper.map (proc2 e) in
      let m1 = Mapper.map (rar e) in
      let m3 = Mapper.map (rar_proc2 e) in
      add ta name (m0, m2) paper_table4a;
      add tb name (m1, m3) paper_table4b;
      ours_row name table4_keys
        (List.concat_map (fun m -> [ m.Mapper.literals; m.Mapper.longest ]) [ m0; m2; m1; m3 ]))
    (bench_small ());
  Table.print ta;
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

let table5_keys =
  [ "inputs"; "outputs"; "gates_orig"; "gates_p3"; "paths_orig"; "paths_p3" ]

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
      let inputs = Circuit.num_inputs orig and outputs = Circuit.num_outputs orig in
      let rest = [ gates2 orig; gates2 p3; paths orig; paths p3 ] in
      Table.add_row t
        (name :: "ours" :: string_of_int inputs :: string_of_int outputs
        :: List.map Table.int rest);
      ours_row name table5_keys (inputs :: outputs :: rest);
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

let table6_keys =
  [ "faults"; "remain"; "eff_patt"; "faults_p2rr"; "remain_p2rr"; "eff_patt_p2rr" ]

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
      ours_row name table6_keys
        (List.concat_map
           (fun r ->
             Campaign.[ r.total_faults; r.remaining; r.last_effective_pattern ])
           [ r0; r1 ]);
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

let table7_keys = [ "eff"; "detected"; "faults"; "detected_p2"; "faults_p2" ]

let table7 () =
  let window = if !quick then 5_000 else 10_000 in
  let max_pairs = if !quick then 100_000 else 200_000 in
  Printf.printf "stop window: %s ineffective pairs (paper: 100,000)\n" (Table.int window);
  let e = Benchmarks.find "irs13207" in
  if not (circuit_enabled e) then skip "irs13207 excluded by --only-circuits"
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
  let ours base_name base_circuit modified =
    let r0 = run base_circuit in
    let r1 = run modified in
    let eff =
      max r0.Pdf_campaign.last_effective_pattern r1.Pdf_campaign.last_effective_pattern
    in
    Table.add_row t [ base_name; "ours"; Table.int eff; fmt r0; fmt r1 ];
    row
      (("base", Obs_json.String base_name)
      :: List.map2
           (fun k v -> (k, Obs_json.Int v))
           table7_keys
           Pdf_campaign.[ eff; r0.detected; r0.total_faults; r1.detected; r1.total_faults ])
  in
  ours "original" (original e) (proc2 e);
  ours "RAR" (rar e) (rar_proc2 e);
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

(* Every table row above compares a resynthesised circuit against its
   original; this section SAT-proves (Cec.check_stats, DESIGN.md §10) that
   each of those pairs really computes the same function, so the size and
   testability numbers describe the *same* circuit family: Procedures 2 and
   3, RAR and RAR followed by Procedure 2 (Table 3). Each row's
   [equivalent] is a declared gate, and its solver decisions and conflicts
   are exact keys: the same miters must get the same search. *)
let cec () =
  let t =
    Table.create ~title:"Equivalence — SAT miter proofs for the resynthesised circuits"
      ~columns:
        [ "circuit"; "pair"; "verdict"; "outputs solved"; "decisions"; "conflicts"; "seconds" ]
  in
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let orig = original e in
      let check pair c =
        let (verdict, s), secs =
          time_wall (fun () -> Cec.check_stats ~domains:!domains orig c)
        in
        let vs = Format.asprintf "%a" Cec.pp_verdict verdict in
        let short = if String.length vs > 24 then String.sub vs 0 21 ^ "..." else vs in
        row
          Obs_json.
            [
              ("pair", String (name ^ " " ^ pair));
              ("equivalent", Bool (verdict = Cec.Equivalent));
              ("verdict", String short);
              ("outputs_solved", Int s.Cec.outputs_checked);
              ("decisions", Int s.Cec.decisions);
              ("conflicts", Int s.Cec.conflicts);
              ("wall_seconds", Float secs);
            ];
        Table.add_row t
          [
            name; pair; short;
            Table.int s.Cec.outputs_checked; Table.int s.Cec.decisions;
            Table.int s.Cec.conflicts; Printf.sprintf "%.2f" secs;
          ]
      in
      check "orig-vs-p2" (proc2 e);
      check "orig-vs-p3" (proc3 e);
      check "orig-vs-rar" (rar e);
      check "orig-vs-rar+p2" (rar_proc2 e))
    (bench_all ());
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
   worklist, then Sat_atpg.escalate to settle it exactly. Each row's
   [escalation_ok] is a declared gate (no fault may remain undecided after
   the SAT pass), and PODEM's verdict counts must equal the baseline's: a
   changed abort set would still escalate cleanly (DESIGN.md §18). So must
   PODEM's decisions and backtracks and the escalation's solver conflicts
   and propagations: the same faults and formulas must get the same
   search, not only the same verdicts. *)
let sat_atpg_keys =
  [ "survivors"; "aborted_before"; "podem_decisions"; "podem_backtracks"; "sat_tests";
    "sat_redundant"; "sat_conflicts"; "sat_propagations" ]

let sat_atpg () =
  (* The search counts come from the podem.* and sat.* counters, so
     collection must be on (same rationale as the incremental section). *)
  Obs.enable ();
  let decisions_c = Obs.Counter.make "podem.decisions" in
  let backtracks_c = Obs.Counter.make "podem.backtracks" in
  let conflicts_c = Obs.Counter.make "sat.conflicts" in
  let propagations_c = Obs.Counter.make "sat.propagations" in
  let t =
    Table.create ~title:"SAT ATPG — escalation of PODEM-aborted faults (raw stand-ins)"
      ~columns:
        [ "circuit"; "survivors"; "podem decisions"; "podem backtracks"; "podem aborts";
          "sat tests"; "sat redundant"; "undecided"; "conflicts"; "propagations"; "ok";
          "seconds" ]
  in
  let entries =
    if !quick then List.filter circuit_enabled [ Benchmarks.find "irs1423" ]
    else bench_small ()
  in
  let podem_backtracks = 20 in
  let limits = Limits.default in
  if entries = [] then skip "its circuits are excluded by --only-circuits"
  else begin
  List.iter
    (fun e ->
      let name = e.Benchmarks.name in
      let c = Circuit_gen.generate e.Benchmarks.profile in
      let (aborted, esc, survivors, (decisions, backtracks), (conflicts, propagations)), secs =
        time_wall (fun () ->
            let cfg = { Campaign.default with max_patterns = 4096; seed = 7L } in
            let _, survivors = Campaign.exec_survivors cfg c in
            let delta c1 c2 f =
              let v1 = Obs.Counter.value c1 and v2 = Obs.Counter.value c2 in
              let r = f () in
              (r, (Obs.Counter.value c1 - v1, Obs.Counter.value c2 - v2))
            in
            let stats, podem_search =
              delta decisions_c backtracks_c (fun () ->
                  Podem.generate_all ~backtrack_limit:podem_backtracks c survivors)
            in
            let aborted = stats.Podem.aborted_faults in
            let esc, sat_search =
              delta conflicts_c propagations_c (fun () -> Sat_atpg.escalate ~limits c aborted)
            in
            (List.length aborted, esc, List.length survivors, podem_search, sat_search))
      in
      let undecided = List.length esc.Sat_atpg.unknown in
      let ok = undecided = 0 in
      row
        Obs_json.
          [
            ("circuit", String name);
            ("survivors", Int survivors);
            ("aborted_before", Int aborted);
            ("podem_decisions", Int decisions);
            ("podem_backtracks", Int backtracks);
            ("sat_tests", Int (List.length esc.Sat_atpg.tests));
            ("sat_redundant", Int (List.length esc.Sat_atpg.redundant));
            ("sat_conflicts", Int conflicts);
            ("sat_propagations", Int propagations);
            ("aborted_after", Int undecided);
            ("conflict_budget", Int limits.Limits.sat_conflicts);
            ("escalation_ok", Bool ok);
            ("wall_seconds", Float secs);
          ];
      Table.add_row t
        [
          name; Table.int survivors; Table.int decisions; Table.int backtracks;
          Table.int aborted; Table.int (List.length esc.Sat_atpg.tests);
          Table.int (List.length esc.Sat_atpg.redundant);
          Table.int undecided; Table.int conflicts; Table.int propagations;
          (if ok then "yes" else "NO");
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
  end

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
      let options = proc2_options k in
      let (), secs = time_wall (fun () -> ignore (Procedure2.run ~options c)) in
      Table.add_row t
        [
          string_of_int k; Table.int (gates2 c); Table.int (paths c);
          string_of_int (Levelize.depth_logic c);
          Printf.sprintf "%.2f" secs;
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
      let (), secs = time_wall (fun () -> ignore (Procedure2.run ~options c)) in
      Table.add_row t
        [
          label; Table.int (gates2 c); Table.int (paths c);
          Printf.sprintf "%.2f" secs;
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
      let (), secs = time_wall (fun () -> ignore (Procedure2.run ~options c)) in
      Table.add_row t
        [
          label; Table.int (gates2 c); Table.int (paths c);
          Printf.sprintf "%.2f" secs;
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
(* Incremental resynthesis: second-pass work on a large synthetic      *)
(* circuit, the reference full walk vs the production dirty-set walk,  *)
(* and the bit-identity of the two (DESIGN.md §13, §17).                *)
(* ------------------------------------------------------------------ *)

let incremental () =
  (* Cut enumeration and pop counts come from the engine.*
     counters, so collection must be on even when no --json/--metrics
     sink asked for it (this section registers late: earlier sections keep
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
  let candidates_c = Obs.Counter.make "engine.candidates" in
  let popped_c = Obs.Counter.make "engine.worklist_popped" in
  let opts ~passes =
    { (proc2_options 4) with Engine.max_candidates = 24; max_passes = passes }
  in
  (* One run per configuration. The counter deltas are exact, so pass 2's
     cuts are the difference of the two-pass and one-pass runs' counts;
     each wall is its own run's and is reported, not gated. *)
  let run optimize o =
    let c = Circuit.copy base in
    let counters = [ candidates_c; popped_c ] in
    let v0 = List.map Obs.Counter.value counters in
    let stats, secs = time_wall (fun () -> optimize Engine.Gates o c) in
    let deltas = List.map2 (fun k v -> Obs.Counter.value k - v) counters v0 in
    (stats, Bench_format.to_string c, deltas, secs, Circuit.size c)
  in
  let reference = Engine.optimize_reference and production = Engine.optimize in
  let one = opts ~passes:1 and two = opts ~passes:2 in
  let s1f, _, d1f, _, _ = run reference one in
  let sf, nf, d2f, wall_reference, _ = run reference two in
  let _, _, d1i, _, _ = run production one in
  let si, ni, d2i, wall_production, size = run production two in
  let cuts = function c :: _ -> c | [] -> 0 in
  let pass2_cuts_full = max 0 (cuts d2f - cuts d1f) in
  let pass2_cuts_incr = max 0 (cuts d2i - cuts d1i) in
  let fraction =
    if pass2_cuts_full = 0 then 1.
    else float_of_int pass2_cuts_incr /. float_of_int pass2_cuts_full
  in
  let popped = match d2i with [ _; p ] -> p | _ -> assert false in
  (* The full walk visits every root of every pass; the production walk
     reaches only the dirty ones. *)
  let total_roots = si.Engine.passes * size in
  let pop_fraction =
    if total_roots = 0 then 1. else float_of_int popped /. float_of_int total_roots
  in
  let identical = sf = si && nf = ni in
  row
    Obs_json.
      [
        ("circuit", String "incr-large");
        ("gates", Int (gates2 base));
        ("paths", Int (paths base));
        ("pass2_cuts_full", Int pass2_cuts_full);
        ("pass2_cuts_incremental", Int pass2_cuts_incr);
        ("reenum_fraction", Float fraction);
        ("worklist_popped", Int popped);
        ("total_roots", Int total_roots);
        ("pop_fraction", Float pop_fraction);
        ("reference_wall_seconds", Float wall_reference);
        ("production_wall_seconds", Float wall_production);
        ("identical_results", Bool identical);
        ("gate_ok", Bool (identical && fraction < 1. && pop_fraction < 1.));
      ];
  Printf.printf
    "incremental resynthesis on incr-large (%d two-input gates, %d replacements in pass 1)\n"
    (gates2 base) s1f.Engine.replacements;
  Printf.printf "  pass-2 cuts   full %8d   incremental %8d   (%.1f%% re-enumerated)\n"
    pass2_cuts_full pass2_cuts_incr (100. *. fraction);
  Printf.printf "  worklist pops %d of %d full-walk visits (%.2f%%)\n" popped
    total_roots (100. *. pop_fraction);
  Printf.printf "  two-pass wall (one run each): reference %.3fs, production %.3fs\n"
    wall_reference wall_production;
  Printf.printf "  identical results: %b (reference vs production)\n%!" identical

(* ------------------------------------------------------------------ *)
(* "Identification cache" section (DESIGN.md §15).                      *)
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
  let hits_c = Obs.Counter.make "idcache.hits" in
  let miss_c = Obs.Counter.make "idcache.misses" in
  (* The production walk caches identification; the reference walk
     identifies every cut afresh. *)
  let run optimize =
    let o = { (proc2_options 4) with Engine.max_candidates = 24; max_passes = 2 } in
    let c = Circuit.copy base in
    let h0 = Obs.Counter.value hits_c and m0 = Obs.Counter.value miss_c in
    let stats = optimize Engine.Gates o c in
    ( stats,
      Bench_format.to_string c,
      Obs.Counter.value hits_c - h0,
      Obs.Counter.value miss_c - m0 )
  in
  let s_off, n_off, _, _ = run Engine.optimize_reference in
  let s_on, n_on, hits, misses = run Engine.optimize in
  let rate =
    if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)
  in
  let identical = s_off = s_on && n_off = n_on in
  row
    Obs_json.
      [
        ("circuit", String "idc-large");
        ("gates", Int (gates2 base));
        ("paths", Int (paths base));
        ("hits", Int hits);
        ("misses", Int misses);
        ("hit_rate", Float rate);
        ("identical_results", Bool identical);
        ("gate_ok", Bool (identical && hits > 0));
      ];
  Printf.printf "identification cache on idc-large (%d two-input gates)\n" (gates2 base);
  Printf.printf "  cached production walk: hits %8d   misses %8d   (hit rate %.1f%%)\n"
    hits misses (100. *. rate);
  Printf.printf "  identical results: %b (cached production vs uncached reference)\n%!"
    identical

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
  let o =
    { (proc2_options 4) with Engine.max_candidates = 24; max_passes = 2 }
  in
  let run () =
    let c = Circuit.copy base in
    let stats, secs = time_wall (fun () -> Engine.optimize Engine.Gates o c) in
    (stats, Bench_format.to_string c, secs)
  in
  (* One plain run and one journaled run; the journal's footer counts only
     the journaled run, so its funnel is that run's. *)
  let s_plain, n_plain, t_plain = run () in
  let path = Filename.temp_file "sft_bench" ".journal" in
  Obs.Journal.start ~cmd:"bench" path;
  let s_j, n_j, t_j = run () in
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
  row
    Obs_json.
      [
        ("circuit", String "jr-large");
        ("gates", Int (gates2 base));
        ("paths", Int (paths base));
        ("events", Int events);
        ("dropped", Int dropped);
        ("plain_seconds", Float t_plain);
        ("journal_seconds", Float t_j);
        ("funnel_ok", Bool funnel_ok);
        ("identical_results", Bool identical);
        ( "gate_ok",
          Bool (identical && funnel_ok && events > 0 && w.Obs.Journal.dropped = 0) );
      ];
  Printf.printf "decision journal on jr-large (%d two-input gates)\n" (gates2 base);
  Printf.printf "  plain    %7.3fs   journaled %7.3fs\n" t_plain t_j;
  Printf.printf "  events %d, dropped %d\n" events dropped;
  if funnel_line <> "" then Printf.printf "  funnel: %s (holds: %b)\n" funnel_line funnel_ok;
  Printf.printf "  identical results: %b (plain vs journaled)\n%!" identical

(* ------------------------------------------------------------------ *)
(* Sections, the snapshot (--json FILE, schema in DESIGN.md §8), main  *)
(* ------------------------------------------------------------------ *)

(* Every section in run order, with the keys its rows declare: each
   [gates] key must read true in every row, and each [exact] key must
   equal the baseline's when `sft bench-diff` compares two snapshots. *)
let sections =
  let s ?(gates = []) ?(exact = []) id title run =
    { id; title; gate_keys = gates; exact_keys = exact; run }
  in
  let flags = [ "identical_results"; "gate_ok" ] in
  [
    s "figures" "comparison-unit structures (Figures 1-6)" figures;
    s "table1" "robust test set of a comparison unit" table1 ~exact:table1_keys;
    s "table2" "Procedure 2: gates and paths" table2 ~exact:table2_keys;
    s "table3" "RAR baseline comparison" table3 ~exact:table3_keys;
    s "table4" "technology mapping" table4 ~exact:table4_keys;
    s "table5" "Procedure 3: path minimisation" table5 ~exact:table5_keys;
    s "table6" "random-pattern stuck-at testability" table6 ~exact:table6_keys;
    s "table7" "robust PDF random-pattern campaigns" table7 ~exact:table7_keys;
    s "cec" "SAT equivalence proofs of the resynthesised circuits" cec
      ~gates:[ "equivalent" ] ~exact:[ "decisions"; "conflicts" ];
    s "ablations" "design-choice ablations" ablations;
    s "incremental" "incremental resynthesis vs the reference full walk" incremental
      ~gates:flags;
    s "idcache" "identification cache: cached production vs uncached reference" idcache
      ~gates:flags;
    s "sat_atpg" "SAT escalation of PODEM-aborted faults" sat_atpg
      ~gates:[ "escalation_ok" ] ~exact:sat_atpg_keys;
    s "journal" "decision journal: funnel and bit-identity" journal ~gates:flags;
  ]

let write_snapshot file recorded =
  let doc =
    Obs_json.
      [
        ("schema_version", Int 3);
        ("generator", String "sft bench harness");
        ("mode", String (if !quick then "quick" else "full"));
        ("domains", Int !domains);
        (* The --only-circuits scope; null is the unrestricted set. *)
        ( "only_circuits",
          match !only_circuits with
          | [] -> Null
          | names -> List (List.map (fun n -> String n) names) );
        ("recommended_domains", Int (Domain.recommended_domain_count ()));
        ("sections", List recorded);
        ("metrics", Obs.Export.to_json_value ());
      ]
  in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc (Obs_json.to_string (Obs_json.Obj doc));
      output_char oc '\n');
  Printf.printf "\nwrote %s\n" file

let () =
  let ids = List.map (fun s -> s.id) sections in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--full" :: rest ->
      quick := false;
      parse rest
    | ("--only" | "--only-sections") :: list :: rest ->
      only := String.split_on_char ',' list;
      (* A typo'd id must not run nothing and still exit 0. *)
      List.iter
        (fun id ->
          if not (List.mem id ids) then begin
            Printf.eprintf "error: unknown section %s (known: %s)\n" id
              (String.concat "," ids);
            exit 2
          end)
        !only;
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
         [--metrics text|json|FILE]\n\
         (--only is an alias of --only-sections)\n"
        other;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* An output path that cannot be written fails before any section runs.
     The probe creates a missing file and never truncates an existing one. *)
  let could_not_write file msg =
    Printf.eprintf "error: could not write %s: %s\n" file msg;
    exit 1
  in
  List.iter
    (fun file ->
      try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 file)
      with Sys_error msg -> could_not_write file msg)
    (Option.to_list !json_file
    @ match !metrics with Some ("text" | "json") | None -> [] | Some path -> [ path ]);
  (* The JSON snapshot always embeds the observability registry, so collect
     whenever any sink wants it. *)
  if !metrics <> None || !json_file <> None then Obs.enable ();
  Printf.printf "sft bench harness (%s mode)\n" (if !quick then "quick" else "full");
  let recorded =
    List.filter_map (fun s -> if enabled s.id then Some (run_section s) else None) sections
  in
  (match !json_file with
  | None -> ()
  | Some file -> (
    try write_snapshot file recorded with Sys_error msg -> could_not_write file msg));
  match !metrics with
  | None -> ()
  | Some "text" -> print_string (Obs.Export.to_text ())
  | Some "json" -> print_endline (Obs.Export.to_json ())
  | Some path -> (
    try Obs.Export.write_file path with Sys_error msg -> could_not_write path msg)
