open Helpers

(* --- netlist edges ----------------------------------------------------------- *)

let test_name_uniquification () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"sig" c in
  let b = Circuit.add_input ~name:"sig" c in
  let g = Circuit.add_gate ~name:"sig" c Gate.And [| a; b |] in
  Circuit.mark_output c g;
  let text = Bench_format.to_string c in
  let c2 = Bench_format.of_string text in
  check bool_ "roundtrips despite name clashes" true (Eval.equivalent_exhaustive c c2)

let test_const_roundtrip () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let one = Circuit.add_const c true in
  let g = Circuit.add_gate c Gate.Xor [| a; one |] in
  Circuit.mark_output c g;
  let c2 = Bench_format.of_string (Bench_format.to_string c) in
  check bool_ "const roundtrip" true (Eval.equivalent_exhaustive c c2)

let test_overwrite () =
  let a = c17 () in
  let b = mixed () in
  let snapshot = Circuit.copy b in
  Circuit.overwrite b ~with_:a;
  check bool_ "b now behaves like c17" true (Eval.equivalent_exhaustive a b);
  Circuit.overwrite b ~with_:snapshot;
  check int_ "restored inputs" 3 (Circuit.num_inputs b)

let test_compact_idempotent () =
  for seed = 1 to 6 do
    let c = random_circuit ~n_pi:5 ~n_gates:18 seed in
    let c1, _ = Circuit.compact c in
    let c2, _ = Circuit.compact c1 in
    check bool_ "same function" true (Eval.equivalent_exhaustive c c1);
    check int_ "same size after recompaction" (Circuit.num_live_nodes c1)
      (Circuit.num_live_nodes c2)
  done

let test_output_on_input () =
  let c = Circuit.create () in
  let a = Circuit.add_input ~name:"a" c in
  Circuit.mark_output ~name:"o" c a;
  check int_ "one path" 1 (Paths.total c);
  check int_ "depth zero" 0 (Levelize.depth c);
  let outs = Eval.run c [| true |] in
  check bool_ "wire" true outs.(0)

let test_duplicate_po_designation () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let g = Circuit.add_gate c Gate.Or [| a; b |] in
  Circuit.mark_output ~name:"o1" c g;
  Circuit.mark_output ~name:"o2" c g;
  (* both designations count separately in the path total, as in Procedure 1 *)
  check int_ "paths double" 4 (Paths.total c);
  check int_ "two outputs" 2 (Circuit.num_outputs c)

(* --- fault-model edges -------------------------------------------------------- *)

let test_branch_fault_independence () =
  (* stem s fans out to g1 and g2; a branch fault on the g1 pin must not
     affect g2. *)
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let s = Circuit.add_gate c Gate.And [| a; b |] in
  let g1 = Circuit.add_gate c Gate.Not [| s |] in
  let g2 = Circuit.add_gate c Gate.Buf [| s |] in
  Circuit.mark_output c g1;
  Circuit.mark_output c g2;
  let cmp = Compiled.of_circuit c in
  let sim = Fsim.create cmp in
  let fault = { Fault.site = Fault.Branch (g1, 0); stuck = false } in
  (* pattern 11: s=1; branch s-a-0 flips g1 only *)
  Fsim.load_patterns sim [| -1L; -1L |];
  let mask = Fsim.detect sim fault in
  check bool_ "detected" true (Int64.logand mask 1L = 1L);
  (* g2 unaffected: the faulty value of g2 must equal the good one; detection
     mask must come from g1 alone, so flipping the observation works out *)
  let stem_fault = { Fault.site = Fault.Stem s; stuck = false } in
  let mask2 = Fsim.detect sim stem_fault in
  check bool_ "stem detected too" true (Int64.logand mask2 1L = 1L)

let test_fault_on_po_stem () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  Circuit.mark_output c a;
  let faults = Fault.all c in
  check int_ "two faults on the only line" 2 (List.length faults);
  let cmp = Compiled.of_circuit c in
  let sim = Fsim.create cmp in
  Fsim.load_patterns sim [| 0b10L |];
  List.iter
    (fun f ->
      let mask = Fsim.detect sim f in
      (* s-a-1 detected by pattern 0 (a=0), s-a-0 by pattern 1 (a=1) *)
      check bool_ "one pattern detects" true (mask <> 0L))
    faults

(* --- comparison edges ----------------------------------------------------------- *)

let test_unit_n1 () =
  List.iter
    (fun (lo, hi) ->
      let b = Comparison_unit.build_interval ~lo ~hi 1 in
      let spec =
        { Comparison_fn.perm = [| 1 |]; lo; hi; complemented = false }
      in
      check bool_
        (Printf.sprintf "n=1 [%d,%d]" lo hi)
        true
        (Comparison_unit.verify ~n:1 spec b))
    [ (0, 0); (1, 1); (0, 1) ]

let test_unit_single_minterm () =
  (* lo = hi: every variable is free; the unit is one AND of literals *)
  let b = Comparison_unit.build_interval ~lo:9 ~hi:9 4 in
  check int_ "one AND gate" 3 b.Comparison_unit.gates2;
  check int_ "depth 1" 1 b.Comparison_unit.depth;
  Array.iter (fun p -> check int_ "single path" 1 p) b.Comparison_unit.input_paths

let test_identify_all_n3_functions () =
  (* Exhaustive ground truth for every 3-variable function: the exact engine
     must agree with brute-force over all 6 permutations. *)
  let perms =
    [ [| 1; 2; 3 |]; [| 1; 3; 2 |]; [| 2; 1; 3 |]; [| 2; 3; 1 |]; [| 3; 1; 2 |]; [| 3; 2; 1 |] ]
  in
  for code = 0 to 255 do
    let f = Truthtable.create 3 (fun m -> code land (1 lsl m) <> 0) in
    let brute =
      List.exists
        (fun p ->
          let g = Truthtable.permute f p in
          Truthtable.as_interval g <> None
          || Truthtable.as_interval (Truthtable.lnot g) <> None)
        perms
    in
    let exact = Comparison_fn.identify_exact f <> None in
    (* empty/full functions: exact identifies via the complement rule *)
    if brute <> exact then
      Alcotest.failf "function %02x: brute %b, exact %b" code brute exact
  done

(* --- techmap edges ---------------------------------------------------------------- *)

let test_aoi21_matches () =
  (* INV(NAND(NAND(a,b), INV c)) should map to a single AOI21 (3 literals). *)
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let d = Circuit.add_input c in
  let ab = Circuit.add_gate c Gate.And [| a; b |] in
  let g = Circuit.add_gate c Gate.Nor [| ab; d |] in
  Circuit.mark_output c g;
  let r = Mapper.map c in
  check int_ "AOI21 literals" 3 r.Mapper.literals;
  check int_ "single cell" 1 r.Mapper.cells_used

let test_map_const_output () =
  let c = Circuit.create () in
  let _ = Circuit.add_input c in
  let k = Circuit.add_const c true in
  Circuit.mark_output c k;
  let r = Mapper.map c in
  check int_ "no cells" 0 r.Mapper.cells_used;
  check int_ "no literals" 0 r.Mapper.literals

(* --- delay edges -------------------------------------------------------------------- *)

let test_wave_constants () =
  let w = Wave.eval Gate.And [| Wave.stable true; Wave.eval Gate.Const0 [||] |] in
  check bool_ "and with const0" true (w = Wave.stable false);
  let w = Wave.eval Gate.Nor [| Wave.stable false; Wave.eval Gate.Const0 [||] |] in
  check bool_ "nor of zeros" true (w = Wave.stable true)

let test_pdf_campaign_wire_circuit () =
  (* PI directly observed: two faults, both robustly detected by any pair
     with a transition. *)
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  Circuit.mark_output c a;
  let r =
    Pdf_campaign.exec
      { Pdf_campaign.default with max_pairs = 100; stop_window = 100; seed = 1L }
      c
  in
  check int_ "both detected" 2 r.Pdf_campaign.detected

(* --- multi-unit / dc edges ------------------------------------------------------------ *)

let test_multi_unit_single_run_degenerates () =
  let f = Truthtable.interval 4 ~lo:3 ~hi:9 in
  let rng = Rng.create 7L in
  match Multi_unit.find rng f with
  | None -> Alcotest.fail "interval has a 1-unit cover"
  | Some cover ->
    check int_ "one unit" 1 (List.length cover.Multi_unit.specs);
    check bool_ "exact" true (Multi_unit.verify ~n:4 f (Multi_unit.build ~n:4 cover))

let test_dontcare_observed () =
  let c = c17 () in
  let cmp = Compiled.of_circuit c in
  let rng = Rng.create 11L in
  let batches =
    Array.init 8 (fun _ ->
        let words = Bytes.make (8 * Compiled.size cmp) '\000' in
        Compiled.simulate_into cmp (Array.init 5 (fun _ -> Rng.next64 rng)) words;
        words)
  in
  let inputs = Circuit.inputs c in
  (* all 32 combinations of 5 free PIs are reachable; with 512 random
     patterns the observed table should be full or nearly so *)
  let seen = Dontcare.observed batches [| inputs.(0); inputs.(1) |] in
  check bool_ "everything observed on a 2-input cut" true
    (Truthtable.is_const seen = Some true)

let suite =
  [
    ("bench names uniquified", `Quick, test_name_uniquification);
    ("bench constants roundtrip", `Quick, test_const_roundtrip);
    ("circuit overwrite", `Quick, test_overwrite);
    ("compact is idempotent", `Quick, test_compact_idempotent);
    ("output directly on an input", `Quick, test_output_on_input);
    ("duplicate output designation", `Quick, test_duplicate_po_designation);
    ("branch faults are pin-local", `Quick, test_branch_fault_independence);
    ("faults on an observed input", `Quick, test_fault_on_po_stem);
    ("units of one variable", `Quick, test_unit_n1);
    ("single-minterm unit", `Quick, test_unit_single_minterm);
    ("exact engine vs brute force on all 3-var functions", `Quick, test_identify_all_n3_functions);
    ("AOI21 single-cell match", `Quick, test_aoi21_matches);
    ("mapping a constant output", `Quick, test_map_const_output);
    ("wave constants", `Quick, test_wave_constants);
    ("pdf campaign on a wire", `Quick, test_pdf_campaign_wire_circuit);
    ("multi-unit degenerates to one unit", `Quick, test_multi_unit_single_run_degenerates);
    ("don't-care observation on a narrow cut", `Quick, test_dontcare_observed);
  ]
