open Helpers

(* --- Justification ----------------------------------------------------------- *)

let test_justify_agrees_with_exhaustive () =
  for seed = 1 to 10 do
    let c = random_circuit ~n_pi:5 ~n_gates:14 seed in
    let rng = Rng.create (Int64.of_int (seed * 3)) in
    let order = Circuit.topo_order c in
    for _ = 1 to 10 do
      (* pick 1-2 random target lines with random values *)
      let pick () = (order.(Rng.int rng (Array.length order)), Rng.bool rng) in
      let targets = if Rng.bool rng then [ pick () ] else [ pick (); pick () ] in
      (* skip degenerate duplicate-node targets with conflicting values *)
      let consistent =
        List.for_all
          (fun (n, v) -> List.for_all (fun (n', v') -> n <> n' || v = v') targets)
          targets
      in
      if consistent then begin
        let truth = Justify.reachable_exhaustive c targets in
        match Justify.run (Justify.create ~backtrack_limit:10_000 c) targets with
        | Justify.Sat vec ->
          if not truth then Alcotest.failf "seed %d: SAT but unreachable" seed;
          let values = Eval.node_values c vec in
          List.iter
            (fun (node, want) ->
              check bool_ "witness achieves target" want values.(node))
            targets
        | Justify.Unsat ->
          if truth then Alcotest.failf "seed %d: UNSAT but reachable" seed
        | Justify.Unknown -> ()
      end
    done
  done

let test_justify_simple () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let na = Circuit.add_gate c Gate.Not [| a |] in
  let g = Circuit.add_gate c Gate.And [| a; na |] in
  let h = Circuit.add_gate c Gate.Or [| a; b |] in
  Circuit.mark_output c g;
  Circuit.mark_output c h;
  let justify = Justify.create c in
  (match Justify.run justify [ (g, true) ] with
  | Justify.Unsat -> ()
  | Justify.Sat _ | Justify.Unknown -> Alcotest.fail "a AND a' = 1 is unreachable");
  match Justify.run justify [ (h, true); (a, false) ] with
  | Justify.Sat vec ->
    check bool_ "a=0" false vec.(0);
    check bool_ "b=1" true vec.(1)
  | Justify.Unsat | Justify.Unknown -> Alcotest.fail "h=1, a=0 is reachable"

(* --- Don't-care identification ------------------------------------------------ *)

let test_identify_dc_basic () =
  (* ON = {2,3}, OFF = {0,5}, DC = rest. Under the identity order the span
     [2,3] avoids the care-OFF minterms -> identified without permutation. *)
  let care_on = Truthtable.of_minterms 3 [ 2; 3 ] in
  let dc = Truthtable.of_minterms 3 [ 1; 4; 6; 7 ] in
  let rng = Rng.create 1L in
  match Comparison_fn.identify_dc rng ~care_on ~dc with
  | None -> Alcotest.fail "should identify with don't-cares"
  | Some spec ->
    check bool_ "agrees on cares" true (Comparison_fn.dc_matches ~care_on ~dc spec)

let test_identify_dc_needs_dc () =
  (* 2-of-3 majority is not a comparison function (see the comparison suite),
     but declaring its OFF-set a don't-care trivially allows a span. *)
  let care_on = Truthtable.of_minterms 3 [ 3; 5; 6; 7 ] in
  let none = Truthtable.const 3 false in
  let all_dc = Truthtable.lnot care_on in
  let rng = Rng.create 2L in
  check bool_ "without DCs it fails" true
    (Comparison_fn.identify_exact care_on = None);
  (match Comparison_fn.identify_dc rng ~care_on ~dc:none with
  | Some s ->
    (* with no don't-cares the result must be a real comparison function *)
    check bool_ "no-DC result is sound" true (Comparison_fn.check care_on s)
  | None -> ());
  match Comparison_fn.identify_dc rng ~care_on ~dc:all_dc with
  | None -> Alcotest.fail "full DC freedom must succeed"
  | Some s -> check bool_ "sound" true (Comparison_fn.dc_matches ~care_on ~dc:all_dc s)

let prop_identify_dc_sound =
  QCheck.Test.make ~name:"identify_dc results agree on every care minterm" ~count:200
    (QCheck.pair (QCheck.int_range 1 1000) (QCheck.int_range 0 255))
    (fun (seed, mask) ->
      let rng = Rng.create (Int64.of_int seed) in
      let care_on = Truthtable.create 4 (fun _ -> Rng.bool rng) in
      let dc =
        Truthtable.land_
          (Truthtable.create 4 (fun m -> (mask lsr (m land 7)) land 1 = 1))
          (Truthtable.lnot care_on)
      in
      let care_on = Truthtable.land_ care_on (Truthtable.lnot dc) in
      match Comparison_fn.identify_dc rng ~care_on ~dc with
      | None -> true
      | Some spec -> Comparison_fn.dc_matches ~care_on ~dc spec)

(* --- Multi-unit covers -------------------------------------------------------- *)

let test_multi_unit_xor3 () =
  (* XOR of 3 variables is not a comparison function but has a 2-unit cover:
     ON = {1,2,4,7} -> runs {1,2},{4},{7}? Under some permutation fewer runs
     exist; the cover search must find one within 3 units and the built
     circuit must compute XOR exactly. *)
  let xor3 = Truthtable.of_minterms 3 [ 1; 2; 4; 7 ] in
  let rng = Rng.create 3L in
  match Multi_unit.find ~max_units:3 rng xor3 with
  | None -> Alcotest.fail "xor3 must have a small cover"
  | Some cover ->
    check bool_ "at most 3 units" true (List.length cover.Multi_unit.specs <= 3);
    let built = Multi_unit.build ~n:3 cover in
    check bool_ "computes xor3" true (Multi_unit.verify ~n:3 xor3 built)

let prop_multi_unit_exact =
  QCheck.Test.make ~name:"multi-unit covers compute the function exactly" ~count:200
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let f = Truthtable.create 4 (fun _ -> Rng.bool rng) in
      match Truthtable.is_const f with
      | Some _ -> true
      | None -> (
        match Multi_unit.find ~max_units:8 rng f with
        | None -> false (* with 8 units every 4-var function is coverable *)
        | Some cover -> Multi_unit.verify ~n:4 f (Multi_unit.build ~n:4 cover)))

let test_multi_unit_respects_limit () =
  let rng = Rng.create 9L in
  (* checkerboard needs many runs; with max_units 2 it must be rejected or
     covered within 2 *)
  let f = Truthtable.of_minterms 4 [ 0; 2; 4; 6; 8; 10; 12; 14 ] in
  match Multi_unit.find ~max_units:2 rng f with
  | None -> ()
  | Some cover -> check bool_ "limit" true (List.length cover.Multi_unit.specs <= 2)

(* --- Engine with extensions ----------------------------------------------------- *)

let ext_options =
  {
    Engine.default_options with
    Engine.k = 4;
    max_candidates = 16;
    max_passes = 4;
    use_dontcares = true;
    max_units = 3;
  }

let test_procedure2_with_extensions_safe () =
  (* Don't-care replacements only differ on proved-unreachable input
     combinations, so whole-circuit equivalence must still hold exactly. *)
  for seed = 200 to 216 do
    let c = random_circuit ~n_pi:6 ~n_gates:28 ~n_po:4 seed in
    let reference = Circuit.copy c in
    let stats = Procedure2.run ~options:ext_options c in
    Check.validate c;
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: extended procedure 2 broke the function" seed;
    if stats.Engine.gates_after > stats.Engine.gates_before then
      Alcotest.failf "seed %d: extended procedure 2 grew gates" seed
  done

let test_procedure3_with_extensions_safe () =
  for seed = 230 to 242 do
    let c = random_circuit ~n_pi:6 ~n_gates:28 ~n_po:4 seed in
    let reference = Circuit.copy c in
    let stats = Procedure3.run ~options:ext_options c in
    Check.validate c;
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: extended procedure 3 broke the function" seed;
    if stats.Engine.paths_after > stats.Engine.paths_before then
      Alcotest.failf "seed %d: extended procedure 3 grew paths" seed
  done

let suite =
  [
    ("justify agrees with exhaustive reachability", `Quick, test_justify_agrees_with_exhaustive);
    ("justify basics", `Quick, test_justify_simple);
    ("identify_dc basic", `Quick, test_identify_dc_basic);
    ("identify_dc needs don't-cares", `Quick, test_identify_dc_needs_dc);
    ("multi-unit: xor3", `Quick, test_multi_unit_xor3);
    ("multi-unit respects unit limit", `Quick, test_multi_unit_respects_limit);
    ("procedure 2 with extensions is safe", `Quick, test_procedure2_with_extensions_safe);
    ("procedure 3 with extensions is safe", `Quick, test_procedure3_with_extensions_safe);
  ]

let qchecks = [ prop_identify_dc_sound; prop_multi_unit_exact ]
