open Helpers

let test_podem_finds_tests_c17 () =
  let c = c17 () in
  let cmp = Compiled.of_circuit c in
  let sim = Fsim.create cmp in
  List.iter
    (fun f ->
      match Podem.generate c f with
      | Podem.Test v ->
        check bool_
          (Printf.sprintf "test for %s really detects" (Fault.to_string c f))
          true
          (Fsim.detect_single sim f v)
      | Podem.Untestable ->
        Alcotest.failf "c17 fault %s wrongly untestable" (Fault.to_string c f)
      | Podem.Aborted ->
        Alcotest.failf "c17 fault %s aborted" (Fault.to_string c f))
    (Fault.all c)

let test_podem_untestable () =
  (* AND(a, a') output s-a-0 is untestable. *)
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let na = Circuit.add_gate c Gate.Not [| a |] in
  let dead = Circuit.add_gate c Gate.And [| a; na |] in
  let out = Circuit.add_gate c Gate.Or [| dead; b |] in
  Circuit.mark_output c out;
  (match Podem.generate c { Fault.site = Fault.Stem dead; stuck = false } with
  | Podem.Untestable -> ()
  | Podem.Test _ -> Alcotest.fail "should be untestable"
  | Podem.Aborted -> Alcotest.fail "should not abort");
  (* ... but its s-a-1 is testable (set a so that dead=0 matters? dead is
     always 0; s-a-1 flips it to 1 and b=0 observes it). *)
  match Podem.generate c { Fault.site = Fault.Stem dead; stuck = true } with
  | Podem.Test v ->
    let cmp = Compiled.of_circuit c in
    let sim = Fsim.create cmp in
    check bool_ "s-a-1 detected" true
      (Fsim.detect_single sim { Fault.site = Fault.Stem dead; stuck = true } v)
  | Podem.Untestable | Podem.Aborted -> Alcotest.fail "s-a-1 should be testable"

let test_podem_agrees_with_exhaustive () =
  (* On small random circuits, PODEM's testable/untestable verdict must agree
     with exhaustive simulation over all input vectors. *)
  for seed = 1 to 12 do
    let c = random_circuit ~n_pi:4 ~n_gates:10 seed in
    let cmp = Compiled.of_circuit c in
    let sim = Fsim.create cmp in
    List.iter
      (fun f ->
        let exhaustively_testable =
          let found = ref false in
          for m = 0 to 15 do
            let v = Array.init 4 (fun j -> m land (1 lsl (3 - j)) <> 0) in
            if Fsim.detect_single sim f v then found := true
          done;
          !found
        in
        match Podem.generate c f with
        | Podem.Test v ->
          if not (Fsim.detect_single sim f v) then
            Alcotest.failf "seed %d: PODEM test for %s does not detect" seed
              (Fault.to_string c f);
          check bool_ "agrees testable" true exhaustively_testable
        | Podem.Untestable ->
          if exhaustively_testable then
            Alcotest.failf "seed %d: %s is testable but PODEM says untestable"
              seed (Fault.to_string c f)
        | Podem.Aborted -> ())
      (Fault.all c)
  done

let test_redundancy_removal () =
  (* Circuit with an obviously redundant cone. *)
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let d = Circuit.add_input c in
  let na = Circuit.add_gate c Gate.Not [| a |] in
  let dead = Circuit.add_gate c Gate.And [| a; na |] in
  let mid = Circuit.add_gate c Gate.Or [| dead; b |] in
  let out = Circuit.add_gate c Gate.And [| mid; d |] in
  Circuit.mark_output c out;
  let reference = Circuit.copy c in
  let fresh, report = Redundancy.make_irredundant ~seed:5L c in
  check bool_ "something removed" true (report.Redundancy.removed > 0);
  check bool_ "function preserved" true (Eval.equivalent_exhaustive reference fresh);
  check bool_ "smaller" true
    (Circuit.two_input_gate_count fresh < Circuit.two_input_gate_count reference);
  (* The result must have no untestable collapsed faults left. *)
  let found = Redundancy.find_untestable ~seed:6L fresh in
  check int_ "no redundancy left" 0 (List.length found.Redundancy.untestable);
  check int_ "no SAT redundancy left" 0 (List.length found.Redundancy.sat_redundant);
  check int_ "no aborts" 0 (List.length found.Redundancy.unresolved)

let test_redundancy_preserves_random () =
  for seed = 30 to 36 do
    let c = random_circuit ~n_pi:5 ~n_gates:18 seed in
    let reference = Circuit.copy c in
    let fresh, _ = Redundancy.make_irredundant ~seed:(Int64.of_int seed) c in
    check bool_
      (Printf.sprintf "seed %d function preserved" seed)
      true
      (Eval.equivalent_exhaustive reference fresh)
  done

(* A pass can have candidates and remove none: the shared escalation solver
   proved a fault redundant, but the fresh solver of its re-proof runs out of
   conflicts. Such a pass leaves the circuit unchanged, so removal used to
   repeat it forever. *)
let test_redundancy_terminates_on_failed_reproofs () =
  let c =
    Circuit_gen.generate
      {
        Circuit_gen.name = "stall";
        n_pi = 13;
        n_po = 7;
        n_gates = 100;
        depth = 9;
        combine_pct = 30;
        xor_pct = 4;
        seed = 1L;
      }
  in
  let limits = { Limits.default with Limits.podem_backtracks = 0; sat_conflicts = 5 } in
  let report = Redundancy.remove ~limits ~prefilter_patterns:256 ~seed:1L c in
  check bool_ "failed re-proofs counted as undecided" true (report.Redundancy.aborted >= 1)

let test_equiv () =
  let c = c17 () in
  let c2 = Bench_format.of_string (Bench_format.to_string c) in
  (match Equiv.check ~seed:1L c c2 with
  | Equiv.Equivalent -> ()
  | Equiv.Counterexample _ | Equiv.Unknown -> Alcotest.fail "c17 = c17");
  let c3 = Circuit.copy c in
  let order = Circuit.topo_order c3 in
  Circuit.set_kind c3 order.(Array.length order - 1) Gate.And;
  match Equiv.check ~seed:1L c c3 with
  | Equiv.Counterexample v ->
    check bool_ "cex differs" true (Eval.run c v <> Eval.run c3 v)
  | Equiv.Equivalent | Equiv.Unknown -> Alcotest.fail "must find counterexample"

let test_equiv_beyond_simulation () =
  (* Two structurally different implementations of the same function, where
     random simulation alone cannot conclude equivalence. *)
  let majority () =
    let c = Circuit.create () in
    let a = Circuit.add_input c in
    let b = Circuit.add_input c in
    let d = Circuit.add_input c in
    let ab = Circuit.add_gate c Gate.And [| a; b |] in
    let ad = Circuit.add_gate c Gate.And [| a; d |] in
    let bd = Circuit.add_gate c Gate.And [| b; d |] in
    let out = Circuit.add_gate c Gate.Or [| ab; ad; bd |] in
    Circuit.mark_output c out;
    c
  in
  let majority2 () =
    let c = Circuit.create () in
    let a = Circuit.add_input c in
    let b = Circuit.add_input c in
    let d = Circuit.add_input c in
    let ab_or = Circuit.add_gate c Gate.Or [| a; b |] in
    let ab_and = Circuit.add_gate c Gate.And [| a; b |] in
    let sel = Circuit.add_gate c Gate.And [| ab_or; d |] in
    let out = Circuit.add_gate c Gate.Or [| ab_and; sel |] in
    Circuit.mark_output c out;
    c
  in
  match Equiv.check ~sim_patterns:0 ~seed:2L (majority ()) (majority2 ()) with
  | Equiv.Equivalent -> ()
  | Equiv.Counterexample _ | Equiv.Unknown ->
    Alcotest.fail "majority implementations are equivalent"

let suite =
  [
    ("PODEM covers c17", `Quick, test_podem_finds_tests_c17);
    ("PODEM proves untestability", `Quick, test_podem_untestable);
    ("PODEM agrees with exhaustive simulation", `Quick, test_podem_agrees_with_exhaustive);
    ("redundancy removal", `Quick, test_redundancy_removal);
    ("redundancy removal preserves function", `Quick, test_redundancy_preserves_random);
    ( "redundancy removal stops when a pass removes nothing",
      `Quick,
      test_redundancy_terminates_on_failed_reproofs );
    ("miter equivalence", `Quick, test_equiv);
    ("miter equivalence via PODEM only", `Quick, test_equiv_beyond_simulation);
  ]
