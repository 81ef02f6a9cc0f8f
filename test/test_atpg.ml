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

(* Removal must end in the exact end state: once it stops, a classification
   with the same limits, seed, prefilter and test store finds nothing left
   to remove and leaves exactly [report.aborted] faults undecided; one
   without the store still finds nothing to remove (it may leave more
   faults undecided, the ones the store's vectors detect); and the function
   is unchanged (proved by SAT: with 13 inputs, exhaustive simulation would
   be the slowest part of the check). Starved budgets (no PODEM
   backtracks, a handful of SAT conflicts) stress the re-proofs, which must
   reach the verdict that classified the fault; a re-proof that decided a
   different formula used to give up on proved redundancies and stop early.
   They also leave SAT-undecided faults that a vector found later in the
   same classification detects, which [find_untestable] must drop for the
   equality to hold. *)
let stall_profile seed =
  {
    Circuit_gen.name = "stall";
    n_pi = 13;
    n_po = 7;
    n_gates = 100;
    depth = 9;
    combine_pct = 30;
    xor_pct = 4;
    seed = Int64.of_int seed;
  }

let starved sat_conflicts =
  { Limits.default with Limits.podem_backtracks = 0; sat_conflicts }

let print_case (seed, conflicts) = Printf.sprintf "seed %d, sat_conflicts %d" seed conflicts

let removal_end_state (seed, sat_conflicts) =
  let c = Circuit_gen.generate (stall_profile seed) in
  let reference = Circuit.copy c in
  let limits = starved sat_conflicts in
  let seed = Int64.of_int seed in
  let tests = Redundancy.tests c in
  let report = Redundancy.remove ~limits ~prefilter_patterns:256 ~tests ~seed c in
  let left = Redundancy.find_untestable ~limits ~prefilter_patterns:256 ~tests ~seed c in
  let bare = Redundancy.find_untestable ~limits ~prefilter_patterns:256 ~seed c in
  left.Redundancy.untestable = []
  && left.Redundancy.sat_redundant = []
  && List.length left.Redundancy.unresolved = report.Redundancy.aborted
  && bare.Redundancy.untestable = []
  && bare.Redundancy.sat_redundant = []
  && List.length bare.Redundancy.unresolved >= report.Redundancy.aborted
  && Cec.check reference c = Cec.Equivalent

let qcheck_removal_end_state =
  QCheck.Test.make ~count:40 ~name:"redundancy removal stops when a pass removes nothing"
    (QCheck.make ~print:print_case QCheck.Gen.(pair (int_range 1 40) (oneofl [ 0; 1; 2; 5 ])))
    removal_end_state

(* [sub] keeps some of [l]'s elements, in [l]'s order. *)
let rec is_sublist sub l =
  match (sub, l) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: sub', y :: l' -> if x = y then is_sublist sub' l' else is_sublist sub l'

(* A copy with the same inputs and one and/or gate's kind flipped, like the
   circuit of a rolled-back RAR trial. *)
let mutated c seed =
  let m = Circuit.copy c in
  let gates =
    List.filter
      (fun id ->
        match Circuit.kind m id with
        | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> true
        | _ -> false)
      (Array.to_list (Circuit.topo_order m))
  in
  (match gates with
  | [] -> ()
  | _ ->
    let g = List.nth gates (seed mod List.length gates) in
    Circuit.set_kind m g
      (match Circuit.kind m g with
      | Gate.And -> Gate.Or
      | Gate.Or -> Gate.And
      | Gate.Nand -> Gate.Nor
      | _ -> Gate.Nand));
  m

(* A carried vector only settles faults it detects on the current circuit:
   with a store holding stale vectors (from a mutated copy) and the
   circuit's own earlier classification (another prefilter seed),
   [find_untestable] returns the same untestable and SAT-redundant lists as
   without it, and an unresolved list that drops only faults exhaustive
   simulation detects; [remove] with such a store makes the same removals
   and writes the same netlist. Which faults stay undecided depends on
   which vectors a run found, so two stores' [aborted] counts are not
   ordered; each is at most what the last pass leaves without a store. *)
let carried_tests_hold (seed, sat_conflicts) =
  let c = Circuit_gen.generate (stall_profile seed) in
  let limits = starved sat_conflicts in
  let classify ?tests ~seed c =
    Redundancy.find_untestable ~limits ~prefilter_patterns:256 ?tests
      ~seed:(Int64.of_int seed) c
  in
  let stale () =
    let tests = Redundancy.tests c in
    ignore (classify ~tests ~seed:(seed + 1) (mutated c seed));
    ignore (classify ~tests ~seed:(seed + 2) c);
    tests
  in
  let plain = classify ~seed c in
  let carried = classify ~tests:(stale ()) ~seed c in
  let dropped =
    List.filter
      (fun u -> not (List.mem u carried.Redundancy.unresolved))
      plain.Redundancy.unresolved
  in
  let remove ?tests () =
    let w = Circuit.copy c in
    let r =
      Redundancy.remove ~limits ~prefilter_patterns:256 ?tests ~seed:(Int64.of_int seed) w
    in
    (w, r)
  in
  let w, r = remove () in
  let w', r' = remove ~tests:(stale ()) () in
  (* Without carried vectors the last pass would leave this many. *)
  let bare = List.length (classify ~seed w).Redundancy.unresolved in
  carried.Redundancy.untestable = plain.Redundancy.untestable
  && carried.Redundancy.sat_redundant = plain.Redundancy.sat_redundant
  && is_sublist carried.Redundancy.unresolved plain.Redundancy.unresolved
  && List.for_all (fun (f, _) -> detectable_exhaustive c f) dropped
  && Bench_format.to_string w' = Bench_format.to_string w
  && r'.Redundancy.removed = r.Redundancy.removed
  && r'.Redundancy.proved_redundant_sat = r.Redundancy.proved_redundant_sat
  && r'.Redundancy.passes = r.Redundancy.passes
  && r.Redundancy.aborted <= bare
  && r'.Redundancy.aborted <= bare

let qcheck_carried_tests =
  QCheck.Test.make ~count:40 ~name:"carried tests change no removal decision"
    (QCheck.make ~print:print_case QCheck.Gen.(pair (int_range 1 400) (oneofl [ 0; 1; 2; 5; 20 ])))
    carried_tests_hold

(* A store holds vectors for one input count: handing it a circuit with
   another raises, from both entry points. *)
let test_tests_input_count () =
  let store = Redundancy.tests (random_circuit ~n_pi:5 7) in
  let other = random_circuit ~n_pi:6 7 in
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check bool_ "find_untestable raises" true
    (raises (fun () -> ignore (Redundancy.find_untestable ~tests:store ~seed:1L other)));
  check bool_ "remove raises" true
    (raises (fun () -> ignore (Redundancy.remove ~tests:store ~seed:1L other)))

let test_equiv () =
  let c = c17 () in
  let c2 = Bench_format.of_string (Bench_format.to_string c) in
  (match Cec.check c c2 with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ | Cec.Unknown _ -> Alcotest.fail "c17 = c17");
  let c3 = Circuit.copy c in
  let order = Circuit.topo_order c3 in
  Circuit.set_kind c3 order.(Array.length order - 1) Gate.And;
  match Cec.check c c3 with
  | Cec.Counterexample v ->
    check bool_ "cex differs" true (Eval.run c v <> Eval.run c3 v)
  | Cec.Equivalent | Cec.Unknown _ -> Alcotest.fail "must find counterexample"

let test_equiv_beyond_simulation () =
  (* Two structurally different implementations of the same function, with
     unnamed inputs: the miter matches them by position. *)
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
  match Cec.check (majority ()) (majority2 ()) with
  | Cec.Equivalent -> ()
  | Cec.Counterexample _ | Cec.Unknown _ ->
    Alcotest.fail "majority implementations are equivalent"

let suite =
  [
    ("PODEM covers c17", `Quick, test_podem_finds_tests_c17);
    ("PODEM proves untestability", `Quick, test_podem_untestable);
    ("PODEM agrees with exhaustive simulation", `Quick, test_podem_agrees_with_exhaustive);
    ("redundancy removal", `Quick, test_redundancy_removal);
    ("redundancy removal preserves function", `Quick, test_redundancy_preserves_random);
    QCheck_alcotest.to_alcotest qcheck_removal_end_state;
    ("miter equivalence", `Quick, test_equiv);
    ("miter equivalence via PODEM only", `Quick, test_equiv_beyond_simulation);
    QCheck_alcotest.to_alcotest qcheck_carried_tests;
    ("a test store rejects another input count", `Quick, test_tests_input_count);
  ]
