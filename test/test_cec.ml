(* SAT-based equivalence checking: solver, encoder and miter tests.

   The CEC result is cross-validated against the simulation oracle in both
   directions: counterexamples are replayed through Eval.run (also done
   internally by Cec.check), and Equivalent verdicts are compared with
   Eval.equivalent_exhaustive on small circuits. *)

open Helpers

(* --- tiny SAT instances --------------------------------------------------- *)

let test_sat_basics () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [| Sat.lit a; Sat.lit b |];
  Sat.add_clause s [| Sat.neg (Sat.lit a) |];
  (match Sat.solve s with
  | Sat.Sat ->
    check bool_ "a false" false (Sat.value s a);
    check bool_ "b true" true (Sat.value s b)
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "expected SAT");
  let s = Sat.create () in
  let a = Sat.new_var s in
  Sat.add_clause s [| Sat.lit a |];
  Sat.add_clause s [| Sat.neg (Sat.lit a) |];
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat | Sat.Unknown -> Alcotest.fail "expected UNSAT")

(* Pigeonhole PHP(n+1, n): n+1 pigeons into n holes, classic UNSAT family
   that actually exercises conflict analysis and restarts. Built on a fresh
   solver unless [s] is given. *)
let php ?(s = Sat.create ()) pigeons holes =
  let v = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Sat.new_var s)) in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (Array.init holes (fun h -> Sat.lit v.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [| Sat.neg (Sat.lit v.(p1).(h)); Sat.neg (Sat.lit v.(p2).(h)) |]
      done
    done
  done;
  s

let test_sat_pigeonhole () =
  (match Sat.solve (php 5 4) with
  | Sat.Unsat -> ()
  | Sat.Sat | Sat.Unknown -> Alcotest.fail "PHP(5,4) must be UNSAT");
  (match Sat.solve (php 4 4) with
  | Sat.Sat -> ()
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "PHP(4,4) must be SAT");
  (* The conflict budget turns a hard instance into Unknown, not a hang. *)
  match
    Sat.solve
      ~options:{ Sat.Options.default with Sat.Options.budget = Some 5 }
      (php 7 6)
  with
  | Sat.Unknown -> ()
  | Sat.Sat -> Alcotest.fail "PHP(7,6) must not be SAT"
  | Sat.Unsat -> () (* a tiny budget may still suffice; fine either way *)

(* [add_clause] sorts and merges duplicates, drops a clause with a
   complementary pair or a literal already true, leaves out literals already
   false, asserts what is left of a one-literal clause at level 0 and stores
   the rest; the caller's array is never changed. *)
let test_add_clause_normalises () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s and c = Sat.new_var s in
  let la = Sat.lit a and lb = Sat.lit b and lc = Sat.lit c in
  let clause = [| lc; lb; lc |] in
  Sat.add_clause s clause;
  check bool_ "caller's array unchanged" true (clause = [| lc; lb; lc |]);
  check int_ "duplicates merged, clause stored" 1 (Sat.num_clauses s);
  Sat.add_clause s [| la; lb; Sat.neg la |];
  check int_ "complementary pair dropped" 1 (Sat.num_clauses s);
  Sat.add_clause s [| la; la |];
  check int_ "a unit after merging is asserted, not stored" 1 (Sat.num_clauses s);
  Sat.add_clause s [| la; lc |];
  check int_ "a literal true at level 0 drops the clause" 1 (Sat.num_clauses s);
  Sat.add_clause s [| Sat.neg la; lb; lc |];
  check int_ "a literal false at level 0 is left out" 2 (Sat.num_clauses s);
  Sat.add_clause s [| Sat.neg la; Sat.neg lb |];
  check int_ "all but one literal false: asserted, not stored" 2 (Sat.num_clauses s);
  (match Sat.solve s with
  | Sat.Sat ->
    check bool_ "unit a holds" true (Sat.value s a);
    check bool_ "derived unit ~b holds" false (Sat.value s b);
    check bool_ "c follows from the stored clauses" true (Sat.value s c)
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "expected SAT");
  check int_ "the level-0 units decided the instance" 0 (Sat.decisions s);
  Sat.add_clause s [| Sat.neg la; Sat.neg lc |];
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat | Sat.Unknown -> Alcotest.fail "all literals false must be UNSAT");
  let s = Sat.create () in
  ignore (Sat.new_var s);
  Sat.add_clause s [||];
  check int_ "the empty clause is not stored" 0 (Sat.num_clauses s);
  match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat | Sat.Unknown -> Alcotest.fail "the empty clause must be UNSAT"

let search_stats s outcome =
  (outcome, Sat.decisions s, Sat.conflicts s, Sat.propagations s, Sat.num_vars s,
   Sat.num_clauses s, Sat.num_learnt s)

(* A cleared solver that searched a bigger instance (and hit its budget)
   searches the next instance exactly like a fresh one. *)
let test_clear_equals_fresh () =
  let fresh = php 6 5 in
  let want = search_stats fresh (Sat.solve fresh) in
  let reused = php 8 7 in
  (match Sat.solve ~options:{ Sat.Options.default with Sat.Options.budget = Some 50 } reused with
  | Sat.Unknown -> ()
  | Sat.Sat | Sat.Unsat -> Alcotest.fail "PHP(8,7) should exhaust 50 conflicts");
  Sat.clear reused;
  check int_ "clear empties the solver" 0 (Sat.num_vars reused);
  ignore (php ~s:reused 6 5);
  let got = search_stats reused (Sat.solve reused) in
  check bool_ "same outcome, decisions, conflicts, propagations and sizes" true (got = want)

(* --- equivalence of structurally different implementations ----------------- *)

let test_demorgan_equivalent () =
  let build_and () =
    let c = Circuit.create ~name:"and" () in
    let a = Circuit.add_input ~name:"a" c in
    let b = Circuit.add_input ~name:"b" c in
    let g = Circuit.add_gate c Gate.And [| a; b |] in
    Circuit.mark_output ~name:"y" c g;
    c
  in
  let build_nor () =
    let c = Circuit.create ~name:"nor-form" () in
    let a = Circuit.add_input ~name:"a" c in
    let b = Circuit.add_input ~name:"b" c in
    let na = Circuit.add_gate c Gate.Not [| a |] in
    let nb = Circuit.add_gate c Gate.Not [| b |] in
    let g = Circuit.add_gate c Gate.Nor [| na; nb |] in
    Circuit.mark_output ~name:"y" c g;
    c
  in
  match Cec.check (build_and ()) (build_nor ()) with
  | Cec.Equivalent -> ()
  | v -> Alcotest.failf "expected equivalent, got %a" Cec.pp_verdict v

let test_constant_equivalent () =
  (* x AND NOT x == CONST0, via a nontrivial encoding path. *)
  let lhs =
    let c = Circuit.create () in
    let x = Circuit.add_input ~name:"x" c in
    let nx = Circuit.add_gate c Gate.Not [| x |] in
    let g = Circuit.add_gate c Gate.And [| x; nx |] in
    Circuit.mark_output ~name:"y" c g;
    c
  in
  let rhs =
    let c = Circuit.create () in
    let _ = Circuit.add_input ~name:"x" c in
    let z = Circuit.add_const c false in
    Circuit.mark_output ~name:"y" c z;
    c
  in
  match Cec.check lhs rhs with
  | Cec.Equivalent -> ()
  | v -> Alcotest.failf "expected equivalent, got %a" Cec.pp_verdict v

let test_name_matching () =
  (* Same function, inputs declared in a different order: name matching must
     line them up. f = a AND (b OR c). *)
  let build order =
    let c = Circuit.create () in
    let ids = Hashtbl.create 3 in
    List.iter (fun n -> Hashtbl.add ids n (Circuit.add_input ~name:n c)) order;
    let g1 =
      Circuit.add_gate c Gate.Or [| Hashtbl.find ids "b"; Hashtbl.find ids "c" |]
    in
    let g2 = Circuit.add_gate c Gate.And [| Hashtbl.find ids "a"; g1 |] in
    Circuit.mark_output ~name:"y" c g2;
    c
  in
  (match Cec.check (build [ "a"; "b"; "c" ]) (build [ "c"; "a"; "b" ]) with
  | Cec.Equivalent -> ()
  | v -> Alcotest.failf "expected equivalent, got %a" Cec.pp_verdict v);
  (* Positionally they differ — drop the names to verify the detector sees
     a real difference. *)
  let anon order =
    let c = build order in
    let c' = Circuit.create () in
    let ids = Hashtbl.create 3 in
    Array.iter
      (fun id ->
        Hashtbl.add ids (Option.get (Circuit.node_name c id)) (Circuit.add_input c'))
      (Circuit.inputs c);
    let g1 = Circuit.add_gate c' Gate.Or [| Hashtbl.find ids "b"; Hashtbl.find ids "c" |] in
    let g2 = Circuit.add_gate c' Gate.And [| Hashtbl.find ids "a"; g1 |] in
    Circuit.mark_output c' g2;
    c'
  in
  match Cec.check (anon [ "a"; "b"; "c" ]) (anon [ "c"; "a"; "b" ]) with
  | Cec.Counterexample _ -> ()
  | v -> Alcotest.failf "expected counterexample, got %a" Cec.pp_verdict v

let test_interface_mismatch () =
  let one_input =
    let c = Circuit.create () in
    let x = Circuit.add_input ~name:"x" c in
    Circuit.mark_output ~name:"y" c x;
    c
  in
  Alcotest.check_raises "input counts"
    (Cec.Interface_mismatch "input counts differ: 5 vs 1") (fun () ->
      ignore (Cec.check (c17 ()) one_input))

(* --- hand-mutated miters must be SAT, with a replayable counterexample ----- *)

(* Apply [mutate] to a copy of [c]; if the mutation really changed the
   function (checked with the exhaustive oracle), Cec.check must produce a
   counterexample whose replay through Eval.run distinguishes the pair. *)
let expect_cex name c mutate =
  let m = Circuit.copy c in
  mutate m;
  let really_different = not (Eval.equivalent_exhaustive c m) in
  check bool_ (name ^ ": mutation changed the function") true really_different;
  match Cec.check c m with
  | Cec.Counterexample cex ->
    let oa = Eval.run c cex and ob = Eval.run m cex in
    check bool_ (name ^ ": replay distinguishes") true (oa <> ob)
  | v -> Alcotest.failf "%s: expected counterexample, got %a" name Cec.pp_verdict v

let mutated_gate_kind c =
  (* Flip the last NAND to AND. *)
  let last = ref (-1) in
  Circuit.iter_live c (fun id -> if Circuit.kind c id = Gate.Nand then last := id);
  Circuit.set_kind c !last Gate.And

let mutated_fanin c =
  (* Rewire one fanin of the last gate to primary input 0. *)
  let last = ref (-1) in
  Circuit.iter_live c (fun id -> if Circuit.kind c id = Gate.Nand then last := id);
  let fins = Array.copy (Circuit.fanins c !last) in
  fins.(0) <- (Circuit.inputs c).(0);
  Circuit.set_fanins c !last fins

let test_mutations () =
  expect_cex "kind flip" (c17 ()) mutated_gate_kind;
  expect_cex "fanin rewire" (c17 ()) mutated_fanin;
  expect_cex "mixed: xor to xnor" (mixed ()) (fun m ->
      Circuit.iter_live m (fun id ->
          if Circuit.kind m id = Gate.Xor then Circuit.set_kind m id Gate.Xnor))

(* --- pool path ------------------------------------------------------------- *)

(* Procedure 2 rewrites many output cones of irs1423, so many pairs
   survive the structural filter and two domains really share them. *)
let test_pool_verdicts () =
  let c = Benchmarks.build (Benchmarks.find "irs1423") in
  let o = Circuit.copy c in
  ignore (Engine.optimize Engine.Gates Engine.default_options o);
  let serial = Cec.check_stats c o and pooled = Cec.check_stats ~domains:2 c o in
  check bool_ "pool: equivalent" true (fst pooled = Cec.Equivalent);
  check bool_ "pool: several pairs solved" true ((snd pooled).Cec.outputs_checked > 1);
  check bool_ "same verdict and solver counts serial vs pool" true (serial = pooled);
  let m = Circuit.copy o in
  mutated_gate_kind m;
  (* The pool solves every surviving pair, the serial path stops at the
     first counterexample: the statistics must still agree. *)
  let serial = Cec.check_stats c m and pooled = Cec.check_stats ~domains:2 c m in
  match (serial, pooled) with
  | (Cec.Counterexample v1, s1), (Cec.Counterexample v2, s2) ->
    check bool_ "same counterexample serial vs pool" true (v1 = v2);
    check int_ "same outputs solved serial vs pool" s1.Cec.outputs_checked
      s2.Cec.outputs_checked;
    check bool_ "same solver counts serial vs pool" true (s1 = s2)
  | (v, _), _ -> Alcotest.failf "pool: expected counterexample, got %a" Cec.pp_verdict v

(* --- engine integration: unsound rewrites are refused ---------------------- *)

let test_engine_refuses_unsound () =
  (* Corrupt the first accepted replacement via the engine's fault-injection
     hook. The corruption happens after local verification, so only the
     whole-circuit miter, which the hook runs on every splice, can catch
     it; the engine must roll the splice back and still finish with an
     equivalent circuit. *)
  let reference = c17 () in
  let c = Circuit.copy reference in
  let opts = { Engine.default_options with Engine.seed = 7L } in
  let stats = Engine.Test_hooks.optimize_unsound ~nth:1 Engine.Gates opts c in
  check bool_ "at least one miter check ran" true (stats.Engine.verify_checks >= 1);
  check bool_ "the corrupted replacement was refused" true
    (stats.Engine.verify_refused >= 1);
  check bool_ "final circuit equivalent to the original" true
    (Eval.equivalent_exhaustive reference c);
  (* Sanity: the same run without injection refuses nothing. *)
  let c2 = Circuit.copy reference in
  let stats2 = Engine.optimize Engine.Gates opts c2 in
  check int_ "clean run refuses nothing" 0 stats2.Engine.verify_refused;
  check bool_ "clean run still equivalent" true
    (Eval.equivalent_exhaustive reference c2)

(* The production cadence: the first accepted splice of a run and every 8th
   after it are SAT-proved, in both walks. On the committed irs1423 stand-in
   at the defaults that is 28 replacements and 4 proofs (the README's
   [sft optimize] transcript); on generated circuits with more than 8
   replacements, one proof per started group of 8. *)
let test_engine_verify_cadence () =
  let opts = Engine.default_options in
  let irs1423 = Bench_format.read_file "../data/benchmarks/irs1423.bench" in
  let generated seed =
    Circuit_gen.generate
      {
        Circuit_gen.name = "cadence";
        n_pi = 12;
        n_po = 8;
        n_gates = 120;
        depth = 8;
        combine_pct = 25;
        xor_pct = 5;
        seed;
      }
  in
  List.iter
    (fun (walk, optimize) ->
      let s = optimize Engine.Gates opts (Circuit.copy irs1423) in
      check int_ (walk ^ ": irs1423 replacements") 28 s.Engine.replacements;
      check int_ (walk ^ ": irs1423 proofs") 4 s.Engine.verify_checks;
      check int_ (walk ^ ": irs1423 refusals") 0 s.Engine.verify_refused;
      List.iter
        (fun seed ->
          let s = optimize Engine.Gates opts (generated seed) in
          let name = Printf.sprintf "%s: seed %Ld" walk seed in
          check bool_ (name ^ " replaces more than 8") true (s.Engine.replacements > 8);
          check int_ (name ^ " proofs") ((s.Engine.replacements + 7) / 8)
            s.Engine.verify_checks;
          check int_ (name ^ " refusals") 0 s.Engine.verify_refused)
        [ 1L; 7L; 9L ])
    [ ("production", Engine.optimize); ("reference", Engine.optimize_reference) ]

(* --- qcheck: agreement with the exhaustive oracle -------------------------- *)

let circuit_of_seed seed =
  let n_pi = 3 + (seed mod 8) in
  (* 3..10 inputs *)
  let n_gates = 6 + (seed * 7 mod 40) in
  random_circuit ~n_pi ~n_gates ~n_po:3 seed

let qcheck_matches_exhaustive =
  QCheck.Test.make ~count:60 ~name:"cec agrees with exhaustive equivalence"
    QCheck.(pair (int_bound 1_000_000) (int_bound 1_000_000))
    (fun (s1, s2) ->
      let c1 = circuit_of_seed s1 in
      let c2 = circuit_of_seed s2 in
      QCheck.assume (Circuit.num_inputs c1 = Circuit.num_inputs c2);
      let expected = Eval.equivalent_exhaustive c1 c2 in
      match Cec.check c1 c2 with
      | Cec.Equivalent -> expected
      | Cec.Counterexample cex ->
        (not expected) && Eval.run c1 cex <> Eval.run c2 cex
      | Cec.Unknown _ -> false)

let qcheck_copy_equivalent =
  QCheck.Test.make ~count:60 ~name:"cec proves function-preserving rewrites"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = circuit_of_seed seed in
      (* A chain of function-preserving transformations: structural cleanup
         then dense renumbering — structurally different, same function. *)
      let m = Circuit.copy c in
      ignore (Cleanup.propagate_constants m);
      ignore (Cleanup.collapse_wires m);
      let m, _ = Circuit.compact m in
      match Cec.check c m with
      | Cec.Equivalent -> true
      | Cec.Counterexample _ | Cec.Unknown _ -> false)

let suite =
  [
    Alcotest.test_case "sat basics" `Quick test_sat_basics;
    Alcotest.test_case "sat pigeonhole + budget" `Quick test_sat_pigeonhole;
    Alcotest.test_case "sat add_clause normalisation" `Quick test_add_clause_normalises;
    Alcotest.test_case "sat clear restores a fresh search" `Quick test_clear_equals_fresh;
    Alcotest.test_case "De Morgan forms equivalent" `Quick test_demorgan_equivalent;
    Alcotest.test_case "constant equivalence" `Quick test_constant_equivalent;
    Alcotest.test_case "input matching by name" `Quick test_name_matching;
    Alcotest.test_case "interface mismatch" `Quick test_interface_mismatch;
    Alcotest.test_case "mutations yield counterexamples" `Quick test_mutations;
    Alcotest.test_case "pool path matches serial" `Quick test_pool_verdicts;
    Alcotest.test_case "engine refuses unsound rewrites" `Quick
      test_engine_refuses_unsound;
    Alcotest.test_case "engine proves every 8th splice" `Quick test_engine_verify_cadence;
  ]

let qchecks = [ qcheck_matches_exhaustive; qcheck_copy_equivalent ]
