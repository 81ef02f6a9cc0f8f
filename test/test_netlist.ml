open Helpers

(* --- Gate ---------------------------------------------------------------- *)

let test_gate_eval () =
  check bool_ "and" true (Gate.eval Gate.And [| true; true; true |]);
  check bool_ "and0" false (Gate.eval Gate.And [| true; false |]);
  check bool_ "nand" true (Gate.eval Gate.Nand [| true; false |]);
  check bool_ "or" true (Gate.eval Gate.Or [| false; true |]);
  check bool_ "nor" true (Gate.eval Gate.Nor [| false; false |]);
  check bool_ "xor odd" true (Gate.eval Gate.Xor [| true; true; true |]);
  check bool_ "xnor" true (Gate.eval Gate.Xnor [| true; true |]);
  check bool_ "not" false (Gate.eval Gate.Not [| true |]);
  check bool_ "buf" true (Gate.eval Gate.Buf [| true |]);
  check bool_ "const1" true (Gate.eval Gate.Const1 [||])

let test_gate_word_matches_bool () =
  let kinds = [ Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor ] in
  List.iter
    (fun k ->
      for m = 0 to 7 do
        let bools = Array.init 3 (fun i -> m land (1 lsl i) <> 0) in
        let words = Array.map (fun b -> if b then 1L else 0L) bools in
        let expect = Gate.eval k bools in
        let got = Int64.logand (Gate.eval_word k words) 1L = 1L in
        check bool_ (Gate.to_string k) expect got
      done)
    kinds

let test_gate_misc () =
  check int_ "2eq of 4-AND" 3 (Gate.two_input_equivalents Gate.And 4);
  check int_ "2eq of NOT" 0 (Gate.two_input_equivalents Gate.Not 1);
  check bool_ "of_string" true (Gate.of_string "buff" = Some Gate.Buf);
  check bool_ "of_string inv" true (Gate.of_string "INV" = Some Gate.Not);
  check bool_ "of_string bad" true (Gate.of_string "FOO" = None);
  check bool_ "controlling and" true (Gate.controlling Gate.And = Some false);
  check bool_ "controlling xor" true (Gate.controlling Gate.Xor = None)

(* --- Circuit -------------------------------------------------------------- *)

let test_circuit_basics () =
  let c = c17 () in
  check int_ "pis" 5 (Circuit.num_inputs c);
  check int_ "pos" 2 (Circuit.num_outputs c);
  check int_ "gates" 6 (Circuit.num_gates c);
  check int_ "2-input" 6 (Circuit.two_input_gate_count c);
  Check.validate c

let test_topo_order () =
  let c = mixed () in
  let order = Circuit.topo_order c in
  let pos = Array.make (Circuit.size c) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  Circuit.iter_live c (fun id ->
      Array.iter
        (fun f -> check bool_ "fanin before fanout" true (pos.(f) < pos.(id)))
        (Circuit.fanins c id))

let test_fanouts () =
  let c = mixed () in
  let inputs = Circuit.inputs c in
  let b = inputs.(1) in
  check int_ "b read once" 1 (Circuit.fanout_degree c b);
  (* nb feeds x1 and x2 *)
  let nb = List.hd (Circuit.fanouts c b) in
  check int_ "nb fans out twice" 2 (Circuit.fanout_degree c nb)

let test_retarget_and_delete () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let g1 = Circuit.add_gate c Gate.And [| a; b |] in
  let g2 = Circuit.add_gate c Gate.Or [| g1; a |] in
  Circuit.mark_output c g2;
  let g3 = Circuit.add_gate c Gate.Nand [| a; b |] in
  Circuit.retarget c ~from_:g1 ~to_:g3;
  check bool_ "g1 unused" true (Circuit.fanouts c g1 = []);
  Circuit.delete c g1;
  check bool_ "g1 dead" false (Circuit.is_alive c g1);
  check int_ "sweep removes nothing else" 0 (Circuit.sweep c);
  Check.validate c

let test_delete_guard () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let g = Circuit.add_gate c Gate.Not [| a |] in
  Circuit.mark_output c g;
  (match Circuit.delete c g with
  | () -> Alcotest.fail "deleting a PO should fail"
  | exception Invalid_argument _ -> ());
  match Circuit.delete c a with
  | () -> Alcotest.fail "deleting a read node should fail"
  | exception Invalid_argument _ -> ()

let test_compact () =
  let c = mixed () in
  (* kill one output's cone by retargeting o2 to a fresh const *)
  let k = Circuit.add_const c true in
  let out2 = (Circuit.outputs c).(1) in
  Circuit.retarget c ~from_:out2 ~to_:k;
  ignore (Circuit.sweep c);
  let fresh, remap = Circuit.compact c in
  Check.validate fresh;
  check int_ "same inputs" (Circuit.num_inputs c) (Circuit.num_inputs fresh);
  check int_ "same outputs" (Circuit.num_outputs c) (Circuit.num_outputs fresh);
  Circuit.iter_live c (fun id -> check bool_ "remapped" true (remap.(id) >= 0))

let test_replace_node () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let g = Circuit.add_gate c Gate.And [| a; b |] in
  Circuit.mark_output c g;
  Circuit.replace_node c g Gate.Const1 [||];
  check bool_ "kind" true (Circuit.kind c g = Gate.Const1);
  check int_ "no fanins" 0 (Circuit.fanin_count c g)

(* --- Bench format ---------------------------------------------------------- *)

let test_bench_roundtrip () =
  let c = c17 () in
  let text = Bench_format.to_string c in
  let c2 = Bench_format.of_string text in
  check bool_ "roundtrip equivalent" true (Eval.equivalent_exhaustive c c2);
  check int_ "same gate count" (Circuit.num_gates c) (Circuit.num_gates c2)

let test_bench_out_of_order () =
  let text =
    "OUTPUT(z)\nINPUT(a)\nINPUT(b)\nz = AND(t, b)\nt = NOT(a)\n"
  in
  let c = Bench_format.of_string text in
  check int_ "gates" 2 (Circuit.num_gates c);
  Check.validate c

let test_bench_errors () =
  let expect_error text =
    match Bench_format.of_string text with
    | _ -> Alcotest.fail "expected parse error"
    | exception Bench_format.Parse_error _ -> ()
  in
  expect_error "INPUT(a)\nz = FROB(a)\nOUTPUT(z)\n";
  expect_error "INPUT(a)\nOUTPUT(z)\n";
  (* undefined z *)
  expect_error "INPUT(a)\nz = AND(a, w)\nw = NOT(z)\nOUTPUT(z)\n";
  (* cycle *)
  expect_error "INPUT(a)\nINPUT(a)\nOUTPUT(a)\n"

(* --- Paths (Procedure 1) --------------------------------------------------- *)

let test_paths_c17 () =
  (* Count against explicit enumeration. *)
  let c = c17 () in
  let total = Paths.total c in
  let listed = List.length (Paths.enumerate c) in
  check int_ "total = enumerate" listed total;
  check int_ "c17 paths" 11 total

let test_paths_example_from_paper () =
  (* The paper's Sec. 2 example: two equivalent two-level implementations of
     f_1 embedded behind subcircuits with N_p labels 10/100/20/20. Fewer
     literal occurrences on the high-label input means fewer total paths
     (the paper's printed total has an arithmetic slip; we assert the exact
     sums its own formula gives: 400 vs 390). *)
  let build terms =
    let c = Circuit.create () in
    let mk_label n =
      (* a node with exactly n paths from the inputs *)
      let ins = Array.init n (fun _ -> Circuit.add_input c) in
      if n = 1 then ins.(0) else Circuit.add_gate c Gate.Or ins
    in
    let x1 = mk_label 10
    and x2 = mk_label 100
    and x3 = mk_label 20
    and x4 = mk_label 20 in
    let n1 = Circuit.add_gate c Gate.Not [| x1 |] in
    let n2 = Circuit.add_gate c Gate.Not [| x2 |] in
    let n3 = Circuit.add_gate c Gate.Not [| x3 |] in
    let lit = function
      | 1 -> x1 | -1 -> n1 | 2 -> x2 | -2 -> n2
      | 3 -> x3 | -3 -> n3 | 4 -> x4
      | _ -> assert false
    in
    let ands =
      List.map
        (fun t -> Circuit.add_gate c Gate.And (Array.of_list (List.map lit t)))
        terms
    in
    let f = Circuit.add_gate c Gate.Or (Array.of_list ands) in
    Circuit.mark_output c f;
    Paths.total c
  in
  (* f_{1,1} = x1'x2x4 + x1x2'x3' + x2x3'x4 *)
  let p11 = build [ [ -1; 2; 4 ]; [ 1; -2; -3 ]; [ 2; -3; 4 ] ] in
  (* f_{1,2} = x1'x2x4 + x1x2'x3' + x1x2'x4 *)
  let p12 = build [ [ -1; 2; 4 ]; [ 1; -2; -3 ]; [ 1; -2; 4 ] ] in
  check int_ "f11 paths" 400 p11;
  check int_ "f12 paths" 390 p12;
  check bool_ "f12 has fewer paths" true (p12 < p11)

let test_paths_random_against_enumeration () =
  for seed = 1 to 10 do
    let c = random_circuit ~n_pi:4 ~n_gates:12 seed in
    let total = Paths.total c in
    let listed = List.length (Paths.enumerate c) in
    check int_ (Printf.sprintf "seed %d" seed) listed total
  done

(* --- Levelize --------------------------------------------------------------- *)

let test_levels () =
  let c = c17 () in
  check int_ "c17 depth" 3 (Levelize.depth c);
  check int_ "c17 logic depth" 3 (Levelize.depth_logic c);
  let path = Levelize.longest_path c in
  check int_ "longest path length" 4 (Array.length path)

let test_logic_levels_skip_inverters () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let n1 = Circuit.add_gate c Gate.Not [| a |] in
  let n2 = Circuit.add_gate c Gate.Not [| n1 |] in
  let b = Circuit.add_input c in
  let g = Circuit.add_gate c Gate.And [| n2; b |] in
  Circuit.mark_output c g;
  check int_ "depth counts inverters" 3 (Levelize.depth c);
  check int_ "logic depth skips inverters" 1 (Levelize.depth_logic c)

(* --- Cleanup ----------------------------------------------------------------- *)

let test_constant_folding () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let one = Circuit.add_const c true in
  let zero = Circuit.add_const c false in
  let g1 = Circuit.add_gate c Gate.And [| a; one |] in
  let g2 = Circuit.add_gate c Gate.Or [| g1; zero |] in
  let g3 = Circuit.add_gate c Gate.Nand [| g2; zero |] in
  Circuit.mark_output c g3;
  Cleanup.simplify c;
  Check.validate c;
  (* NAND with a 0 input is constant 1 *)
  let out = (Circuit.outputs c).(0) in
  check bool_ "folds to const1" true (Circuit.kind c out = Gate.Const1)

let test_xor_cancellation () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let g = Circuit.add_gate c Gate.Xor [| a; a; b |] in
  Circuit.mark_output c g;
  let reference = Circuit.copy c in
  Cleanup.simplify c;
  Check.validate c;
  check bool_ "xor(a,a,b) = b" true (Eval.equivalent_exhaustive reference c)

let test_simplify_preserves_function () =
  for seed = 20 to 40 do
    let c = random_circuit ~n_pi:5 ~n_gates:25 seed in
    let reference = Circuit.copy c in
    Cleanup.simplify c;
    Check.validate c;
    check bool_
      (Printf.sprintf "seed %d preserves function" seed)
      true
      (Eval.equivalent_exhaustive reference c)
  done

let suite =
  [
    ("gate eval", `Quick, test_gate_eval);
    ("gate word eval matches bool eval", `Quick, test_gate_word_matches_bool);
    ("gate misc", `Quick, test_gate_misc);
    ("circuit basics", `Quick, test_circuit_basics);
    ("topological order", `Quick, test_topo_order);
    ("fanout index", `Quick, test_fanouts);
    ("retarget and delete", `Quick, test_retarget_and_delete);
    ("delete guards", `Quick, test_delete_guard);
    ("compact", `Quick, test_compact);
    ("replace_node", `Quick, test_replace_node);
    ("bench roundtrip", `Quick, test_bench_roundtrip);
    ("bench out-of-order definitions", `Quick, test_bench_out_of_order);
    ("bench parse errors", `Quick, test_bench_errors);
    ("paths: c17", `Quick, test_paths_c17);
    ("paths: paper Sec.2 example (310)", `Quick, test_paths_example_from_paper);
    ("paths: random circuits vs enumeration", `Quick, test_paths_random_against_enumeration);
    ("levels: c17", `Quick, test_levels);
    ("levels: inverters are transparent", `Quick, test_logic_levels_skip_inverters);
    ("cleanup: constant folding", `Quick, test_constant_folding);
    ("cleanup: xor cancellation", `Quick, test_xor_cancellation);
    ("cleanup: random circuits preserve function", `Quick, test_simplify_preserves_function);
  ]

(* --- is_output against the output list -------------------------------------- *)

(* Random mutation sequences over a small circuit whose fanins always have
   smaller ids than their readers (so [retarget] onto a smaller id never
   closes a cycle). After every step [is_output] must agree with the
   output list on every id, dead and out-of-range ones included, on the
   circuit and on a copy taken before the next step. *)
let qcheck_is_output_tracks_outputs =
  let step_gen = QCheck.Gen.(triple (int_bound 6) (int_bound 1_000) (int_bound 1_000)) in
  let print steps =
    String.concat "; " (List.map (fun (op, a, b) -> Printf.sprintf "%d %d %d" op a b) steps)
  in
  QCheck.Test.make ~count:100 ~name:"is_output agrees with outputs under mutation"
    (QCheck.make ~print QCheck.Gen.(list_size (int_range 1 60) step_gen))
    (fun steps ->
      let c = ref (Circuit.create ()) in
      for _ = 1 to 4 do ignore (Circuit.add_input !c) done;
      let snapshot = ref (Circuit.copy !c) in
      let live () =
        let acc = ref [] in
        Circuit.iter_live !c (fun id -> acc := id :: !acc);
        Array.of_list (List.rev !acc)
      in
      let pick a = let l = live () in l.(a mod Array.length l) in
      let agrees c =
        let outs = Circuit.outputs c in
        let ok = ref true in
        for id = -2 to Circuit.size c + 2 do
          if Circuit.is_output c id <> Array.mem id outs then ok := false
        done;
        !ok
      in
      List.for_all
        (fun (op, a, b) ->
          (match op with
          | 0 ->
            let x = pick a and y = pick b in
            if x = y then ignore (Circuit.add_gate !c Gate.Not [| x |])
            else
              ignore
                (Circuit.add_gate !c [| Gate.And; Gate.Or; Gate.Xor |].(a mod 3) [| x; y |])
          | 1 -> Circuit.mark_output !c (pick a)
          | 2 ->
            let x = pick a and y = pick b in
            if x <> y then Circuit.retarget !c ~from_:(max x y) ~to_:(min x y)
          | 3 -> ignore (Circuit.sweep !c)
          | 4 -> Circuit.overwrite !c ~with_:!snapshot
          | 5 -> snapshot := Circuit.copy !c
          | _ -> c := fst (Circuit.compact !c));
          agrees !c && agrees (Circuit.copy !c))
        steps)

let qchecks = [ qcheck_is_output_tracks_outputs ]
