open Helpers

(* --- Subcircuit enumeration ------------------------------------------------ *)

let test_enumerate_c17 () =
  let c = c17 () in
  let outs = Circuit.outputs c in
  let g22 = outs.(0) in
  let subs = Subcircuit.enumerate ~k:5 ~max_candidates:64 c g22 in
  check bool_ "several candidates" true (List.length subs >= 2);
  (* first candidate is the single gate *)
  (match subs with
  | first :: _ ->
    check int_ "single-gate candidate" 1 (List.length first.Subcircuit.gates);
    check int_ "two inputs" 2 (Array.length first.Subcircuit.inputs)
  | [] -> Alcotest.fail "no candidates");
  List.iter
    (fun s ->
      check bool_ "inputs within limit" true (Array.length s.Subcircuit.inputs <= 5);
      check bool_ "root member" true (List.mem g22 s.Subcircuit.gates))
    subs

(* --- Enumeration against the reference ----------------------------------------- *)

let gates_of c =
  List.filter
    (fun g ->
      match Circuit.kind c g with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> false
      | _ -> true)
    (Array.to_list (Circuit.topo_order c))

(* The first gate whose production enumeration differs from the reference
   (same list, same order), with one table per call or [dedup] reused. *)
let enumeration_diverges ?dedup ~k ~max_candidates c =
  List.find_opt
    (fun g ->
      Subcircuit.enumerate ?dedup ~k ~max_candidates c g
      <> Ref_subcircuit.enumerate ~k ~max_candidates c g)
    (gates_of c)

let check_matches_reference ?dedup ~k ~max_candidates c =
  match enumeration_diverges ?dedup ~k ~max_candidates c with
  | None -> ()
  | Some g ->
    Alcotest.failf "root %d (K = %d, max %d) differs from the reference" g k max_candidates

(* A repeated fanin is one cut input, and absorbing the gate that carries
   it must not count it twice. *)
let test_enumerate_repeated_fanin () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let g1 = Circuit.add_gate c Gate.And [| a; a |] in
  let g2 = Circuit.add_gate c Gate.Or [| g1; b; b |] in
  let g3 = Circuit.add_gate c Gate.Xor [| g2; g1 |] in
  Circuit.mark_output c g3;
  (match Subcircuit.enumerate ~k:2 ~max_candidates:8 c g1 with
  | [ s ] -> check (Alcotest.array int_) "AND(a, a) reads one input" [| a |] s.Subcircuit.inputs
  | subs -> Alcotest.failf "AND(a, a): %d candidates" (List.length subs));
  let all = Subcircuit.enumerate ~k:2 ~max_candidates:8 c g3 in
  check bool_ "{g1, g2, g3} reads a and b once each" true
    (List.exists
       (fun s -> s.Subcircuit.gates = [ g1; g2; g3 ] && s.Subcircuit.inputs = [| a; b |])
       all);
  for k = 0 to 4 do
    List.iter (fun max_candidates -> check_matches_reference ~k ~max_candidates c) [ 1; 4; 16 ]
  done

(* Constant fanins are never cut inputs. *)
let test_enumerate_constant_fanins () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let zero = Circuit.add_const c false in
  let one = Circuit.add_const c true in
  let g1 = Circuit.add_gate c Gate.And [| a; one |] in
  let g2 = Circuit.add_gate c Gate.Or [| g1; zero; b |] in
  let g3 = Circuit.add_gate c Gate.Nand [| one; zero |] in
  let g4 = Circuit.add_gate c Gate.Xor [| g2; g3 |] in
  Circuit.mark_output c g4;
  (match Subcircuit.enumerate ~k:0 ~max_candidates:8 c g3 with
  | [ s ] -> check int_ "NAND(1, 0) has an empty cut" 0 (Array.length s.Subcircuit.inputs)
  | subs -> Alcotest.failf "NAND(1, 0): %d candidates" (List.length subs));
  List.iter
    (fun s ->
      Array.iter
        (fun i -> check bool_ "no constant input" true (i <> zero && i <> one))
        s.Subcircuit.inputs)
    (Subcircuit.enumerate ~k:4 ~max_candidates:64 c g4);
  for k = 0 to 4 do
    List.iter (fun max_candidates -> check_matches_reference ~k ~max_candidates c) [ 1; 4; 64 ]
  done

(* A Fibonacci ladder over two inputs (g_i = NAND(g_(i-1), g_(i-2))): nearly
   every gate set has two or three cut inputs, so at K = 1 the top gate's
   enumeration finds few candidates and stops on the push budget. *)
let test_enumerate_push_budget_binds () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let rec ladder p q n =
    if n = 0 then q else ladder q (Circuit.add_gate c Gate.Nand [| p; q |]) (n - 1)
  in
  let top = ladder a b 40 in
  Circuit.mark_output c top;
  List.iter
    (fun max_candidates ->
      let expected, pushes = Ref_subcircuit.enumerate_counted ~k:1 ~max_candidates c top in
      check int_ "the push budget binds" (max 256 (max_candidates * 20)) pushes;
      check bool_ "same candidates as the reference" true
        (Subcircuit.enumerate ~k:1 ~max_candidates c top = expected))
    [ 1; 4; 16; 64 ]

(* Generated circuits of about 50-300 gates: every gate's enumeration equals
   the reference for a drawn K and candidate cap, with a fresh table per
   root or one table reused across all of them (as the engine does). *)
let qcheck_enumerate_matches_reference =
  let gen =
    QCheck.Gen.(
      map
        (fun ((n_gates, n_pi, depth, combine_pct, seed), (k, max_candidates, reuse)) ->
          ( {
              Circuit_gen.name = "enum";
              n_pi;
              n_po = 3 + (n_gates / 40);
              n_gates;
              depth;
              combine_pct;
              xor_pct = 10;
              seed = Int64.of_int seed;
            },
            k,
            max_candidates,
            reuse ))
        (pair
           (tup5 (int_range 100 450) (int_range 12 28) (int_range 4 12) (int_range 10 50)
              (int_bound 1_000_000))
           (triple (int_range 0 8) (oneofl [ 1; 4; 16; 64 ]) bool)))
  in
  let print (p, k, max_candidates, reuse) =
    Printf.sprintf "n_gates %d, n_pi %d, depth %d, combine %d%%, seed %Ld; K %d, max %d, %s table"
      p.Circuit_gen.n_gates p.n_pi p.depth p.combine_pct p.seed k max_candidates
      (if reuse then "reused" else "fresh")
  in
  QCheck.Test.make ~count:50 ~name:"enumerate matches the reference enumerator"
    (QCheck.make ~print gen)
    (fun (profile, k, max_candidates, reuse) ->
      let c = Circuit_gen.generate profile in
      let dedup = if reuse then Some (Subcircuit.dedup ()) else None in
      match enumeration_diverges ?dedup ~k ~max_candidates c with
      | None -> true
      | Some g -> QCheck.Test.fail_reportf "root %d differs from the reference" g)

let test_extract_single_gate () =
  let c = c17 () in
  let g22 = (Circuit.outputs c).(0) in
  let subs = Subcircuit.enumerate ~k:2 ~max_candidates:4 c g22 in
  match subs with
  | first :: _ ->
    let tt = Subcircuit.extract c first in
    (* a NAND2: ON-set {0,1,2} *)
    check bool_ "nand tt" true (Truthtable.minterms tt = [ 0; 1; 2 ])
  | [] -> Alcotest.fail "no candidate"

let test_extract_matches_cone_eval () =
  (* Extraction must agree with whole-circuit evaluation on the cone. *)
  for seed = 1 to 6 do
    let c = random_circuit ~n_pi:5 ~n_gates:14 seed in
    let order = Circuit.topo_order c in
    let root = order.(Array.length order - 1) in
    match Circuit.kind c root with
    | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
    | _ ->
      let subs = Subcircuit.enumerate ~k:4 ~max_candidates:16 c root in
      List.iter
        (fun s ->
          let tt = Subcircuit.extract c s in
          (* pick a few random input assignments of the whole circuit and
             compare the subcircuit input/output values *)
          let rng = Rng.create (Int64.of_int (seed * 13)) in
          for _ = 1 to 16 do
            let vec = Array.init 5 (fun _ -> Rng.bool rng) in
            let values = Eval.node_values c vec in
            let sub_in = Array.map (fun i -> values.(i)) s.Subcircuit.inputs in
            check bool_ "extract consistent" values.(root) (Truthtable.eval tt sub_in)
          done)
        subs
  done

let test_removable_respects_sharing () =
  (* b = AND(x,y); z1 = OR(b, w); z2 = NOT(b): a subcircuit {z1, b} cannot
     count b as removable because z2 still reads it. *)
  let c = Circuit.create () in
  let x = Circuit.add_input c in
  let y = Circuit.add_input c in
  let w = Circuit.add_input c in
  let b = Circuit.add_gate c Gate.And [| x; y |] in
  let z1 = Circuit.add_gate c Gate.Or [| b; w |] in
  let z2 = Circuit.add_gate c Gate.Not [| b |] in
  Circuit.mark_output c z1;
  Circuit.mark_output c z2;
  let s = { Subcircuit.root = z1; gates = [ b; z1 ]; inputs = [| x; y; w |] } in
  let removable = Subcircuit.removable_gates c s in
  check bool_ "b kept" false (List.mem b removable);
  check bool_ "root removable" true (List.mem z1 removable);
  check int_ "cost counts only the OR" 1 (Subcircuit.removable_cost c s)

(* --- Replacement ------------------------------------------------------------ *)

let test_splice_preserves_function () =
  let c = c17 () in
  let reference = Circuit.copy c in
  let g22 = (Circuit.outputs c).(0) in
  let subs = Subcircuit.enumerate ~k:5 ~max_candidates:32 c g22 in
  (* find an identifiable multi-gate candidate and splice it *)
  let rng = Rng.create 5L in
  let candidate =
    List.find_map
      (fun s ->
        if List.length s.Subcircuit.gates < 2 then None
        else
          let tt = Subcircuit.extract c s in
          Option.map
            (fun spec -> (s, spec))
            (Comparison_fn.identify Comparison_fn.Exact rng tt))
      subs
  in
  match candidate with
  | None -> Alcotest.fail "expected an identifiable subcircuit in c17"
  | Some (s, spec) ->
    let built = Comparison_unit.build ~n:(Array.length s.Subcircuit.inputs) spec in
    let _out = Replace.splice c s built in
    Check.validate c;
    check bool_ "function preserved" true (Eval.equivalent_exhaustive reference c)

(* --- Procedures -------------------------------------------------------------- *)

let proc_options =
  { Engine.default_options with Engine.k = 4; max_candidates = 24; max_passes = 6 }

let test_procedure2_c17 () =
  let c = c17 () in
  let reference = Circuit.copy c in
  let stats = Procedure2.run ~options:proc_options c in
  Check.validate c;
  check bool_ "equivalent" true (Eval.equivalent_exhaustive reference c);
  check bool_ "gates not increased" true
    (stats.Engine.gates_after <= stats.Engine.gates_before)

let test_procedure2_random () =
  for seed = 50 to 62 do
    let c = random_circuit ~n_pi:6 ~n_gates:30 ~n_po:4 seed in
    let reference = Circuit.copy c in
    let stats = Procedure2.run ~options:proc_options c in
    Check.validate c;
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: procedure 2 broke the function" seed;
    if stats.Engine.gates_after > stats.Engine.gates_before then
      Alcotest.failf "seed %d: procedure 2 increased gates (%d -> %d)" seed
        stats.Engine.gates_before stats.Engine.gates_after
  done

let test_procedure3_random () =
  for seed = 70 to 82 do
    let c = random_circuit ~n_pi:6 ~n_gates:30 ~n_po:4 seed in
    let reference = Circuit.copy c in
    let stats = Procedure3.run ~options:proc_options c in
    Check.validate c;
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: procedure 3 broke the function" seed;
    if stats.Engine.paths_after > stats.Engine.paths_before then
      Alcotest.failf "seed %d: procedure 3 increased paths (%d -> %d)" seed
        stats.Engine.paths_before stats.Engine.paths_after
  done

let test_procedure2_reduces_on_chain_example () =
  (* A >= block implemented wastefully as two-level logic: x1 + x2 x3 + x2 x4
     ... actually use ON-set [3..15] over 4 vars in sum-of-products form:
     f = x1 + x2 x3 + x2 x4 — that's >= 3? minterms with value >= 3 over
     (x1,x2,x3,x4): f = x1 + x2 + x3 x4. Build it as SOP with 5 2-input
     equivalent gates; the comparison unit needs 3. *)
  let c = Circuit.create () in
  let x1 = Circuit.add_input c in
  let x2 = Circuit.add_input c in
  let x3 = Circuit.add_input c in
  let x4 = Circuit.add_input c in
  let t = Circuit.add_gate c Gate.And [| x3; x4 |] in
  let u = Circuit.add_gate c Gate.Or [| x1; x2 |] in
  let f = Circuit.add_gate c Gate.Or [| u; t |] in
  Circuit.mark_output c f;
  let reference = Circuit.copy c in
  let c2 = Circuit.copy c in
  let stats = Procedure2.run ~options:proc_options c2 in
  check bool_ "equivalent" true (Eval.equivalent_exhaustive reference c2);
  check bool_ "no growth" true (stats.Engine.gates_after <= stats.Engine.gates_before);
  (* The >= 3 structure is already minimal: expect it unchanged (3 gates). *)
  check int_ "stays at 3" 3 stats.Engine.gates_after

let test_procedure2_removes_waste () =
  (* An ON-interval function implemented redundantly wide:
     f = interval [5,10] over 4 inputs as a two-level SOP. Procedure 2 should
     rebuild it as the 7-gate comparison unit of Figure 1 or better. *)
  let c = Circuit.create () in
  let x = Array.init 4 (fun _ -> Circuit.add_input c) in
  let inv = Array.map (fun v -> Circuit.add_gate c Gate.Not [| v |]) x in
  let product bits =
    let lits =
      List.mapi (fun i b -> match b with
        | `P -> x.(i)
        | `N -> inv.(i)
        | `D -> -1)
        bits
      |> List.filter (fun v -> v >= 0)
    in
    Circuit.add_gate c Gate.And (Array.of_list lits)
  in
  (* minterms 5,6,7,8,9,10 = 0101,0110,0111,1000,1001,1010 *)
  let terms =
    [
      product [ `N; `P; `N; `P ] (* 0101 *);
      product [ `N; `P; `P; `D ] (* 011- *);
      product [ `P; `N; `N; `D ] (* 100- *);
      product [ `P; `N; `P; `N ] (* 1010 *);
    ]
  in
  let f = Circuit.add_gate c Gate.Or (Array.of_list terms) in
  Circuit.mark_output c f;
  let reference = Circuit.copy c in
  let options = { proc_options with Engine.k = 5 } in
  let stats = Procedure2.run ~options c in
  check bool_ "equivalent" true (Eval.equivalent_exhaustive reference c);
  check bool_ "shrank" true (stats.Engine.gates_after < stats.Engine.gates_before);
  check bool_ "unit-sized result" true (stats.Engine.gates_after <= 7)

(* K outside 1..16 is refused before the circuit is touched (a 17-input
   cut would overflow the extractor). *)
let test_engine_rejects_bad_k () =
  let c = c17 () in
  let before = Bench_format.to_string c in
  List.iter
    (fun (name, optimize) ->
      List.iter
        (fun k ->
          (match optimize Engine.Gates { proc_options with Engine.k } c with
          | _ -> Alcotest.failf "%s accepted K = %d" name k
          | exception Invalid_argument _ -> ());
          check Alcotest.string
            (Printf.sprintf "%s, K = %d: circuit unchanged" name k)
            before (Bench_format.to_string c))
        [ -3; 0; 17; 18 ])
    [ ("optimize", Engine.optimize); ("optimize_reference", Engine.optimize_reference) ];
  let stats = Engine.optimize Engine.Gates { proc_options with Engine.k = 16 } c in
  check bool_ "K = 16 runs" true (stats.Engine.passes >= 1)

let test_sampled_engine_also_works () =
  let options =
    { proc_options with Engine.engine = Comparison_fn.Sampled 200 }
  in
  for seed = 90 to 94 do
    let c = random_circuit ~n_pi:5 ~n_gates:25 ~n_po:3 seed in
    let reference = Circuit.copy c in
    ignore (Procedure2.run ~options c);
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: sampled engine broke the function" seed
  done

(* Extraction orders the members the root reads by a DFS from the root;
   a member set that closes a cycle is refused, not evaluated. *)
let test_extract_member_order () =
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  (* ids deliberately out of topological order: g2 reads g3 *)
  let g1 = Circuit.add_gate c Gate.And [| a; b |] in
  let g2 = Circuit.add_gate c Gate.And [| a; b |] in
  let g3 = Circuit.add_gate c Gate.Not [| g1 |] in
  Circuit.set_fanins c g2 [| g3; a |];
  Circuit.mark_output c g2;
  let s = { Subcircuit.root = g2; gates = [ g1; g2; g3 ]; inputs = [| a; b |] } in
  (* AND(NOT(AND(a, b)), a) is 1 only on a = 1, b = 0: minterm 2 *)
  check bool_ "extract" true (Truthtable.minterms (Subcircuit.extract c s) = [ 2 ]);
  check bool_ "extract_scalar" true
    (Truthtable.equal (Subcircuit.extract c s) (Subcircuit.extract_scalar c s));
  Circuit.set_fanins c g1 [| a; g2 |];
  Alcotest.check_raises "cyclic member set" (Invalid_argument "Subcircuit: cyclic member set")
    (fun () -> ignore (Subcircuit.extract c s))

let suite =
  [
    ("enumerate: c17 candidates", `Quick, test_enumerate_c17);
    ("extract: single NAND", `Quick, test_extract_single_gate);
    ("extract agrees with cone evaluation", `Quick, test_extract_matches_cone_eval);
    ("removable gates respect sharing", `Quick, test_removable_respects_sharing);
    ("splice preserves function", `Quick, test_splice_preserves_function);
    ("procedure 2 on c17", `Quick, test_procedure2_c17);
    ("procedure 2 on random circuits", `Quick, test_procedure2_random);
    ("procedure 3 on random circuits", `Quick, test_procedure3_random);
    ("procedure 2 keeps minimal >=3 structure", `Quick, test_procedure2_reduces_on_chain_example);
    ("procedure 2 rebuilds wasteful interval logic", `Quick, test_procedure2_removes_waste);
    ("procedure 2 with sampled identification", `Quick, test_sampled_engine_also_works);
    ("engine rejects K outside 1..16", `Quick, test_engine_rejects_bad_k);
    ("enumerate: repeated fanin", `Quick, test_enumerate_repeated_fanin);
    ("enumerate: constant fanins", `Quick, test_enumerate_constant_fanins);
    ("enumerate: push budget binds", `Quick, test_enumerate_push_budget_binds);
    ("extract: member order and cycles", `Quick, test_extract_member_order);
  ]

let qchecks = [ qcheck_enumerate_matches_reference ]
