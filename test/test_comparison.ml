open Helpers

(* The paper's running example f2: minterms {1,5,6,9,10,14} over (y1..y4),
   which under the bit-reversal permutation becomes the interval [5,10]. *)
let f2 = Truthtable.of_minterms 4 [ 1; 5; 6; 9; 10; 14 ]

let test_identify_f2 () =
  match Comparison_fn.identify_exact f2 with
  | None -> Alcotest.fail "f2 is a comparison function"
  | Some s ->
    check bool_ "spec checks" true (Comparison_fn.check f2 s);
    check bool_ "not complemented" false s.Comparison_fn.complemented;
    check int_ "width of interval" 6 (s.Comparison_fn.hi - s.Comparison_fn.lo + 1)

let test_identify_f2_sampled () =
  let rng = Rng.create 3L in
  match Comparison_fn.identify_sampled rng f2 with
  | None -> Alcotest.fail "sampled engine must find f2 (4! < 200)"
  | Some s -> check bool_ "spec checks" true (Comparison_fn.check f2 s)

let test_identify_intervals_after_scrambling () =
  (* Any interval function scrambled by a random permutation must be
     identified by the exact engine. *)
  let rng = Rng.create 5L in
  for n = 2 to 6 do
    for _ = 1 to 20 do
      let total = 1 lsl n in
      let lo = Rng.int rng total in
      let hi = lo + Rng.int rng (total - lo) in
      let base = Truthtable.interval n ~lo ~hi in
      let p = Array.init n (fun i -> i + 1) in
      Rng.shuffle rng p;
      let scrambled = Truthtable.permute base p in
      match Comparison_fn.identify_exact scrambled with
      | None ->
        Alcotest.failf "n=%d [%d,%d] not identified after scrambling" n lo hi
      | Some s ->
        check bool_ "spec checks" true (Comparison_fn.check scrambled s)
    done
  done

let test_identify_complement () =
  (* OFF-set contiguous: accepted with complemented = true. *)
  let f = Truthtable.lnot (Truthtable.interval 4 ~lo:3 ~hi:11) in
  match Comparison_fn.identify_exact f with
  | None -> Alcotest.fail "complement must be identified"
  | Some s ->
    check bool_ "spec checks" true (Comparison_fn.check f s)

let test_identify_rejects_non_comparison () =
  (* 2-out-of-3 majority is not a comparison function: its ON-set {3,5,6,7}
     has popcount 4 but every permutation keeps minterm weights, and no
     4-interval of Z_8 consists of three weight-2 minterms plus 7. *)
  let majority = Truthtable.of_minterms 3 [ 3; 5; 6; 7 ] in
  check bool_ "majority rejected" true (Comparison_fn.identify_exact majority = None);
  (* XOR of 3 variables is also not a comparison function, nor its complement. *)
  let xor3 = Truthtable.of_minterms 3 [ 1; 2; 4; 7 ] in
  check bool_ "xor3 rejected" true (Comparison_fn.identify_exact xor3 = None)

let test_exact_vs_exhaustive_sampled () =
  (* For n <= 4 the sampled engine is exhaustive, hence complete: both
     engines must agree on comparison-or-not for every function tried. *)
  let rng = Rng.create 9L in
  let sample_rng = Rng.create 10L in
  for _ = 1 to 300 do
    let n = 3 + Rng.int rng 2 in
    let f =
      Truthtable.create n (fun _ -> Rng.bool rng)
    in
    let exact = Comparison_fn.identify_exact f in
    let sampled = Comparison_fn.identify_sampled ~budget:1000 sample_rng f in
    (match (exact, sampled) with
    | Some _, Some _ | None, None -> ()
    | Some s, None ->
      Alcotest.failf "exact found %s, exhaustive-sampled missed (tt %s)"
        (Format.asprintf "%a" Comparison_fn.pp_spec s)
        (Truthtable.to_string f)
    | None, Some s ->
      Alcotest.failf "sampled found %s but exact missed (tt %s)"
        (Format.asprintf "%a" Comparison_fn.pp_spec s)
        (Truthtable.to_string f));
    match exact with
    | Some s -> check bool_ "exact spec checks" true (Comparison_fn.check f s)
    | None -> ()
  done

(* --- The prefilter keeps every verdict ------------------------------------- *)

let spec_string = function
  | None -> "none"
  | Some s -> Format.asprintf "%a" Comparison_fn.pp_spec s

(* The production search returns the unfiltered search's verdict: the
   same spec, not just the same [Some] / [None]. *)
let same_as_reference f =
  let got = Comparison_fn.identify_exact f in
  let want = Ref_comparison_fn.identify_exact f in
  if got <> want then
    Alcotest.failf "%s: %s, reference %s" (Truthtable.to_string f) (spec_string got)
      (spec_string want)

let test_identify_all_4_input_tables () =
  for bits = 0 to 0xFFFF do
    same_as_reference (Truthtable.of_words 4 [| Int64.of_int bits |])
  done

(* Every table extracted from irs1423 at K = 6, once each. *)
let test_identify_irs1423_tables () =
  let c = Benchmarks.build (Benchmarks.find "irs1423") in
  let seen = Hashtbl.create 4096 in
  Array.iter
    (fun root ->
      match Circuit.kind c root with
      | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
      | _ ->
        List.iter
          (fun sub -> Hashtbl.replace seen (Subcircuit.extract c sub) ())
          (Subcircuit.enumerate ~k:6 ~max_candidates:64 c root))
    (Circuit.topo_order c);
  check bool_ "thousands of tables" true (Hashtbl.length seen > 1000);
  Hashtbl.iter (fun f () -> same_as_reference f) seen

let random_spec rng n =
  let total = 1 lsl n in
  let lo = Rng.int rng total in
  let hi = lo + Rng.int rng (total - lo) in
  let perm = Array.init n (fun i -> i + 1) in
  Rng.shuffle rng perm;
  { Comparison_fn.perm; lo; hi; complemented = Rng.bool rng }

let random_spec_table rng n = Comparison_fn.spec_table n (random_spec rng n)

(* Random 5- to 8-input tables (one, two and four words): uniformly random
   ones, spec tables, and spec tables with one minterm flipped. *)
let qcheck_identify_matches_reference =
  let gen =
    QCheck.Gen.(
      map
        (fun (n, mode, seed) ->
          let rng = Rng.create (Int64.of_int seed) in
          match mode with
          | 0 -> Truthtable.create n (fun _ -> Rng.bool rng)
          | 1 -> random_spec_table rng n
          | _ ->
            let t = random_spec_table rng n in
            let m = Rng.int rng (1 lsl n) in
            Truthtable.set t m (not (Truthtable.get t m)))
        (triple (int_range 5 8) (int_bound 2) (int_bound 1_000_000)))
  in
  QCheck.Test.make ~count:300 ~name:"identify_exact matches the unfiltered search"
    (QCheck.make ~print:Truthtable.to_string gen)
    (fun f ->
      same_as_reference f;
      true)

(* Every spec's table is identified, with a spec that denotes it. *)
let check_spec_identified n spec =
  let f = Comparison_fn.spec_table n spec in
  match Comparison_fn.identify_exact f with
  | Some s when Comparison_fn.check f s -> ()
  | got ->
    Alcotest.failf "%s (%a) identified as %s" (Truthtable.to_string f) Comparison_fn.pp_spec
      spec (spec_string got)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) l)))
      l

let test_identify_complete_small () =
  for n = 0 to 4 do
    let perms = permutations (List.init n (fun i -> i + 1)) in
    for lo = 0 to (1 lsl n) - 1 do
      for hi = lo to (1 lsl n) - 1 do
        List.iter
          (fun p ->
            List.iter
              (fun complemented ->
                check_spec_identified n
                  { Comparison_fn.perm = Array.of_list p; lo; hi; complemented })
              [ false; true ])
          perms
      done
    done
  done

let test_identify_complete_sampled () =
  let rng = Rng.create 23L in
  List.iter
    (fun n ->
      for _ = 1 to 2000 do
        check_spec_identified n (random_spec rng n)
      done)
    [ 5; 6 ]

(* --- Comparison units ----------------------------------------------------- *)

let test_unit_figure1 () =
  (* Figure 1: L=5, U=10 over 4 inputs. *)
  let b = Comparison_unit.build_interval ~lo:5 ~hi:10 4 in
  let spec =
    { Comparison_fn.perm = [| 1; 2; 3; 4 |]; lo = 5; hi = 10; complemented = false }
  in
  check bool_ "unit computes [5,10]" true (Comparison_unit.verify ~n:4 spec b);
  Array.iter
    (fun p -> check bool_ "at most two paths" true (p <= 2))
    b.Comparison_unit.input_paths

let test_unit_figure3_special_cases () =
  (* >= 3 = (0011): x1 OR x2 OR (x3 AND x4); >= 12 = (1100): x1 AND x2. *)
  let geq3 = Comparison_unit.build_interval ~lo:3 ~hi:15 4 in
  check int_ ">=3 gates" 3 geq3.Comparison_unit.gates2;
  let geq12 = Comparison_unit.build_interval ~lo:12 ~hi:15 4 in
  check int_ ">=12 gates" 1 geq12.Comparison_unit.gates2;
  (* <= 12 = (1100): x1' OR x2' OR (x3' AND x4'); <= 3: x1' AND x2'. *)
  let leq12 = Comparison_unit.build_interval ~lo:0 ~hi:12 4 in
  check int_ "<=12 gates" 3 leq12.Comparison_unit.gates2;
  let leq3 = Comparison_unit.build_interval ~lo:0 ~hi:3 4 in
  check int_ "<=3 gates" 1 leq3.Comparison_unit.gates2;
  (* spot-check functions *)
  let t = Eval.output_table geq12.Comparison_unit.circuit 0 in
  check bool_ ">=12 correct" true
    (Truthtable.equal t (Truthtable.interval 4 ~lo:12 ~hi:15))

let test_unit_free_variables () =
  (* L=5=(0101), U=7=(0111): free variables x1 x2; unit is x1' AND x2 AND
     (core over x3 x4 with [01..11] -> >= 1 chain only). *)
  check int_ "free count" 2 (Comparison_unit.free_variable_count ~n:4 ~lo:5 ~hi:7);
  let b = Comparison_unit.build_interval ~lo:5 ~hi:7 4 in
  let t = Eval.output_table b.Comparison_unit.circuit 0 in
  check bool_ "function" true (Truthtable.equal t (Truthtable.interval 4 ~lo:5 ~hi:7));
  (* free variables have exactly one path *)
  check int_ "x1 one path" 1 b.Comparison_unit.input_paths.(0);
  check int_ "x2 one path" 1 b.Comparison_unit.input_paths.(1)

let test_unit_single_implicant () =
  (* f(y1,y2,y3) = y1 y3: permutation (y1,y3,y2), L=6, U=7 -> single AND. *)
  let spec =
    { Comparison_fn.perm = [| 1; 3; 2 |]; lo = 6; hi = 7; complemented = false }
  in
  let b = Comparison_unit.build ~n:3 spec in
  check int_ "single AND gate" 1 b.Comparison_unit.gates2;
  let t = Eval.output_table b.Comparison_unit.circuit 0 in
  let expected = Truthtable.land_ (Truthtable.var 3 1) (Truthtable.var 3 3) in
  check bool_ "function is y1 y3" true (Truthtable.equal t expected)

let test_unit_all_specs_exhaustive_small () =
  (* Every interval over 1..5 variables, with and without merging, must
     verify; input path counts never exceed 2. *)
  for n = 1 to 5 do
    let total = 1 lsl n in
    for lo = 0 to total - 1 do
      for hi = lo to total - 1 do
        List.iter
          (fun merge ->
            let b = Comparison_unit.build_interval ~merge ~lo ~hi n in
            let spec =
              {
                Comparison_fn.perm = Array.init n (fun i -> i + 1);
                lo;
                hi;
                complemented = false;
              }
            in
            if not (Comparison_unit.verify ~n spec b) then
              Alcotest.failf "unit n=%d [%d,%d] merge=%b wrong" n lo hi merge;
            Array.iter
              (fun p ->
                if p > 2 then
                  Alcotest.failf "unit n=%d [%d,%d]: input with %d paths" n lo hi p)
              b.Comparison_unit.input_paths)
          [ true; false ]
      done
    done
  done

(* [cost] counts what [build] builds: for every interval over 0..6
   variables, both polarities, merging on and off, and the identity plus a
   random permutation per interval. *)
let test_unit_cost_matches_build () =
  let rng = Rng.create 17L in
  let shuffled n =
    let p = Array.init n (fun i -> i + 1) in
    for i = n - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let t = p.(i) in
      p.(i) <- p.(j);
      p.(j) <- t
    done;
    p
  in
  for n = 0 to 6 do
    let total = 1 lsl n in
    for lo = 0 to total - 1 do
      for hi = lo to total - 1 do
        List.iter
          (fun perm ->
            List.iter
              (fun complemented ->
                let spec = { Comparison_fn.perm; lo; hi; complemented } in
                let gates2, input_paths = Comparison_unit.cost ~n spec in
                List.iter
                  (fun merge ->
                    let b = Comparison_unit.build ~merge ~n spec in
                    if
                      gates2 <> b.Comparison_unit.gates2
                      || input_paths <> b.Comparison_unit.input_paths
                    then
                      Alcotest.failf
                        "n=%d [%d,%d] perm [%s] compl=%b merge=%b: cost (%d) vs build (%d)" n lo hi
                        (String.concat " " (Array.to_list (Array.map string_of_int perm)))
                        complemented merge gates2 b.Comparison_unit.gates2)
                  [ true; false ])
              [ false; true ])
          [ Array.init n (fun i -> i + 1); shuffled n ]
      done
    done
  done

let test_unit_complemented () =
  let spec =
    { Comparison_fn.perm = [| 2; 1; 3 |]; lo = 2; hi = 5; complemented = true }
  in
  let b = Comparison_unit.build ~n:3 spec in
  check bool_ "complemented unit verifies" true (Comparison_unit.verify ~n:3 spec b)

let test_unit_merging_reduces_depth () =
  (* >= 7 over 4 bits (Figure 4): the two rightmost ANDs merge. *)
  let merged = Comparison_unit.build_interval ~merge:true ~lo:7 ~hi:15 4 in
  let plain = Comparison_unit.build_interval ~merge:false ~lo:7 ~hi:15 4 in
  check bool_ "same gate count" true
    (merged.Comparison_unit.gates2 = plain.Comparison_unit.gates2);
  check bool_ "depth reduced" true
    (merged.Comparison_unit.depth < plain.Comparison_unit.depth)

(* --- Robust testability of units (Sec. 3.3) -------------------------------- *)

let test_unit_fully_robustly_testable () =
  (* The paper's Figure 6 unit: L=11, U=12 -> free x1, core [3,4]. *)
  let b = Comparison_unit.build_interval ~lo:11 ~hi:12 4 in
  let r = Unit_testgen.generate b in
  check int_ "no untestable path faults" 0 (List.length r.Unit_testgen.untested);
  (* verify every generated pair against the robust simulator *)
  let cmp = Compiled.of_circuit b.Comparison_unit.circuit in
  List.iter
    (fun t ->
      let waves = Wave.simulate cmp ~v1:t.Unit_testgen.v1 ~v2:t.Unit_testgen.v2 in
      match Robust.detects cmp waves t.Unit_testgen.path with
      | Some dir -> check bool_ "direction" true (dir = t.Unit_testgen.direction)
      | None -> Alcotest.fail "generated test not robust")
    r.Unit_testgen.tests

let test_units_fully_testable_sweep () =
  (* All 4-variable units are fully robustly testable. *)
  for lo = 0 to 15 do
    for hi = lo to 15 do
      let b = Comparison_unit.build_interval ~lo ~hi 4 in
      if not (Unit_testgen.fully_testable b) then
        Alcotest.failf "unit [%d,%d] not fully robustly testable" lo hi
    done
  done

let suite =
  [
    ("identify: paper example f2", `Quick, test_identify_f2);
    ("identify: f2 with sampled engine", `Quick, test_identify_f2_sampled);
    ("identify: scrambled intervals", `Quick, test_identify_intervals_after_scrambling);
    ("identify: complemented comparison", `Quick, test_identify_complement);
    ("identify: rejects non-comparison functions", `Quick, test_identify_rejects_non_comparison);
    ("identify: exact agrees with exhaustive search", `Quick, test_exact_vs_exhaustive_sampled);
    ("unit: Figure 1", `Quick, test_unit_figure1);
    ("unit: Figure 3 special cases", `Quick, test_unit_figure3_special_cases);
    ("unit: free variables", `Quick, test_unit_free_variables);
    ("unit: single prime implicant", `Quick, test_unit_single_implicant);
    ("unit: exhaustive sweep n<=5", `Quick, test_unit_all_specs_exhaustive_small);
    ("unit: complemented", `Quick, test_unit_complemented);
    ("unit: merging reduces depth (Fig. 4)", `Quick, test_unit_merging_reduces_depth);
    ("unit: Figure 6 robust test set", `Quick, test_unit_fully_robustly_testable);
    ("unit: all 4-var units fully robustly testable", `Quick, test_units_fully_testable_sweep);
    ("unit: cost matches build (n<=6)", `Quick, test_unit_cost_matches_build);
    ("identify: = unfiltered search, all 4-input tables", `Quick, test_identify_all_4_input_tables);
    ("identify: = unfiltered search, irs1423 at K = 6", `Quick, test_identify_irs1423_tables);
    ("identify: every spec table, n <= 4", `Quick, test_identify_complete_small);
    ("identify: sampled spec tables, n = 5, 6", `Quick, test_identify_complete_sampled);
  ]

(* The premises of the engine's bounds (DESIGN.md §13.2), for every spec
   either engine returns and every multi-unit cover: the spec-level cost
   is the built unit's 2-input gate count, that count is at least the
   number of essential inputs minus one, and every essential input has a
   path to the output. Tables of 0 to 8 variables: random ones, spec
   tables, spec tables over a subset of the variables (so some inputs are
   inessential) and one-flip spec tables (which need a cover). *)
let qcheck_bound_premises =
  let gen =
    QCheck.Gen.(
      map
        (fun (n, mode, seed) ->
          let rng = Rng.create (Int64.of_int seed) in
          let table =
            match mode with
            | 0 -> Truthtable.create n (fun _ -> Rng.bool rng)
            | 1 -> random_spec_table rng n
            | 2 ->
              let vars = List.filter (fun _ -> Rng.bool rng) (List.init n (fun i -> i + 1)) in
              let inner = random_spec_table rng (List.length vars) in
              Truthtable.create n (fun m ->
                  Truthtable.get inner
                    (List.fold_left
                       (fun acc i -> (acc lsl 1) lor ((m lsr (n - i)) land 1))
                       0 vars))
            | _ ->
              let t = random_spec_table rng n in
              if n = 0 then t
              else
                let m = Rng.int rng (1 lsl n) in
                Truthtable.set t m (not (Truthtable.get t m))
          in
          (table, seed))
        (triple (int_range 0 8) (int_bound 3) (int_bound 1_000_000)))
  in
  let print (t, seed) = Printf.sprintf "%s (seed %d)" (Truthtable.to_string t) seed in
  QCheck.Test.make ~count:400 ~name:"bound premises: unit cost, s - 1 gates, a path per input"
    (QCheck.make ~print gen)
    (fun (f, seed) ->
      let n = Truthtable.arity f in
      let mask = Truthtable.support_mask f in
      let essential = List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init n Fun.id) in
      let s = List.length essential in
      let premises gates2 input_paths =
        gates2 >= s - 1 && List.for_all (fun j -> input_paths.(j) >= 1) essential
      in
      let rng = Rng.create (Int64.of_int seed) in
      let specs =
        List.filter_map Fun.id
          [ Comparison_fn.identify_exact f; Comparison_fn.identify_sampled rng f ]
      in
      List.for_all
        (fun spec ->
          let gates2, input_paths = Comparison_unit.cost ~n spec in
          let built = Comparison_unit.build ~n spec in
          gates2 = Circuit.two_input_gate_count built.Comparison_unit.circuit
          && premises gates2 input_paths)
        specs
      &&
      match Multi_unit.find ~max_units:2 rng f with
      | None -> true
      | Some cover ->
        let b = Multi_unit.build ~n cover in
        b.Comparison_unit.gates2 = Circuit.two_input_gate_count b.Comparison_unit.circuit
        && premises b.Comparison_unit.gates2 b.Comparison_unit.input_paths)

let qchecks = [ qcheck_identify_matches_reference; qcheck_bound_premises ]
