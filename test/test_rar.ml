open Helpers

let test_rar_preserves_function () =
  for seed = 1 to 6 do
    let c = random_circuit ~n_pi:5 ~n_gates:22 ~n_po:3 seed in
    let reference = Circuit.copy c in
    let options =
      { Rar.default_options with Rar.max_additions = 4; max_trials = 60; seed = Int64.of_int seed }
    in
    let stats = Rar.optimize ~options c in
    Check.validate c;
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: RAR broke the function" seed;
    check bool_ "never grows" true (stats.Rar.gates_after <= stats.Rar.gates_before)
  done

let test_rar_finds_classic_rewrite () =
  (* The textbook RAR example shape: adding a redundant connection makes an
     existing wire redundant. We at least require the optimizer to remove the
     straightforward redundancy AND(a, a'). *)
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
  let stats = Rar.optimize ~options:{ Rar.default_options with Rar.max_additions = 2; max_trials = 40 } c in
  check bool_ "equivalent" true (Eval.equivalent_exhaustive reference c);
  check bool_ "removed redundancy" true (stats.Rar.removals > 0);
  check bool_ "shrank" true (stats.Rar.gates_after < stats.Rar.gates_before)

let test_rar_deterministic () =
  let run () =
    let c = random_circuit ~n_pi:5 ~n_gates:20 ~n_po:3 7 in
    let options = { Rar.default_options with Rar.max_additions = 3; max_trials = 50; seed = 9L } in
    let stats = Rar.optimize ~options c in
    (stats.Rar.gates_after, Circuit.two_input_gate_count c)
  in
  check bool_ "deterministic" true (run () = run ())

(* The merge memory changes no decision: [Rar.optimize] writes the netlist
   text and returns the stats of [Ref_rar.optimize], which proves every
   candidate pair afresh. [None] when both agree. *)
let reference_mismatch ~options c =
  let ours = Circuit.copy c and theirs = Circuit.copy c in
  let got = Rar.optimize ~options ours in
  let want = Ref_rar.optimize ~options theirs in
  if got <> want then
    Some (Format.asprintf "stats %a, reference %a" Rar.pp_stats got Rar.pp_stats want)
  else if Bench_format.to_string ours <> Bench_format.to_string theirs then
    Some "netlists differ"
  else None

let check_reference name ~options c =
  match reference_mismatch ~options c with
  | None -> ()
  | Some why -> Alcotest.failf "%s: %s" name why

let merge_counters =
  List.map Obs.Counter.make
    [ "rar.merge_unsat"; "rar.merge_sat"; "rar.merge_unknown"; "rar.merge_separated";
      "rar.merge_reused" ]

(* The input and options of the benchmark's [rar] workload. The memory's
   split is pinned too: 88 proofs (21 Unsat, 30 Sat, 37 Unknown) where the
   reference makes 558, 307 pairs separated by a kept vector and 163 given
   a stored verdict. *)
let test_reference_rar_input () =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) @@ fun () ->
  let before = List.map Obs.Counter.value merge_counters in
  check_reference "irs1423-rar"
    ~options:{ Rar.default_options with Rar.max_additions = 8; max_trials = 15; seed = 17L }
    (Bench_format.read_file "../perf/inputs/irs1423-rar.bench");
  check (Alcotest.list int_) "unsat, sat, unknown, separated, reused" [ 21; 30; 37; 307; 163 ]
    (List.map2 (fun c b -> Obs.Counter.value c - b) merge_counters before)

(* irs1423 at Table 3's quick options, as the bench runs it. *)
let test_reference_table3_quick () =
  check_reference "irs1423, Table 3 quick"
    ~options:{ Rar.default_options with Rar.max_additions = 8; max_trials = 60; seed = 17L }
    (Benchmarks.build (Benchmarks.find "irs1423"))

(* Generated circuits with 0-40% XOR gates and removal budgets of 0, 2, 5
   and 120 backtracks, where many merge proofs end Unknown, so stored
   Unknown verdicts are reused. *)
let qcheck_reference =
  QCheck.Test.make ~count:40 ~name:"Rar.optimize = reference without merge memory"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let n_gates = 20 + Rng.int rng 140 in
      let profile =
        {
          Circuit_gen.name = Printf.sprintf "rar%d" seed;
          n_pi = 4 + Rng.int rng 16;
          n_po = 1 + Rng.int rng 8;
          n_gates;
          depth = 2 + Rng.int rng (min 12 (n_gates / 4));
          combine_pct = Rng.int rng 50;
          xor_pct = Rng.int rng 41;
          seed = Int64.of_int seed;
        }
      in
      let options =
        {
          Rar.max_additions = 1 + Rng.int rng 4;
          max_trials = 5 + Rng.int rng 30;
          removal_backtracks = [| 0; 2; 5; 120 |].(Rng.int rng 4);
          seed = Rng.next64 rng;
        }
      in
      match reference_mismatch ~options (Circuit_gen.generate profile) with
      | None -> true
      | Some why -> QCheck.Test.fail_reportf "%s" why)

let suite =
  [
    ("RAR preserves function", `Quick, test_rar_preserves_function);
    ("RAR removes obvious redundancy", `Quick, test_rar_finds_classic_rewrite);
    ("RAR is deterministic", `Quick, test_rar_deterministic);
    ("RAR = reference on the rar workload", `Quick, test_reference_rar_input);
    ("RAR = reference on irs1423, Table 3 quick", `Quick, test_reference_table3_quick);
  ]

let qchecks = [ qcheck_reference ]
