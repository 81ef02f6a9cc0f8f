(* SAT-powered ATPG: solver semantics, fault-miter soundness and exact
   redundancy proofs.

   Verdicts are cross-validated against the fault simulator in both
   directions: every Test vector must detect its fault under Fsim (also
   enforced internally by Sat_atpg.run), and Redundant verdicts are
   compared with exhaustive simulation of all 2^n input vectors on small
   circuits and with the reference miter of [Ref_sat_atpg] on larger ones. *)

open Helpers

(* --- solver ------------------------------------------------------------------ *)

(* Clauses added between calls constrain the next call; a top-level
   contradiction is permanent. *)
let test_solve_basics () =
  let s = Sat.create () in
  let a = Sat.new_var s and b = Sat.new_var s in
  Sat.add_clause s [| Sat.lit a; Sat.lit b |];
  (match Sat.solve s with
  | Sat.Sat -> check bool_ "a or b" true (Sat.value s a || Sat.value s b)
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "expected SAT");
  Sat.add_clause s [| Sat.neg (Sat.lit a) |];
  (match Sat.solve s with
  | Sat.Sat ->
    check bool_ "a false after the added clause" false (Sat.value s a);
    check bool_ "b forced true" true (Sat.value s b)
  | Sat.Unsat | Sat.Unknown -> Alcotest.fail "expected SAT under ~a");
  Sat.add_clause s [| Sat.neg (Sat.lit b) |];
  (match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat | Sat.Unknown -> Alcotest.fail "expected global UNSAT");
  Sat.add_clause s [| Sat.lit a; Sat.lit b |];
  match Sat.solve s with
  | Sat.Unsat -> ()
  | Sat.Sat | Sat.Unknown -> Alcotest.fail "dead instance must stay UNSAT"

(* --- fault miters ---------------------------------------------------------- *)

(* Every verdict on every collapsed fault agrees with exhaustive
   simulation; Test vectors are replayed through Fsim. *)
let check_circuit_exact c =
  let engine = Sat_atpg.create c in
  let fsim = Fsim.create (Compiled.of_circuit c) in
  List.iter
    (fun f ->
      match Sat_atpg.run engine f with
      | Sat_atpg.Test v ->
        check bool_ "SAT vector detects the fault" true
          (Fsim.detect_single fsim f v);
        check bool_ "fault is exhaustively detectable" true
          (detectable_exhaustive c f)
      | Sat_atpg.Redundant ->
        check bool_ "Redundant fault is exhaustively undetectable" false
          (detectable_exhaustive c f)
      | Sat_atpg.Unknown _ ->
        Alcotest.fail "budget must not run out on a small circuit")
    (Fault.collapsed c)

let test_c17_exact () = check_circuit_exact (c17 ())
let test_mixed_exact () = check_circuit_exact (mixed ())

let test_random_exact () =
  for seed = 60 to 67 do
    check_circuit_exact (random_circuit ~n_pi:5 ~n_gates:14 seed)
  done

(* --- D-chain edge cases ------------------------------------------------------ *)

let verdict_tag = function
  | Sat_atpg.Test _ -> "test"
  | Sat_atpg.Redundant -> "redundant"
  | Sat_atpg.Unknown _ -> "unknown"

let ref_tag = function
  | Ref_sat_atpg.Test _ -> "test"
  | Ref_sat_atpg.Redundant -> "redundant"
  | Ref_sat_atpg.Unknown -> "unknown"

(* The fault's verdict, held to exhaustive simulation and to the reference
   miter; a Test vector must replay through Fsim. *)
let pinned c f expected =
  let got = Sat_atpg.run (Sat_atpg.create c) f in
  let name = Fault.to_string c f in
  check Alcotest.string (name ^ ": verdict") expected (verdict_tag got);
  check Alcotest.string (name ^ ": reference") expected (ref_tag (Ref_sat_atpg.run c f));
  check Alcotest.string (name ^ ": exhaustive") expected
    (if detectable_exhaustive c f then "test" else "redundant");
  match got with
  | Sat_atpg.Test v ->
    check bool_ (name ^ ": replay") true
      (Fsim.detect_single (Fsim.create (Compiled.of_circuit c)) f v)
  | Sat_atpg.Redundant | Sat_atpg.Unknown _ -> ()

let stem ?(stuck = false) u = { Fault.site = Fault.Stem u; stuck }
let branch ?(stuck = false) g pin = { Fault.site = Fault.Branch (g, pin); stuck }

(* y = a | (a & b): the branch a -> AND is redundant s-a-0 (y = a either
   way) while the stem is testable; the branch s-a-1 is testable. *)
let test_branch_faults () =
  let c = Circuit.create () in
  let a = Circuit.add_input c and b = Circuit.add_input c in
  let ab = Circuit.add_gate c Gate.And [| a; b |] in
  let y = Circuit.add_gate c Gate.Or [| a; ab |] in
  Circuit.mark_output c y;
  pinned c (branch ab 0) "redundant";
  pinned c (branch ~stuck:true ab 0) "test";
  pinned c (branch y 0) "test";
  pinned c (stem a) "test"

(* The site is a primary output that also fans out: its D-chain variable
   gets no fanout clause, so observing the site itself is a test, even when
   every fanout masks the effect (z = x & ~x is constant 0). *)
let test_output_site_with_fanout () =
  let c = Circuit.create () in
  let a = Circuit.add_input c and b = Circuit.add_input c in
  let x = Circuit.add_gate c Gate.And [| a; b |] in
  let nx = Circuit.add_gate c Gate.Not [| x |] in
  let z = Circuit.add_gate c Gate.And [| x; nx |] in
  Circuit.mark_output c x;
  Circuit.mark_output c z;
  pinned c (stem x) "test";
  pinned c (stem ~stuck:true x) "test";
  pinned c (stem ~stuck:true z) "test";
  pinned c (stem z) "redundant"

(* Reconvergent cones. In w = (a & b) | (a & ~b) = a the effect of a stem
   fault on a travels one of two paths, chosen by b. In y = a1 xor a2 with
   a1 = a2 = a the two paths cancel: with y the only output, both stem
   faults of a are redundant while a fault on either path is testable. *)
let test_reconvergent_cones () =
  let c = Circuit.create () in
  let a = Circuit.add_input c and b = Circuit.add_input c in
  let a1 = Circuit.add_gate c Gate.Buf [| a |] in
  let a2 = Circuit.add_gate c Gate.Buf [| a |] in
  let y = Circuit.add_gate c Gate.Xor [| a1; a2 |] in
  let nb = Circuit.add_gate c Gate.Not [| b |] in
  let p = Circuit.add_gate c Gate.And [| a; b |] in
  let q = Circuit.add_gate c Gate.And [| a; nb |] in
  let w = Circuit.add_gate c Gate.Or [| p; q |] in
  Circuit.mark_output c y;
  Circuit.mark_output c w;
  pinned c (stem a1) "test";
  pinned c (stem ~stuck:true a2) "test";
  pinned c (stem p) "test";
  pinned c (stem ~stuck:true a) "test";
  let c' = Circuit.create () in
  let a = Circuit.add_input c' in
  let a1 = Circuit.add_gate c' Gate.Buf [| a |] in
  let a2 = Circuit.add_gate c' Gate.Buf [| a |] in
  let y = Circuit.add_gate c' Gate.Xor [| a1; a2 |] in
  Circuit.mark_output c' y;
  pinned c' (stem a) "redundant";
  pinned c' (stem ~stuck:true a) "redundant";
  pinned c' (stem a1) "test"

(* A site that reaches no primary output is redundant without a solver;
   a site with one dead and one live fanout keeps the live path. *)
let test_no_reachable_output () =
  let c = Circuit.create () in
  let a = Circuit.add_input c and b = Circuit.add_input c in
  let dead = Circuit.add_gate c Gate.And [| a; b |] in
  let _dangling = Circuit.add_gate c Gate.Not [| dead |] in
  let live = Circuit.add_gate c Gate.Or [| a; b |] in
  Circuit.mark_output c live;
  pinned c (stem dead) "redundant";
  pinned c (stem ~stuck:true dead) "redundant";
  pinned c (stem a) "test";
  pinned c (stem ~stuck:true b) "test"

(* escalate covers the whole worklist and partitions it. *)
let test_escalate_partition () =
  let c = c17 () in
  let faults = Fault.collapsed c in
  let esc = Sat_atpg.escalate c faults in
  check int_ "everything escalated" (List.length faults) esc.Sat_atpg.escalated;
  check int_ "partitioned"
    (List.length faults)
    (List.length esc.Sat_atpg.tests
    + List.length esc.Sat_atpg.redundant
    + List.length esc.Sat_atpg.unknown);
  (* c17 is fully testable. *)
  check int_ "c17 has no redundancy" 0 (List.length esc.Sat_atpg.redundant);
  check int_ "c17 decided" 0 (List.length esc.Sat_atpg.unknown)

(* Redundancy.remove with SAT escalation must still preserve the function
   even when PODEM is crippled enough to abort constantly. *)
let test_remove_with_tiny_podem () =
  for seed = 80 to 83 do
    let c = random_circuit ~n_pi:5 ~n_gates:18 seed in
    let reference = Circuit.copy c in
    let limits = { Limits.default with Limits.podem_backtracks = 0 } in
    let _report = Redundancy.remove ~limits ~seed:9L c in
    check bool_ "function preserved under SAT-justified removal" true
      (Eval.equivalent_exhaustive reference c)
  done

(* --- qcheck: injected redundancies ---------------------------------------- *)

(* Splice a provably constant-0 net (a & ~a) into a fresh OR output: its
   stuck-at-0 fault can never be activated, so the exact engine must prove
   it redundant, and tying it off must not change the function. *)
let inject_redundancy seed =
  let c = random_circuit ~n_pi:4 ~n_gates:10 seed in
  let a = (Circuit.inputs c).(0) in
  let na = Circuit.add_gate c Gate.Not [| a |] in
  let z = Circuit.add_gate c Gate.And [| a; na |] in
  let carrier = (Circuit.outputs c).(0) in
  let y = Circuit.add_gate c Gate.Or [| carrier; z |] in
  Circuit.mark_output ~name:"inj" c y;
  (c, { Fault.site = Fault.Stem z; stuck = false })

let qcheck_injected_redundant =
  QCheck.Test.make ~count:40 ~name:"injected constant nets are proved redundant"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c, f = inject_redundancy seed in
      let engine = Sat_atpg.create c in
      (match Sat_atpg.run engine f with
      | Sat_atpg.Redundant -> ()
      | Sat_atpg.Test _ -> QCheck.Test.fail_report "constant net reported testable"
      | Sat_atpg.Unknown _ -> QCheck.Test.fail_report "budget ran out");
      true)

let qcheck_verdicts_exact =
  QCheck.Test.make ~count:25 ~name:"sat-atpg agrees with exhaustive simulation"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = random_circuit ~n_pi:4 ~n_gates:12 (seed mod 100_000) in
      let engine = Sat_atpg.create c in
      List.for_all
        (fun f ->
          match Sat_atpg.run engine f with
          | Sat_atpg.Test _ -> detectable_exhaustive c f
          | Sat_atpg.Redundant -> not (detectable_exhaustive c f)
          | Sat_atpg.Unknown _ -> false)
        (Fault.collapsed c))

(* --- differential oracle ----------------------------------------------------- *)

(* Circuits of about 50-300 gates (after the generator's sweep), too wide
   for exhaustive simulation: every collapsed fault gets the reference
   miter's verdict, every Test replays through Fsim, and every fault PODEM
   proves untestable is Redundant. *)
let qcheck_matches_reference =
  let gen =
    QCheck.Gen.(
      map
        (fun (n_gates, n_pi, depth, combine_pct, xor_pct, seed) ->
          {
            Circuit_gen.name = "diff";
            n_pi;
            n_po = 3 + (n_gates / 40);
            n_gates;
            depth;
            combine_pct;
            xor_pct;
            seed = Int64.of_int seed;
          })
        (tup6 (int_range 100 450) (int_range 12 28) (int_range 4 12)
           (int_range 10 50) (int_range 0 15) (int_bound 1_000_000)))
  in
  let print p =
    Printf.sprintf "n_gates %d, n_pi %d, n_po %d, depth %d, combine %d%%, xor %d%%, seed %Ld"
      p.Circuit_gen.n_gates p.n_pi p.n_po p.depth p.combine_pct p.xor_pct p.seed
  in
  QCheck.Test.make ~count:5 ~name:"per-fault SAT matches the reference miter"
    (QCheck.make ~print gen)
    (fun profile ->
      let c = Circuit_gen.generate profile in
      let engine = Sat_atpg.create c in
      let fsim = Fsim.create (Compiled.of_circuit c) in
      List.for_all
        (fun f ->
          let got = Sat_atpg.run engine f in
          let expected = ref_tag (Ref_sat_atpg.run c f) in
          let fail what =
            QCheck.Test.fail_reportf "%s: %s (reference: %s)" (Fault.to_string c f) what
              expected
          in
          if verdict_tag got <> expected then fail (verdict_tag got);
          (match got with
          | Sat_atpg.Test v -> if not (Fsim.detect_single fsim f v) then fail "replay failed"
          | Sat_atpg.Redundant -> ()
          | Sat_atpg.Unknown _ -> fail "budget ran out");
          (match Podem.generate c f with
          | Podem.Untestable -> if got <> Sat_atpg.Redundant then fail "PODEM untestable"
          | Podem.Test _ | Podem.Aborted -> ());
          true)
        (Fault.collapsed c))

(* --- reuse: one cleared environment per fault ------------------------------- *)

let conflicts_c = Obs.Counter.make "sat.conflicts"
let propagations_c = Obs.Counter.make "sat.propagations"

(* [run] with the change of the solver counters (they move only while
   metrics are on). *)
let run_counted engine f =
  let c0 = Obs.Counter.value conflicts_c and p0 = Obs.Counter.value propagations_c in
  let got = Sat_atpg.run engine f in
  (got, Obs.Counter.value conflicts_c - c0, Obs.Counter.value propagations_c - p0)

(* A fault list decided on one [t] gets, fault for fault, the outcome,
   vector and search of a fresh [t]: [Sat.clear] and [Cnf.clear] leave no
   state behind, also after a fault whose budget ran out. *)
let qcheck_reuse_equals_fresh =
  let gen =
    QCheck.Gen.(
      map
        (fun (n_gates, n_pi, depth, xor_pct, budget, seed) ->
          ( {
              Circuit_gen.name = "reuse";
              n_pi;
              n_po = 2 + (n_gates / 50);
              n_gates;
              depth;
              combine_pct = 30;
              xor_pct;
              seed = Int64.of_int seed;
            },
            budget ))
        (tup6 (int_range 40 250) (int_range 8 20) (int_range 3 10) (int_range 0 20)
           (oneofl [ 2; 20; 100_000 ]) (int_bound 1_000_000)))
  in
  let print (p, budget) =
    Printf.sprintf "n_gates %d, n_pi %d, depth %d, xor %d%%, seed %Ld, budget %d"
      p.Circuit_gen.n_gates p.n_pi p.depth p.xor_pct p.seed budget
  in
  QCheck.Test.make ~count:8 ~name:"one Sat_atpg.t decides like a fresh t per fault"
    (QCheck.make ~print gen)
    (fun (profile, budget) ->
      let c = Circuit_gen.generate profile in
      let limits = { Limits.default with Limits.sat_conflicts = budget } in
      let faults = List.filteri (fun i _ -> i mod 3 = 0) (Fault.collapsed c) in
      let shared = Sat_atpg.create ~limits c in
      let was = Obs.enabled () in
      Obs.enable ();
      Fun.protect
        ~finally:(fun () -> if not was then Obs.disable ())
        (fun () ->
          List.for_all
            (fun f ->
              let got, gc, gp = run_counted shared f in
              let want, wc, wp = run_counted (Sat_atpg.create ~limits c) f in
              if got <> want || gc <> wc || gp <> wp then
                QCheck.Test.fail_reportf
                  "%s: %a (%d conflicts, %d propagations), fresh %a (%d, %d)"
                  (Fault.to_string c f) Sat_atpg.pp_outcome got gc gp Sat_atpg.pp_outcome
                  want wc wp;
              true)
            faults))

let suite =
  [
    ("solve basics", `Quick, test_solve_basics);
    ("c17 verdicts exact", `Quick, test_c17_exact);
    ("mixed verdicts exact", `Quick, test_mixed_exact);
    ("random circuits exact", `Quick, test_random_exact);
    ("D-chain: branch faults", `Quick, test_branch_faults);
    ("D-chain: output site with fanout", `Quick, test_output_site_with_fanout);
    ("D-chain: reconvergent cones", `Quick, test_reconvergent_cones);
    ("D-chain: no reachable output", `Quick, test_no_reachable_output);
    ("escalate partitions the worklist", `Quick, test_escalate_partition);
    ("removal sound with crippled PODEM", `Quick, test_remove_with_tiny_podem);
  ]

let qchecks =
  [
    qcheck_injected_redundant;
    qcheck_verdicts_exact;
    qcheck_matches_reference;
    qcheck_reuse_equals_fresh;
  ]
