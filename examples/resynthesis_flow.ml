(* Resynthesis flow: Procedure 2 (gate reduction) and Procedure 3 (path
   reduction) on a synthetic multi-level circuit, with equivalence checking
   and technology mapping before and after — the full flow behind Tables 2,
   4 and 5 of the paper, at toy scale so it runs in seconds.

   Run with: dune exec examples/resynthesis_flow.exe *)

let profile =
  {
    Circuit_gen.name = "demo";
    n_pi = 40;
    n_po = 30;
    n_gates = 260;
    depth = 14;
    combine_pct = 25;
    xor_pct = 4;
    seed = 2024L;
  }

let describe label c =
  Printf.printf "%-22s gates(2-inp) %4d   paths %7s   depth %2d\n" label
    (Circuit.two_input_gate_count c)
    (Table.int (Paths.total c))
    (Levelize.depth_logic c)

let () =
  (* 1. prepare an irredundant starting point, as the paper does with [15] *)
  let raw = Circuit_gen.generate profile in
  let c0, report = Redundancy.make_irredundant ~seed:7L raw in
  Format.printf "preparation: %a@." Redundancy.pp_report report;
  describe "original (irredundant)" c0;

  (* 2. Procedure 2: minimise gates, tie-break on paths *)
  let p2 = Circuit.copy c0 in
  let stats2 = Procedure2.run p2 in
  describe "after Procedure 2" p2;
  Format.printf "  %a@." Engine.pp_stats stats2;

  (* 3. Procedure 3: minimise paths (gates may grow) *)
  let p3 = Circuit.copy c0 in
  let stats3 = Procedure3.run p3 in
  describe "after Procedure 3" p3;
  Format.printf "  %a@." Engine.pp_stats stats3;

  (* 4. both results must implement the original function. Every splice was
     already verified exhaustively against its subcircuit; the global check
     here is a SAT miter proof per output (Cec, DESIGN.md §10). *)
  let check label c =
    match Cec.check c0 c with
    | Cec.Equivalent -> Printf.printf "  equivalence %s: proved\n" label
    | Cec.Unknown budget ->
      Printf.printf "  equivalence %s: unknown (%d-conflict budget exhausted)\n" label
        budget
    | Cec.Counterexample _ -> failwith ("equivalence broken: " ^ label)
  in
  check "P2" p2;
  check "P3" p3;

  (* 5. technology mapping (Table 4): literals and cell depth *)
  let m0 = Mapper.map c0 and m2 = Mapper.map p2 in
  Printf.printf "technology mapping:  original %d literals / depth %d,  Proc.2 %d literals / depth %d\n"
    m0.Mapper.literals m0.Mapper.longest m2.Mapper.literals m2.Mapper.longest;

  (* 6. any redundancy introduced by Procedure 2 is removed again, as in the
     paper's red.rem columns *)
  let rr = Redundancy.remove ~seed:11L p2 in
  Format.printf "post-P2 redundancy removal: %a@." Redundancy.pp_report rr;
  describe "P2 + red. removal" p2
