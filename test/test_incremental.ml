(* Incremental resynthesis (DESIGN.md §13, §17): dirty-region tracking,
   the ordered worklist and the pool work-size cutoff. The load-bearing
   property is bit-identity — the production engine must reproduce the
   reference full walk ([Engine.optimize_reference]) exactly, for every
   configuration. *)

open Helpers

(* --- Footprint ------------------------------------------------------------- *)

let test_footprint_set () =
  let s = Footprint.create 1 in
  check int_ "empty" 0 (Footprint.count s);
  check bool_ "no member" false (Footprint.mem s 0);
  Footprint.add s 0;
  Footprint.add s 100 (* forces growth *);
  Footprint.add s 100;
  check int_ "two members" 2 (Footprint.count s);
  check bool_ "grown member" true (Footprint.mem s 100);
  check bool_ "out of range" false (Footprint.mem s 101);
  check bool_ "negative" false (Footprint.mem s (-1));
  Footprint.remove s 100;
  Footprint.remove s 100;
  check int_ "after remove" 1 (Footprint.count s);
  let all = Footprint.create ~all:true 4 in
  check int_ "all-dirty" 4 (Footprint.count all);
  check bool_ "all member" true (Footprint.mem all 3)

let test_footprint_cone () =
  (* mixed(): nb = NOT b feeds x1 and x2; x3 = XOR(x1, x2). The fanout cone
     of nb is {nb, x1, x2, x3}; the inputs a, b, d stay clean. *)
  let c = mixed () in
  let order = Circuit.topo_order c in
  let nb = order.(3) in
  let s = Footprint.create (Circuit.size c) in
  let added = Footprint.mark_fanout_cone c s [ nb ] in
  check int_ "cone size" 4 added;
  check int_ "count agrees" 4 (Footprint.count s);
  check bool_ "nb dirty" true (Footprint.mem s nb);
  Array.iteri
    (fun i id ->
      if i < 3 then check bool_ "input clean" false (Footprint.mem s id))
    order;
  (* re-marking from inside the cone adds nothing new *)
  check int_ "idempotent" 0 (Footprint.mark_fanout_cone c s [ order.(4) ]);
  (* a fresh seed outside the cone adds just itself (inputs have their
     whole fanout already dirty here) *)
  check int_ "input seed" 1 (Footprint.mark_fanout_cone c s [ order.(1) ])

let test_footprint_setops () =
  (* clear keeps the backing store but empties the membership *)
  let s = Footprint.create 4 in
  Footprint.add s 2;
  Footprint.add s 9;
  Footprint.clear s;
  check int_ "cleared" 0 (Footprint.count s);
  check bool_ "cleared member" false (Footprint.mem s 2);
  Footprint.add s 9;
  check int_ "reusable after clear" 1 (Footprint.count s);
  check bool_ "grown past the old store" true (Footprint.mem s 9)

(* --- Worklist ordering ------------------------------------------------------- *)

(* Emulate the engine's contract: a popped root is processed, i.e. removed
   from the dirty set; un-popped ids stay dirty for the next rebuild. *)
let drain wl =
  let rec go acc =
    match Footprint.Worklist.pop wl with
    | None -> List.rev acc
    | Some id ->
      Footprint.remove (Footprint.Worklist.fp wl) id;
      go (id :: acc)
  in
  go []

let test_worklist_ordering () =
  (* all-dirty seed pops in descending topological position *)
  let wl = Footprint.Worklist.create ~all:true 4 in
  Footprint.Worklist.start_pass wl ~pos:[| 0; 1; 2; 3 |];
  check (Alcotest.list int_) "descending" [ 3; 2; 1; 0 ] (drain wl);
  (* ...of the *position*, not the id: a permuted table reorders pops *)
  let wl = Footprint.Worklist.create ~all:true 4 in
  Footprint.Worklist.start_pass wl ~pos:[| 3; 2; 1; 0 |];
  check (Alcotest.list int_) "by position" [ 0; 1; 2; 3 ] (drain wl)

let test_worklist_cursor () =
  (* The sweep-cascade boundary case: a splice at the cursor re-dirties an
     upstream root (smaller position), which the same pass must still
     reach; a downstream push (larger position) waits for the next pass. *)
  let wl = Footprint.Worklist.create 8 in
  let pos = Array.init 8 (fun i -> i) in
  Footprint.Worklist.push wl 6;
  Footprint.Worklist.start_pass wl ~pos;
  check (Alcotest.option int_) "first pop" (Some 6) (Footprint.Worklist.pop wl);
  Footprint.remove (Footprint.Worklist.fp wl) 6;
  Footprint.Worklist.push wl 2 (* upstream: re-enqueued into this pass *);
  Footprint.Worklist.push wl 2 (* duplicate push is absorbed *);
  Footprint.Worklist.push wl 7 (* downstream: deferred *);
  check (Alcotest.list int_) "upstream reached once" [ 2 ] (drain wl);
  check bool_ "deferred id still dirty" true
    (Footprint.mem (Footprint.Worklist.fp wl) 7);
  Footprint.Worklist.start_pass wl ~pos;
  check (Alcotest.list int_) "next pass picks deferral" [ 7 ] (drain wl);
  (* an id dirtied mid-pass with no position (freshly spliced) also waits *)
  let wl = Footprint.Worklist.create 4 in
  Footprint.Worklist.push wl 3;
  Footprint.Worklist.start_pass wl ~pos:(Array.init 4 (fun i -> i));
  check (Alcotest.option int_) "pop placed" (Some 3) (Footprint.Worklist.pop wl);
  Footprint.remove (Footprint.Worklist.fp wl) 3;
  Footprint.Worklist.push wl 9 (* beyond the position table *);
  check bool_ "unplaced id deferred" true (Footprint.Worklist.pop wl = None);
  Footprint.Worklist.start_pass wl ~pos:(Array.init 10 (fun i -> i));
  check (Alcotest.list int_) "placed next pass" [ 9 ] (drain wl)

(* --- Pool work-size cutoff -------------------------------------------------- *)

let test_pool_serial_cutoff () =
  Pool.with_pool ~domains:4 (fun pool ->
      let caller = Domain.self () in
      let on_caller =
        Pool.map pool ~serial_below:1000 (fun _ -> Domain.self () = caller)
          (Array.make 100 ())
      in
      check bool_ "below cutoff stays on the calling domain" true
        (Array.for_all Fun.id on_caller);
      let input = Array.init 257 (fun i -> i) in
      let expect = Array.map (fun x -> x * 3) input in
      check bool_ "map below cutoff" true
        (Pool.map pool ~serial_below:1000 (fun x -> x * 3) input = expect);
      check bool_ "map above cutoff" true
        (Pool.map pool ~serial_below:10 (fun x -> x * 3) input = expect);
      check bool_ "map at boundary" true
        (Pool.map pool ~serial_below:257 (fun x -> x * 3) input = expect))

(* --- Bit-identity: production = reference full walk ------------------------ *)

let fingerprint ?(reference = false) objective options c0 =
  let c = Circuit.copy c0 in
  let stats =
    if reference then Engine.optimize_reference objective options c
    else
      match objective with
      | Engine.Gates -> Procedure2.run ~options c
      | Engine.Paths -> Procedure3.run ~options c
  in
  Check.validate c;
  (stats, Bench_format.to_string c)

let base =
  { Engine.default_options with Engine.k = 4; max_candidates = 16; max_passes = 8 }

(* Does the production walk (worklist, identification cache) differ from
   the uncached reference walk? *)
let diverges objective c =
  fingerprint objective base c <> fingerprint ~reference:true objective base c

let identical_on objective c seed =
  if diverges objective c then
    Alcotest.failf "seed %d: production diverged from the reference walk" seed

let test_incremental_identity_gates () =
  identical_on Engine.Gates (c17 ()) 0;
  for seed = 120 to 130 do
    identical_on Engine.Gates (random_circuit ~n_pi:6 ~n_gates:40 ~n_po:4 seed) seed
  done

let test_incremental_identity_paths () =
  for seed = 131 to 138 do
    identical_on Engine.Paths (random_circuit ~n_pi:6 ~n_gates:40 ~n_po:4 seed) seed
  done

let test_incremental_identity_extensions () =
  (* don't-cares and multi-unit covers exercise the per-candidate rng and
     the care-set verification path *)
  let ext = { base with Engine.use_dontcares = true; max_units = 2 } in
  for seed = 140 to 144 do
    let c = random_circuit ~n_pi:6 ~n_gates:32 ~n_po:4 seed in
    let want = fingerprint ~reference:true Engine.Gates ext c in
    let got = fingerprint Engine.Gates ext c in
    if got <> want then
      Alcotest.failf "seed %d: incremental extensions diverged" seed
  done

let test_incremental_equivalence () =
  (* The optimised circuit must stay functionally equal to the original
     under the default options. *)
  for seed = 150 to 156 do
    let c = random_circuit ~n_pi:6 ~n_gates:36 ~n_po:4 seed in
    let reference = Circuit.copy c in
    ignore (Procedure2.run ~options:base c);
    Check.validate c;
    if not (Eval.equivalent_exhaustive reference c) then
      Alcotest.failf "seed %d: incremental engine broke the function" seed
  done

let test_incremental_skips_clean_roots () =
  (* A multi-pass run must actually skip work: the production walk pops
     only dirty roots (well below a full visit per pass), so it enumerates
     fewer candidates than the reference walk, which re-evaluates every
     marked root on every pass. *)
  let candidates = Obs.Counter.make "engine.candidates" in
  let popped = Obs.Counter.make "engine.worklist_popped" in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let c = random_circuit ~n_pi:8 ~n_gates:120 ~n_po:6 160 in
      let p0 = Obs.Counter.value popped in
      let c0 = Obs.Counter.value candidates in
      let stats = Procedure2.run ~options:base c in
      let pops = Obs.Counter.value popped - p0 in
      let production = Obs.Counter.value candidates - c0 in
      check bool_ "worklist popped dirty roots" true (pops > 0);
      check bool_ "worklist pops below full visits" true
        (pops < stats.Engine.passes * Circuit.size c);
      let c2 = random_circuit ~n_pi:8 ~n_gates:120 ~n_po:6 160 in
      let c1 = Obs.Counter.value candidates in
      let rstats = Engine.optimize_reference Engine.Gates base c2 in
      let reference = Obs.Counter.value candidates - c1 in
      check int_ "same number of passes" stats.Engine.passes rstats.Engine.passes;
      check bool_ "the circuit needs more than one pass" true
        (stats.Engine.passes > 1);
      check bool_ "reference enumerates more than production" true
        (reference > production))

(* Sweep-cascade regression: [Replace.splice] ends in a sweep that can kill
   nodes upstream of the cut (a cut input left without consumers dies, then
   its fanins lose a consumer, ...). Survivors on that boundary change
   fanout degree, which removability accounting reads, so roots downstream
   of them must be re-dirtied when the splice lands. These seeds all
   diverged (the reference found more replacements than the production
   walk) before the engine marked the sweep boundary. *)
let test_sweep_cascade_boundary () =
  List.iter
    (fun seed ->
      let profile =
        {
          Circuit_gen.name = "incr";
          n_pi = 10;
          n_po = 6;
          n_gates = 70;
          depth = 8;
          combine_pct = 25;
          xor_pct = 5;
          seed = Int64.of_int seed;
        }
      in
      let c = Circuit_gen.generate profile in
      if diverges Engine.Gates c then
        Alcotest.failf "seed %d: production missed a swept-boundary region" seed)
    [ 83418; 83420; 83490; 83566 ]

(* --- qcheck: identity over generated circuits -------------------------------- *)

let gen_profile seed =
  {
    Circuit_gen.name = "incr";
    n_pi = 10;
    n_po = 6;
    n_gates = 70;
    depth = 8;
    combine_pct = 25;
    xor_pct = 5;
    seed = Int64.of_int seed;
  }

(* Refused splices: the CEC guard rolls back a splice corrupted through
   [Engine.Test_hooks.optimize_unsound] at the walk position where it was
   chosen, in both walks, so the production walk stays bit-identical to
   the reference on refusing runs too. Each pinned (seed, nth, objective)
   diverged while the production walk landed its splices in deferred
   groups, refusing them after the walk had moved on. *)
let test_refused_splice_identity () =
  let options = Engine.default_options in
  List.iter
    (fun (seed, nth, objective) ->
      let c0 = Circuit_gen.generate (gen_profile seed) in
      let run reference =
        let c = Circuit.copy c0 in
        let stats =
          Engine.Test_hooks.optimize_unsound ~reference ~nth objective options c
        in
        Check.validate c;
        (stats, Bench_format.to_string c)
      in
      let ((stats, _) as want) = run true in
      if stats.Engine.verify_refused = 0 then
        Alcotest.failf "seed %d, nth %d: no splice was refused" seed nth;
      if run false <> want then
        Alcotest.failf
          "seed %d, nth %d: production diverged from the reference after a refusal"
          seed nth)
    [
      (20, 5, Engine.Gates);
      (20, 5, Engine.Paths);
      (44, 5, Engine.Gates);
      (60, 5, Engine.Paths);
      (70, 3, Engine.Paths);
      (75, 5, Engine.Paths);
      (89, 5, Engine.Gates);
      (89, 5, Engine.Paths);
      (96, 5, Engine.Paths);
      (97, 5, Engine.Gates);
      (97, 5, Engine.Paths);
    ]

let prop_identity objective ~name =
  QCheck.Test.make ~name ~count:20 (QCheck.int_range 1 100_000) (fun seed ->
      not (diverges objective (Circuit_gen.generate (gen_profile seed))))

let prop_incremental_identity =
  prop_identity Engine.Gates ~name:"incremental = full (circuit_gen)"

let prop_incremental_identity_paths =
  prop_identity Engine.Paths ~name:"incremental = full, paths (circuit_gen)"

let suite =
  [
    ("footprint: set operations", `Quick, test_footprint_set);
    ("footprint: clear keeps the store", `Quick, test_footprint_setops);
    ("footprint: fanout cone marking", `Quick, test_footprint_cone);
    ("worklist: topological pop order", `Quick, test_worklist_ordering);
    ("worklist: cursor and deferral", `Quick, test_worklist_cursor);
    ("pool: work-size cutoff", `Quick, test_pool_serial_cutoff);
    ("identity: gates objective", `Quick, test_incremental_identity_gates);
    ("identity: paths objective", `Quick, test_incremental_identity_paths);
    ("identity: don't-cares and multi-unit", `Quick, test_incremental_identity_extensions);
    ("equivalence under default options", `Quick, test_incremental_equivalence);
    ("second pass skips clean roots", `Quick, test_incremental_skips_clean_roots);
    ("sweep-cascade boundary re-dirtied", `Quick, test_sweep_cascade_boundary);
    ("identity: refused splices", `Quick, test_refused_splice_identity);
  ]

let qchecks = [ prop_incremental_identity; prop_incremental_identity_paths ]
