(* Differential tests for the word-parallel kernels (DESIGN.md §12): every
   64-bit kernel must be bit-identical to a naive per-minterm reference, the
   bit-parallel subcircuit extractor must match the scalar one on random
   cones, and the engine must produce the same results with the
   identification cache on or off, serial or pooled. *)

open Helpers

(* Naive reference: a plain [bool array] over all minterms. *)
let random_ref rng n =
  Array.init (1 lsl n) (fun _ -> Rng.int rng 2 = 1)

let tt_of_ref n r = Truthtable.create n (fun m -> r.(m))

let check_against_ref msg n r t =
  for m = 0 to (1 lsl n) - 1 do
    if Truthtable.get t m <> r.(m) then
      Alcotest.failf "%s: minterm %d of %d-input table disagrees" msg m n
  done

(* Reference cofactor: insert the fixed bit back at position [n - i]. *)
let ref_cofactor r n i v m' =
  let p = n - i in
  let orig =
    ((m' lsr p) lsl (p + 1)) lor ((if v then 1 else 0) lsl p) lor (m' land ((1 lsl p) - 1))
  in
  r.(orig)

(* Reference permute: new variable x_(j+1) feeds old variable pi.(j). *)
let ref_permute r n pi m =
  let old_m = ref 0 in
  for j = 0 to n - 1 do
    if (m lsr (n - 1 - j)) land 1 = 1 then
      old_m := !old_m lor (1 lsl (n - pi.(j)))
  done;
  r.(!old_m)

let ref_interval r =
  let on = ref [] in
  Array.iteri (fun m v -> if v then on := m :: !on) r;
  match List.rev !on with
  | [] -> None
  | lo :: _ as ms ->
    let hi = List.nth ms (List.length ms - 1) in
    if List.length ms = hi - lo + 1 then Some (lo, hi) else None

let bit_of m n i = (m lsr (n - i)) land 1

(* Reference literal factors: the variables on which every minterm with
   value [v] agrees (all of them when there is none). *)
let ref_literal_factors r n v =
  let mask = ref 0 in
  for i = 1 to n do
    let seen = [| false; false |] in
    Array.iteri (fun m x -> if x = v then seen.(bit_of m n i) <- true) r;
    if not (seen.(0) && seen.(1)) then mask := !mask lor (1 lsl (i - 1))
  done;
  !mask

(* Reference splits: x qualifies when every pair (m, m + x_y) that falls as
   x_y rises has x = 1 and every pair that rises has x = 0 (the other way
   round when not [positive]). *)
let ref_unate_splits r n y positive =
  let mask = ref 0 in
  for x = 1 to n do
    if x <> y then begin
      let ok = ref true in
      Array.iteri
        (fun m a ->
          if bit_of m n y = 0 then begin
            let b = r.(m lor (1 lsl (n - y))) in
            let xv = bit_of m n x in
            let falls = a && not b and rises = b && not a in
            let bad_at0, bad_at1 = if positive then (falls, rises) else (rises, falls) in
            if (bad_at0 && xv = 0) || (bad_at1 && xv = 1) then ok := false
          end)
        r;
      if !ok then mask := !mask lor (1 lsl (x - 1))
    end
  done;
  !mask

let check_unate_kernels msg n r t =
  List.iter
    (fun v ->
      check int_
        (Printf.sprintf "%s: literal_factors %b" msg v)
        (ref_literal_factors r n v) (Truthtable.literal_factors t v))
    [ false; true ];
  for y = 1 to n do
    List.iter
      (fun positive ->
        check int_
          (Printf.sprintf "%s: unate_splits x%d positive=%b" msg y positive)
          (ref_unate_splits r n y positive)
          (Truthtable.unate_splits t ~var:y ~positive))
      [ false; true ]
  done

(* Exercise every kernel once against the reference for one random table. *)
let check_kernels n seed =
  let rng = Rng.create (Int64.of_int (seed + (n * 1000) + 7)) in
  let ra = random_ref rng n and rb = random_ref rng n in
  let a = tt_of_ref n ra and b = tt_of_ref n rb in
  let sz = 1 lsl n in
  check_against_ref "create/get" n ra a;
  check_against_ref "land" n (Array.init sz (fun m -> ra.(m) && rb.(m)))
    (Truthtable.land_ a b);
  check_against_ref "lor" n (Array.init sz (fun m -> ra.(m) || rb.(m)))
    (Truthtable.lor_ a b);
  check_against_ref "lxor" n (Array.init sz (fun m -> ra.(m) <> rb.(m)))
    (Truthtable.lxor_ a b);
  check_against_ref "lnot" n (Array.map not ra) (Truthtable.lnot a);
  check bool_ "equal vs ref" (ra = rb) (Truthtable.equal a b);
  check bool_ "equal reflexive" true (Truthtable.equal a (tt_of_ref n ra));
  check int_ "popcount" (Array.fold_left (fun k v -> if v then k + 1 else k) 0 ra)
    (Truthtable.popcount a);
  let ref_const =
    if Array.for_all Fun.id ra then Some true
    else if Array.for_all not ra then Some false
    else None
  in
  check bool_ "is_const" true (Truthtable.is_const a = ref_const);
  check bool_ "minterms" true
    (Truthtable.minterms a
    = List.filter (fun m -> ra.(m)) (List.init sz Fun.id));
  check bool_ "as_interval" true (Truthtable.as_interval a = ref_interval ra);
  for i = 1 to n do
    List.iter
      (fun v ->
        check_against_ref
          (Printf.sprintf "cofactor x%d=%b" i v)
          (n - 1)
          (Array.init (sz / 2) (ref_cofactor ra n i v))
          (Truthtable.cofactor a ~var:i v))
      [ false; true ]
  done;
  check_unate_kernels "random" n ra a;
  (* a scrambled interval, whose splits are rarely empty *)
  if n > 0 then begin
    let irng = Rng.create (Int64.of_int (seed + (n * 1000) + 11)) in
    let lo = Rng.int irng sz in
    let hi = lo + Rng.int irng (sz - lo) in
    let p = Array.init n (fun j -> j + 1) in
    Rng.shuffle irng p;
    let t = Truthtable.permute (Truthtable.interval n ~lo ~hi) p in
    check_unate_kernels "interval" n (Array.init sz (Truthtable.get t)) t
  end;
  let pi = Array.init n (fun j -> j + 1) in
  Rng.shuffle rng pi;
  check_against_ref "permute" n
    (Array.init sz (ref_permute ra n pi))
    (Truthtable.permute a pi);
  (* hash must respect equality (and in practice separate distinct tables) *)
  check int_ "hash stable" (Truthtable.hash a) (Truthtable.hash (tt_of_ref n ra))

let test_kernels_small_arities () =
  for n = 0 to 8 do
    for seed = 1 to 3 do
      check_kernels n seed
    done
  done

let test_kernels_multiword () =
  (* 7..16 inputs cross the one-word boundary: 2, 4, ... 1024 words. *)
  List.iter (fun n -> check_kernels n 1) [ 7; 8; 9; 10; 13; 16 ]

let test_interval_word_level () =
  (* intervals crossing word boundaries, in particular at 64-multiples *)
  List.iter
    (fun (n, lo, hi) ->
      let t = Truthtable.interval n ~lo ~hi in
      check bool_ "interval round-trip" true (Truthtable.as_interval t = Some (lo, hi));
      check int_ "interval popcount" (hi - lo + 1) (Truthtable.popcount t))
    [ (7, 0, 127); (7, 63, 64); (8, 64, 191); (10, 1, 1022); (6, 0, 0); (9, 511, 511) ]

let test_of_words_patterns () =
  (* [var] must agree with the documented sim-pattern/word layout. *)
  for n = 0 to 10 do
    for i = 1 to n do
      let p = n - i in
      let nw = if n <= 6 then 1 else 1 lsl (n - 6) in
      let words =
        Array.init nw (fun w ->
            if p < 6 then Truthtable.sim_pattern p
            else if w land (1 lsl (p - 6)) <> 0 then -1L
            else 0L)
      in
      check bool_ "var = of_words(pattern)" true
        (Truthtable.equal (Truthtable.var n i) (Truthtable.of_words n words))
    done
  done

(* --- bit-parallel extraction ---------------------------------------------- *)

let gate_roots c =
  Array.to_list (Circuit.topo_order c)
  |> List.filter (fun id ->
         match Circuit.kind c id with
         | Gate.Input | Gate.Const0 | Gate.Const1 -> false
         | _ -> true)

let test_extract_matches_scalar () =
  for seed = 1 to 8 do
    let c = random_circuit ~n_pi:6 ~n_gates:24 seed in
    let scratch = Subcircuit.scratch () in
    List.iter
      (fun root ->
        List.iter
          (fun sub ->
            let reference = Ref_subcircuit.extract_scalar c sub in
            let word = Subcircuit.extract c sub in
            let word_scratch = Subcircuit.extract ~scratch c sub in
            if not (Truthtable.equal reference word) then
              Alcotest.failf "extract mismatch (seed %d, root %d)" seed root;
            if not (Truthtable.equal reference word_scratch) then
              Alcotest.failf "extract ~scratch mismatch (seed %d, root %d)" seed root)
          (Subcircuit.enumerate ~k:6 ~max_candidates:16 c root))
      (gate_roots c)
  done

let test_extract_matches_scalar_wide_cut () =
  (* k = 9 cuts need multiple 64-minterm sweeps per candidate. *)
  for seed = 1 to 4 do
    let c = random_circuit ~n_pi:9 ~n_gates:30 seed in
    List.iter
      (fun root ->
        List.iter
          (fun sub ->
            if not (Truthtable.equal (Ref_subcircuit.extract_scalar c sub) (Subcircuit.extract c sub))
            then Alcotest.failf "wide extract mismatch (seed %d, root %d)" seed root)
          (Subcircuit.enumerate ~k:9 ~max_candidates:8 c root))
      (gate_roots c)
  done

(* One scratch serves circuits of any size: it grows on entry, so a scratch
   first fitted to c17 extracts a larger circuit's cuts exactly. *)
let test_extract_scratch_grows () =
  let scratch = Subcircuit.scratch () in
  let small = c17 () in
  let root = (Circuit.outputs small).(0) in
  List.iter
    (fun sub ->
      if
        not
          (Truthtable.equal (Ref_subcircuit.extract_scalar small sub)
             (Subcircuit.extract ~scratch small sub))
      then Alcotest.fail "c17 extract mismatch")
    (Subcircuit.enumerate ~k:2 ~max_candidates:1 small root);
  let c = random_circuit ~n_pi:8 ~n_gates:60 3 in
  check bool_ "larger than c17" true (Circuit.size c > Circuit.size small);
  List.iter
    (fun root ->
      List.iter
        (fun sub ->
          if
            not
              (Truthtable.equal (Ref_subcircuit.extract_scalar c sub)
                 (Subcircuit.extract ~scratch c sub))
          then Alcotest.failf "grown-scratch extract mismatch (root %d)" root)
        (Subcircuit.enumerate ~k:6 ~max_candidates:8 c root))
    (gate_roots c)

(* --- the engine's allocation-free kernels against their references -------- *)

(* A table of [n] variables that depends on a random subset of them only:
   a random function of the chosen variables, so the support mask has
   gaps at every arity. *)
let partial_table rng n =
  let vars = List.filter (fun _ -> Rng.bool rng) (List.init n (fun i -> i + 1)) in
  let g = random_ref rng (List.length vars) in
  Truthtable.create n (fun m ->
      let idx =
        List.fold_left
          (fun acc i -> (acc lsl 1) lor ((m lsr (n - i)) land 1))
          0 vars
      in
      g.(idx))

let check_support_mask msg t =
  let want = Ref_subcircuit.support_mask t in
  let got = Truthtable.support_mask t in
  if got <> want then
    Alcotest.failf "%s: %d-input support mask %x, reference %x" msg (Truthtable.arity t) got
      want;
  let listed = List.fold_left (fun acc i -> acc lor (1 lsl (i - 1))) 0 (Truthtable.support t) in
  if listed <> want then Alcotest.failf "%s: support list disagrees with the mask" msg;
  for i = 1 to Truthtable.arity t do
    if Truthtable.depends_on t i <> (want land (1 lsl (i - 1)) <> 0) then
      Alcotest.failf "%s: depends_on %d disagrees" msg i
  done

let test_support_mask () =
  let rng = Rng.create 0x5EL in
  for n = 0 to 16 do
    check_support_mask "const 0" (Truthtable.const n false);
    check_support_mask "const 1" (Truthtable.const n true);
    for i = 1 to n do
      check_support_mask "var" (Truthtable.var n i)
    done;
    for _ = 1 to (if n <= 10 then 20 else 3) do
      check_support_mask "random" (tt_of_ref n (random_ref rng n));
      check_support_mask "partial" (partial_table rng n)
    done
  done

(* Random cones over [n_pi] inputs and both constants, with every gate
   kind and fanins drawn from anything built so far, constants included. *)
let const_circuit ~n_pi ~n_gates seed =
  let rng = Rng.create (Int64.of_int seed) in
  let c = Circuit.create () in
  let pool = ref [ Circuit.add_const c false; Circuit.add_const c true ] in
  for _ = 1 to n_pi do
    pool := Circuit.add_input c :: !pool
  done;
  let kinds =
    [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not; Gate.Buf |]
  in
  let last = ref 0 in
  for _ = 1 to n_gates do
    let nodes = Array.of_list !pool in
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let arity = match kind with Gate.Not | Gate.Buf -> 1 | _ -> 2 + Rng.int rng 2 in
    (* favour recent nodes, so cones grow deep and cuts wide *)
    let pick () =
      let k = Array.length nodes in
      nodes.(if Rng.bool rng then Rng.int rng (min k 12) else Rng.int rng k)
    in
    last := Circuit.add_gate c kind (Array.init arity (fun _ -> pick ()));
    pool := !last :: !pool
  done;
  Circuit.mark_output c !last;
  c

(* Extract random cones of a constant-laden circuit and hold them to the
   scalar reference: every enumerated cut up to 16 inputs, and each gate's
   whole cone down to the primary inputs it reads (one cut of up to 20
   inputs, kept when it has 1 to 16). The widest cuts are sampled, since
   the reference evaluates each of their 65,536 minterms on its own.
   Returns how many cuts of each width were checked. *)
let check_extract_widths ?(seen = Array.make 17 0) seed =
  let c = const_circuit ~n_pi:20 ~n_gates:90 seed in
  let scratch = Subcircuit.scratch () in
  let check (sub : Subcircuit.t) =
    let n = Array.length sub.inputs in
    if n >= 1 && n <= 16 && seen.(n) < (if n >= 12 then 1 else 40) then begin
      seen.(n) <- seen.(n) + 1;
      if
        not
          (Truthtable.equal (Ref_subcircuit.extract_scalar c sub)
             (Subcircuit.extract ~scratch c sub))
      then Alcotest.failf "extract mismatch (seed %d, root %d, %d inputs)" seed sub.root n
    end
  in
  let primary_inputs root =
    let seen = Hashtbl.create 16 and pis = ref [] in
    let rec visit id =
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        match Circuit.kind c id with
        | Gate.Input -> pis := id :: !pis
        | _ -> Array.iter visit (Circuit.fanins c id)
      end
    in
    visit root;
    Array.of_list (List.sort Int.compare !pis)
  in
  List.iter
    (fun root ->
      List.iter check (Subcircuit.enumerate ~k:16 ~max_candidates:16 c root);
      check (Subcircuit.of_cut c ~root ~inputs:(primary_inputs root)))
    (gate_roots c);
  seen

let test_extract_all_widths () =
  let seen = Array.make 17 0 in
  for seed = 1 to 6 do
    ignore (check_extract_widths ~seen seed)
  done;
  for n = 1 to 16 do
    if seen.(n) = 0 then Alcotest.failf "no %d-input cut was checked" n
  done

(* The marker-based removable-gate count against the [Set]-based one, on
   cuts whose members include primary outputs and gates read from outside
   the cut. *)
let check_removable seed =
  let c = random_circuit ~n_pi:7 ~n_gates:40 ~n_po:4 seed in
  let rng = Rng.create (Int64.of_int seed) in
  Array.iter (fun id -> if Rng.int rng 5 = 0 then Circuit.mark_output c id) (Circuit.topo_order c);
  let scratch = Subcircuit.scratch () in
  List.for_all
    (fun root ->
      List.for_all
        (fun sub ->
          Subcircuit.removable_cost ~scratch c sub = Ref_subcircuit.removable_cost c sub
          && Subcircuit.removable_gates ~scratch c sub = Ref_subcircuit.removable_gates c sub)
        (Subcircuit.enumerate ~k:6 ~max_candidates:16 c root))
    (gate_roots c)

let test_removable_matches_reference () =
  for seed = 1 to 12 do
    if not (check_removable seed) then Alcotest.failf "removable mismatch (seed %d)" seed
  done

(* [Subcircuit.of_cut] rebuilds every enumerated candidate from its root
   and cut alone. *)
let test_of_cut_rebuilds_candidates () =
  for seed = 1 to 8 do
    let c = const_circuit ~n_pi:8 ~n_gates:40 seed in
    let scratch = Subcircuit.scratch () in
    List.iter
      (fun root ->
        List.iter
          (fun (sub : Subcircuit.t) ->
            let again = Subcircuit.of_cut ~scratch c ~root ~inputs:sub.inputs in
            if again.gates <> sub.gates then
              Alcotest.failf "of_cut members differ (seed %d, root %d)" seed root)
          (Subcircuit.enumerate ~k:6 ~max_candidates:16 c root))
      (gate_roots c)
  done

(* --- engine determinism with the identification cache ---------------------- *)

let optimize_fingerprint optimize c =
  let c = Circuit.copy c in
  let stats = optimize Engine.Gates Engine.default_options c in
  (stats, Bench_format.to_string c)

(* The production walk replays cached verdicts; the reference walk
   identifies every cut afresh. *)
let test_engine_cache_invariance () =
  for seed = 1 to 4 do
    let c = random_circuit ~n_pi:6 ~n_gates:30 seed in
    if
      optimize_fingerprint Engine.optimize c
      <> optimize_fingerprint Engine.optimize_reference c
    then Alcotest.failf "cached engine diverges from the uncached reference (seed %d)" seed
  done

(* --- qcheck properties ----------------------------------------------------- *)

let arb_seed = QCheck.int_range 1 1_000_000

let prop_kernels_match_reference =
  QCheck.Test.make ~name:"word kernels match per-minterm reference" ~count:60
    (QCheck.pair (QCheck.int_range 0 10) arb_seed)
    (fun (n, seed) ->
      check_kernels n seed;
      true)

let prop_extract_matches_scalar =
  QCheck.Test.make ~name:"bit-parallel extract matches scalar on random cones" ~count:40
    arb_seed
    (fun seed ->
      let c = random_circuit ~n_pi:7 ~n_gates:20 seed in
      List.for_all
        (fun root ->
          List.for_all
            (fun sub ->
              Truthtable.equal (Ref_subcircuit.extract_scalar c sub) (Subcircuit.extract c sub))
            (Subcircuit.enumerate ~k:7 ~max_candidates:6 c root))
        (gate_roots c))

let prop_extract_all_widths =
  QCheck.Test.make ~name:"extract matches scalar, 1- to 16-input cuts with constants"
    ~count:2 arb_seed (fun seed ->
      ignore (check_extract_widths seed);
      true)

let prop_removable_matches_reference =
  QCheck.Test.make ~name:"marker removable_cost matches the Set version" ~count:40 arb_seed
    check_removable

let prop_compare_consistent =
  QCheck.Test.make ~name:"compare is a total order consistent with equal" ~count:100
    (QCheck.triple (QCheck.int_range 0 9) arb_seed arb_seed)
    (fun (n, s1, s2) ->
      let a = tt_of_ref n (random_ref (Rng.create (Int64.of_int s1)) n) in
      let b = tt_of_ref n (random_ref (Rng.create (Int64.of_int s2)) n) in
      let c = Truthtable.compare a b in
      (c = 0) = Truthtable.equal a b
      && Truthtable.compare b a = -c
      && Truthtable.compare a a = 0)

let suite =
  [
    Alcotest.test_case "kernels vs reference, arities 0-8" `Quick test_kernels_small_arities;
    Alcotest.test_case "kernels vs reference, multi-word arities" `Quick test_kernels_multiword;
    Alcotest.test_case "interval across word boundaries" `Quick test_interval_word_level;
    Alcotest.test_case "var agrees with of_words patterns" `Quick test_of_words_patterns;
    Alcotest.test_case "extract matches scalar (k=6)" `Quick test_extract_matches_scalar;
    Alcotest.test_case "extract matches scalar (k=9, multi-word)" `Quick
      test_extract_matches_scalar_wide_cut;
    Alcotest.test_case "extract grows an undersized scratch" `Quick test_extract_scratch_grows;
    Alcotest.test_case "engine invariant under cache" `Slow test_engine_cache_invariance;
    Alcotest.test_case "support mask vs cofactors, arities 0-16" `Quick test_support_mask;
    Alcotest.test_case "extract matches scalar, widths 1-16" `Quick test_extract_all_widths;
    Alcotest.test_case "removable_cost matches the Set version" `Quick
      test_removable_matches_reference;
    Alcotest.test_case "of_cut rebuilds enumerated members" `Quick
      test_of_cut_rebuilds_candidates;
  ]

let qchecks =
  [
    prop_kernels_match_reference;
    prop_extract_matches_scalar;
    prop_compare_consistent;
    prop_extract_all_widths;
    prop_removable_matches_reference;
  ]
