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
    let scratch = Array.make (Circuit.size c) 0L in
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

let test_extract_scratch_too_small () =
  let c = c17 () in
  let root = (Circuit.outputs c).(0) in
  match Subcircuit.enumerate ~k:2 ~max_candidates:1 c root with
  | sub :: _ ->
    Alcotest.check_raises "undersized scratch rejected"
      (Invalid_argument "Subcircuit.extract: scratch smaller than the circuit")
      (fun () -> ignore (Subcircuit.extract ~scratch:(Array.make 1 0L) c sub))
  | [] -> Alcotest.fail "no candidate"

(* --- engine determinism with the identification cache ---------------------- *)

let optimize_fingerprint options c =
  let c = Circuit.copy c in
  let stats = Engine.optimize Engine.Gates options c in
  ( stats.Engine.passes,
    stats.Engine.replacements,
    stats.Engine.gates_after,
    stats.Engine.paths_after,
    Bench_format.to_string c )

let test_engine_cache_invariance () =
  for seed = 1 to 4 do
    let c = random_circuit ~n_pi:6 ~n_gates:30 seed in
    let base = Engine.default_options in
    let reference = optimize_fingerprint { base with Engine.id_cache = false; domains = 1 } c in
    List.iter
      (fun (label, options) ->
        if optimize_fingerprint options c <> reference then
          Alcotest.failf "engine diverges under %s (seed %d)" label seed)
      [
        ("cache on, serial", { base with Engine.id_cache = true; domains = 1 });
        ("cache on, pooled", { base with Engine.id_cache = true; domains = 2 });
        ("cache off, pooled", { base with Engine.id_cache = false; domains = 2 });
      ]
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
    Alcotest.test_case "extract rejects undersized scratch" `Quick test_extract_scratch_too_small;
    Alcotest.test_case "engine invariant under cache/domains" `Slow test_engine_cache_invariance;
  ]

let qchecks =
  [ prop_kernels_match_reference; prop_extract_matches_scalar; prop_compare_consistent ]
