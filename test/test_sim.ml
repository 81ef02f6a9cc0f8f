open Helpers

let test_eval_c17 () =
  let c = c17 () in
  (* G22 = NAND(G10, G16); all-zero inputs: G10=1, G11=1, G16=1, G19=1,
     G22 = NAND(1,1)=0, G23=0. *)
  let outs = Eval.run c [| false; false; false; false; false |] in
  check bool_ "G22" false outs.(0);
  check bool_ "G23" false outs.(1)

let test_output_table_matches_eval () =
  let c = mixed () in
  let t0 = Eval.output_table c 0 in
  for m = 0 to 7 do
    let inputs = Array.init 3 (fun j -> m land (1 lsl (2 - j)) <> 0) in
    check bool_
      (Printf.sprintf "minterm %d" m)
      (Eval.run c inputs).(0)
      (Truthtable.get t0 m)
  done

let test_word_sim_matches_scalar () =
  for seed = 1 to 10 do
    let c = random_circuit ~n_pi:6 ~n_gates:30 seed in
    let cmp = Compiled.of_circuit c in
    let rng = Rng.create (Int64.of_int (seed * 7)) in
    let words = Array.init 6 (fun _ -> Rng.next64 rng) in
    let values = Bytes.make (8 * Compiled.size cmp) '\000' in
    Compiled.simulate_into cmp words values;
    (* compare 8 of the 64 slots against scalar evaluation *)
    for slot = 0 to 7 do
      let inputs =
        Array.map
          (fun w -> Int64.logand (Int64.shift_right_logical w slot) 1L = 1L)
          words
      in
      let scalar = Eval.run c inputs in
      Array.iteri
        (fun k o ->
          let parallel =
            Int64.logand (Int64.shift_right_logical (Bytes.get_int64_ne values (8 * o)) slot) 1L
            = 1L
          in
          check bool_ (Printf.sprintf "seed %d slot %d out %d" seed slot k)
            scalar.(k) parallel)
        (Circuit.outputs c)
    done
  done

let test_equivalence_checks () =
  let c = c17 () in
  let c2 = Bench_format.of_string (Bench_format.to_string c) in
  check bool_ "exhaustive equal" true (Eval.equivalent_exhaustive c c2);
  check bool_ "random equal" true (Eval.equivalent_random ~seed:1L c c2);
  (* flip one gate kind *)
  let c3 = Circuit.copy c in
  let order = Circuit.topo_order c3 in
  let g = order.(Array.length order - 1) in
  Circuit.set_kind c3 g Gate.And;
  check bool_ "exhaustive differ" false (Eval.equivalent_exhaustive c c3);
  check bool_ "random differ" false (Eval.equivalent_random ~seed:1L c c3)

let test_rng_determinism () =
  let a = Rng.create 99L and b = Rng.create 99L in
  for _ = 1 to 100 do
    check bool_ "same stream" true (Rng.next64 a = Rng.next64 b)
  done;
  let xs = Array.init 1000 (fun _ -> Rng.int a 10) in
  Array.iter (fun x -> check bool_ "in range" true (x >= 0 && x < 10)) xs

(* The splitmix64 stream is pinned: the first three draws of four seeds, as
   the generator produced them when its state was a mutable [int64] field.
   Every seeded experiment depends on these values. *)
let test_rng_stream () =
  List.iter
    (fun (seed, want) ->
      let r = Rng.create seed in
      List.iter
        (fun w -> check Alcotest.int64 (Printf.sprintf "seed %Ld" seed) w (Rng.next64 r))
        want)
    [
      (0L, [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ]);
      (1L, [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL ]);
      (17L, [ 0x808475f02ee37363L; 0x6434ff62b4e8edd1L; 0x540d6c3702d41b8cL ]);
      (-1L, [ 0xe4d971771b652c20L; 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L ]);
    ]

let suite =
  [
    ("c17 single-pattern", `Quick, test_eval_c17);
    ("output_table matches eval", `Quick, test_output_table_matches_eval);
    ("64-way word sim matches scalar", `Quick, test_word_sim_matches_scalar);
    ("equivalence checkers", `Quick, test_equivalence_checks);
    ("rng determinism", `Quick, test_rng_determinism);
    ("rng stream is pinned", `Quick, test_rng_stream);
  ]
