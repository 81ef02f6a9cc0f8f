(* The sft.parallel pool and the serial/parallel bit-identity guarantees of
   the fault campaign, the PDF campaign and the resynthesis engine. *)

open Helpers

(* --- pool primitives ------------------------------------------------------- *)

let test_pool_map_ordered () =
  Pool.with_pool ~domains:4 (fun pool ->
      check int_ "four domains" 4 (Pool.domains pool);
      let input = Array.init 1000 (fun i -> i) in
      let got = Pool.map pool (fun x -> x * x) input in
      check bool_ "ordered map" true (got = Array.map (fun x -> x * x) input);
      (* reuse across submissions, odd sizes, chunk boundaries *)
      let got = Pool.map pool ~chunk:7 (fun x -> x - 1) (Array.init 13 (fun i -> i)) in
      check bool_ "second submission" true (got = Array.init 13 (fun i -> i - 1));
      check bool_ "empty input" true (Pool.map pool (fun x -> x) [||] = [||]));
  Pool.with_pool ~domains:1 (fun pool ->
      check int_ "serial pool" 1 (Pool.domains pool);
      let got = Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      check bool_ "serial pool map" true (got = [| 2; 3; 4 |]))

let test_pool_map_chunks_state () =
  Pool.with_pool ~domains:3 (fun pool ->
      let input = Array.init 257 (fun i -> i) in
      let got =
        Pool.map_chunks pool ~chunk:8
          ~state:(fun _slot -> Buffer.create 16)
          ~f:(fun buf _i x ->
            Buffer.clear buf;
            Buffer.add_string buf (string_of_int (x * 2));
            int_of_string (Buffer.contents buf))
          input
      in
      check bool_ "per-slot scratch state" true
        (got = Array.map (fun x -> x * 2) input))

exception Boom

let test_pool_exception_propagates () =
  Pool.with_pool ~domains:4 (fun pool ->
      (match
         Pool.map pool
           (fun x -> if x = 37 then raise Boom else x)
           (Array.init 100 (fun i -> i))
       with
      | exception Boom -> ()
      | _ -> Alcotest.fail "expected Boom to propagate");
      (* the pool survives a failed submission *)
      let got = Pool.map pool (fun x -> x + 1) [| 1; 2 |] in
      check bool_ "pool usable after failure" true (got = [| 2; 3 |]))

let test_pool_domain_limit () =
  (* Refused before anything is spawned: past the runtime's limit the
     spawn itself fails, with the workers before it already running. *)
  match Pool.create ~domains:(Pool.max_domains + 1) () with
  | exception Invalid_argument _ -> ()
  | pool ->
    Pool.shutdown pool;
    Alcotest.fail "a pool above Pool.max_domains was created"

let test_lowest_bit () =
  let reference mask =
    let rec go i =
      if Int64.logand (Int64.shift_right_logical mask i) 1L = 1L then i
      else go (i + 1)
    in
    go 0
  in
  for i = 0 to 63 do
    check int_ "single bit" i (Campaign.lowest_bit (Int64.shift_left 1L i))
  done;
  let rng = Rng.create 5L in
  for _ = 1 to 1000 do
    let m = Rng.next64 rng in
    if m <> 0L then check int_ "random mask" (reference m) (Campaign.lowest_bit m)
  done

(* --- serial vs parallel bit-identity --------------------------------------- *)

let campaign_eq ?(max_patterns = 256) ~seed c =
  let cfg d = { Campaign.default with max_patterns; domains = d; seed } in
  let r1 = Campaign.exec (cfg 1) c in
  let r4 = Campaign.exec (cfg 4) c in
  r1 = r4
  && Campaign.survivors (cfg 1) c = Campaign.survivors (cfg 4) c

let test_campaign_parallel_identity () =
  check bool_ "c17" true (campaign_eq ~seed:11L (c17 ()));
  check bool_ "mixed" true (campaign_eq ~seed:12L (mixed ()));
  for seed = 1 to 6 do
    let c = random_circuit ~n_pi:8 ~n_gates:40 ~n_po:4 seed in
    if not (campaign_eq ~seed:(Int64.of_int (100 + seed)) c) then
      Alcotest.failf "seed %d: parallel campaign diverged from serial" seed
  done

let test_campaign_parallel_bench_files () =
  (* Bundled .bench circuits, when prepared on this machine (same
     convention as test_benchmarks.ml: vacuous otherwise). *)
  match List.filter Benchmarks.cached Benchmarks.all with
  | [] -> ()
  | e :: _ ->
    let c = Benchmarks.build e in
    check bool_ (e.Benchmarks.name ^ " campaign identical") true
      (campaign_eq ~max_patterns:128 ~seed:101L c)

let pdf_eq ~seed c =
  let cfg d =
    { Pdf_campaign.max_pairs = 400; stop_window = 80; domains = d; seed }
  in
  Pdf_campaign.exec (cfg 1) c = Pdf_campaign.exec (cfg 4) c

let test_pdf_parallel_identity () =
  check bool_ "c17" true (pdf_eq ~seed:21L (c17 ()));
  check bool_ "mixed" true (pdf_eq ~seed:22L (mixed ()));
  for seed = 40 to 44 do
    let c = random_circuit ~n_pi:6 ~n_gates:24 ~n_po:3 seed in
    if not (pdf_eq ~seed:(Int64.of_int (200 + seed)) c) then
      Alcotest.failf "seed %d: parallel PDF campaign diverged from serial" seed
  done

let engine_eq ~objective ~options c =
  let a = Circuit.copy c and b = Circuit.copy c in
  let run options c =
    match objective with
    | Engine.Gates -> Procedure2.run ~options c
    | Engine.Paths -> Procedure3.run ~options c
  in
  let sa = run { options with Engine.domains = 1 } a in
  let sb = run { options with Engine.domains = 4 } b in
  sa = sb && Bench_format.to_string a = Bench_format.to_string b

let base_options =
  { Engine.default_options with Engine.k = 4; max_candidates = 16; max_passes = 2 }

let ext_options =
  (* don't-cares and multi-unit covers exercise the per-candidate rng *)
  { base_options with Engine.use_dontcares = true; max_units = 2 }

let test_engine_parallel_identity () =
  for seed = 60 to 64 do
    let c = random_circuit ~n_pi:6 ~n_gates:28 ~n_po:4 seed in
    if not (engine_eq ~objective:Engine.Gates ~options:base_options c) then
      Alcotest.failf "seed %d: parallel procedure 2 diverged from serial" seed;
    if not (engine_eq ~objective:Engine.Paths ~options:base_options c) then
      Alcotest.failf "seed %d: parallel procedure 3 diverged from serial" seed
  done;
  for seed = 70 to 72 do
    let c = random_circuit ~n_pi:6 ~n_gates:28 ~n_po:4 seed in
    if not (engine_eq ~objective:Engine.Gates ~options:ext_options c) then
      Alcotest.failf "seed %d: parallel extended procedure 2 diverged" seed
  done

(* --- qcheck properties over Circuit_gen circuits ---------------------------- *)

let gen_profile seed =
  {
    Circuit_gen.name = "par";
    n_pi = 10;
    n_po = 6;
    n_gates = 60;
    depth = 8;
    combine_pct = 25;
    xor_pct = 5;
    seed = Int64.of_int seed;
  }

let prop_campaign_parallel =
  QCheck.Test.make ~name:"parallel campaign = serial (circuit_gen)" ~count:8
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let c = Circuit_gen.generate (gen_profile seed) in
      campaign_eq ~seed:(Int64.of_int ((seed * 3) + 1)) c)

let prop_engine_parallel =
  QCheck.Test.make ~name:"parallel engine = serial (circuit_gen)" ~count:4
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let c = Circuit_gen.generate (gen_profile seed) in
      engine_eq ~objective:Engine.Gates ~options:base_options c)

let suite =
  [
    ("pool: ordered map", `Quick, test_pool_map_ordered);
    ("pool: per-slot state", `Quick, test_pool_map_chunks_state);
    ("pool: exceptions propagate", `Quick, test_pool_exception_propagates);
    ("campaign: de Bruijn lowest_bit", `Quick, test_lowest_bit);
    ("campaign: parallel = serial", `Quick, test_campaign_parallel_identity);
    ("campaign: parallel = serial on .bench", `Quick, test_campaign_parallel_bench_files);
    ("pdf: parallel = serial", `Quick, test_pdf_parallel_identity);
    ("engine: parallel = serial", `Quick, test_engine_parallel_identity);
    ("pool: width above the runtime limit", `Quick, test_pool_domain_limit);
  ]

let qchecks = [ prop_campaign_parallel; prop_engine_parallel ]
