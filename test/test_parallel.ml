(* The sft.parallel pool and the serial/parallel bit-identity guarantee of
   the PDF campaign, the one campaign that still fans out. *)

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

(* The PDF campaign's pooled wave simulations, on generated circuits. *)
let prop_campaign_parallel =
  QCheck.Test.make ~name:"parallel campaign = serial (circuit_gen, PDF)" ~count:8
    (QCheck.int_range 1 100_000)
    (fun seed ->
      let c = Circuit_gen.generate (gen_profile seed) in
      pdf_eq ~seed:(Int64.of_int ((seed * 3) + 1)) c)

let suite =
  [
    ("pool: ordered map", `Quick, test_pool_map_ordered);
    ("pool: exceptions propagate", `Quick, test_pool_exception_propagates);
    ("campaign: de Bruijn lowest_bit", `Quick, test_lowest_bit);
    ("pdf: parallel = serial", `Quick, test_pdf_parallel_identity);
    ("pool: width above the runtime limit", `Quick, test_pool_domain_limit);
  ]

let qchecks = [ prop_campaign_parallel ]
