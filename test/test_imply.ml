(* Differential tests of the event-driven implication kernel: [Podem] and
   [Justify] against the full-implication searches in [Ref_atpg], and the
   kernel's values against a full forward pass. *)

open Helpers

let decisions_c = Obs.Counter.make "podem.decisions"
let backtracks_c = Obs.Counter.make "podem.backtracks"

(* Counters only move while metrics are on. *)
let with_metrics f =
  let was = Obs.enabled () in
  Obs.enable ();
  Fun.protect ~finally:(fun () -> if not was then Obs.disable ()) f

(* A search's outcome with the decisions and backtracks it made. *)
let counted search =
  let d0 = Obs.Counter.value decisions_c and b0 = Obs.Counter.value backtracks_c in
  let outcome = search () in
  (outcome, Obs.Counter.value decisions_c - d0, Obs.Counter.value backtracks_c - b0)

let podem_counted ~limit c f = counted (fun () -> Podem.generate ~backtrack_limit:limit c f)

(* Number of faults whose search disagrees with the reference; the first
   disagreement is printed. *)
let podem_mismatches ~limit c faults =
  with_metrics @@ fun () ->
  List.fold_left
    (fun bad f ->
      let got, gd, gb = podem_counted ~limit c f in
      let want, wd, wb = Ref_atpg.podem ~backtrack_limit:limit c f in
      if got = want && gd = wd && gb = wb then bad
      else begin
        if bad = 0 then
          Format.printf "PODEM %s, limit %d: %a (%d decisions, %d backtracks), reference %a (%d, %d)@."
            (Fault.to_string c f) limit Podem.pp_outcome got gd gb Podem.pp_outcome want wd wb;
        bad + 1
      end)
    0 faults

let test_podem_c17 () =
  let c = c17 () in
  check int_ "c17 collapsed faults" 0
    (podem_mismatches ~limit:Limits.default.Limits.podem_backtracks c (Fault.collapsed c))

(* A fixed sample of the irs1423 stand-in at the backtrack limit of the
   [sat_atpg] bench section and the removal passes, where most hard faults
   abort. *)
let test_podem_irs1423 () =
  let c = Circuit_gen.generate (Benchmarks.find "irs1423").Benchmarks.profile in
  let faults = List.filteri (fun i _ -> i mod 37 = 0) (Fault.all c) in
  List.iter
    (fun limit ->
      check int_ (Printf.sprintf "irs1423 sample, limit %d" limit) 0
        (podem_mismatches ~limit c faults))
    [ 20; 120 ]

let profile_of seed =
  let rng = Rng.create (Int64.of_int seed) in
  let n_gates = 10 + Rng.int rng 291 in
  {
    Circuit_gen.name = Printf.sprintf "imply%d" seed;
    n_pi = 4 + Rng.int rng 20;
    n_po = 1 + Rng.int rng 10;
    n_gates;
    depth = 2 + Rng.int rng (min 14 (n_gates / 4));
    combine_pct = Rng.int rng 50;
    xor_pct = Rng.int rng 25;
    seed = Int64.of_int seed;
  }

(* Up to [k] random faults of each kind (stem and branch). *)
let sample_faults rng k c =
  let pick l =
    let a = Array.of_list l in
    Rng.shuffle rng a;
    Array.to_list (Array.sub a 0 (min k (Array.length a)))
  in
  let stems, branches =
    List.partition
      (fun f -> match f.Fault.site with Fault.Stem _ -> true | Fault.Branch _ -> false)
      (Fault.all c)
  in
  pick stems @ pick branches

let qcheck_podem =
  QCheck.Test.make ~count:30 ~name:"PODEM = full-implication reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Circuit_gen.generate (profile_of seed) in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let limits = [| 0; 1; 5; 20; 200 |] in
      let limit = limits.(Rng.int rng (Array.length limits)) in
      podem_mismatches ~limit c (sample_faults rng 6 c) = 0)

(* A fault list decided on one [Podem.t] (one compile, X-path marks carried
   from fault to fault) gets, fault for fault, the outcome, vector,
   decisions and backtracks of [Podem.generate]. A third of the circuit's
   faults, so on most circuits the marks wrap past 255 searches. *)
let qcheck_podem_reuse =
  QCheck.Test.make ~count:12 ~name:"Podem.run on one t = Podem.generate"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Circuit_gen.generate (profile_of seed) in
      let limit = [| 0; 5; 20 |].(seed mod 3) in
      let shared = Podem.create ~backtrack_limit:limit c in
      with_metrics @@ fun () ->
      List.for_all
        (fun f ->
          let got, gd, gb = counted (fun () -> Podem.run shared f) in
          let want, wd, wb = podem_counted ~limit c f in
          if got <> want || gd <> wd || gb <> wb then
            QCheck.Test.fail_reportf "%s, limit %d: %a (%d decisions, %d backtracks), generate %a (%d, %d)"
              (Fault.to_string c f) limit Podem.pp_outcome got gd gb Podem.pp_outcome want wd wb;
          true)
        (List.filteri (fun i _ -> i mod 3 = 0) (Fault.all c)))

(* Random assignment and unassignment sequences: after every step the
   kernel's good and faulty values equal a full pass on every live node. *)
let qcheck_kernel =
  QCheck.Test.make ~count:40 ~name:"event-driven values = full pass"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Circuit_gen.generate (profile_of seed) in
      let rng = Rng.create (Int64.of_int (seed + 2)) in
      let cmp = Compiled.of_circuit c in
      let inputs = Compiled.inputs cmp in
      List.for_all
        (fun f ->
          let imp = Imply.create ~fault:f cmp in
          let assignment = Array.make (Array.length inputs) Tv.X in
          List.for_all
            (fun _ ->
              let i = Rng.int rng (Array.length inputs) in
              let v = [| Tv.F; Tv.T; Tv.X |].(Rng.int rng 3) in
              assignment.(i) <- v;
              Imply.assign imp inputs.(i) v;
              let good, faul = Ref_atpg.simulate c f assignment in
              Array.for_all
                (fun id ->
                  Tv.equal (Imply.good imp id) good.(id)
                  && Tv.equal (Imply.faulty imp id) faul.(id))
                (Compiled.order cmp))
            (List.init 25 Fun.id))
        (sample_faults rng 2 c))

(* Random 1-3 target sets on generated circuits, with and without an rng
   (two generators from one seed must also end in the same state) and a
   [prefer] fill. *)
let qcheck_justify =
  QCheck.Test.make ~count:60 ~name:"Justify = full-implication reference"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Circuit_gen.generate (profile_of seed) in
      let rng = Rng.create (Int64.of_int (seed + 3)) in
      let order = Circuit.topo_order c in
      let n_in = Circuit.num_inputs c in
      List.for_all
        (fun _ ->
          let targets =
            List.init (1 + Rng.int rng 3) (fun _ ->
                (order.(Rng.int rng (Array.length order)), Rng.bool rng))
          in
          let backtrack_limit = [| 0; 3; 50 |].(Rng.int rng 3) in
          let prefer = if Rng.bool rng then Some (Array.init n_in (fun _ -> Rng.bool rng)) else None in
          let tie_seed = if Rng.bool rng then Some (Rng.next64 rng) else None in
          let r1 = Option.map Rng.create tie_seed and r2 = Option.map Rng.create tie_seed in
          let got = Justify.search ~backtrack_limit ?rng:r1 ?prefer c targets in
          let want = Ref_atpg.justify ~backtrack_limit ?rng:r2 ?prefer c targets in
          got = want
          && Option.map Rng.next64 r1 = Option.map Rng.next64 r2)
        (List.init 6 Fun.id))

let suite =
  [
    ("PODEM = reference on c17", `Quick, test_podem_c17);
    ("PODEM = reference on irs1423 sample", `Quick, test_podem_irs1423);
  ]

let qchecks = [ qcheck_kernel; qcheck_podem; qcheck_podem_reuse; qcheck_justify ]
