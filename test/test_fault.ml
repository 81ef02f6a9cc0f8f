open Helpers

(* Naive single-pattern faulty evaluation used as the reference model. *)
let faulty_run c (f : Fault.t) inputs =
  let v = Array.make (Circuit.size c) false in
  let pis = Circuit.inputs c in
  Array.iteri (fun i pi -> v.(pi) <- inputs.(i)) pis;
  let force_stem id =
    match f.Fault.site with
    | Fault.Stem u when u = id -> v.(id) <- f.Fault.stuck
    | Fault.Stem _ | Fault.Branch _ -> ()
  in
  Array.iter
    (fun id ->
      (match Circuit.kind c id with
      | Gate.Input -> ()
      | k ->
        let fins = Circuit.fanins c id in
        let vals =
          Array.mapi
            (fun pin fanin ->
              match f.Fault.site with
              | Fault.Branch (g, p) when g = id && p = pin -> f.Fault.stuck
              | Fault.Branch _ | Fault.Stem _ -> v.(fanin))
            fins
        in
        v.(id) <- Gate.eval k vals);
      force_stem id)
    (Circuit.topo_order c);
  Array.map (fun o -> v.(o)) (Circuit.outputs c)

let test_fault_list_counts () =
  let c = c17 () in
  (* 11 stems (5 PI + 6 gates). Multi-fanout stems: G3 (2 pins), G11 (2),
     G16 (2) -> 6 branch sites. Total uncollapsed = 2*(11+6) = 34. *)
  check int_ "uncollapsed" 34 (List.length (Fault.all c));
  let col = List.length (Fault.collapsed c) in
  check bool_ "collapsing shrinks" true (col < 34);
  (* NAND-only circuit: every fanout-free stem loses its s-a-0; every branch
     pin loses its s-a-0. Fanout-free stems: G1,G2,G6,G7,G10,G19 (6 of them,
     G22/G23 are POs and keep both). 34 - 6 - 6 = 22. *)
  check int_ "collapsed" 22 col

let test_detect_matches_naive () =
  for seed = 1 to 8 do
    let c = random_circuit ~n_pi:5 ~n_gates:15 seed in
    let cmp = Compiled.of_circuit c in
    let sim = Fsim.create cmp in
    let faults = Fault.all c in
    let rng = Rng.create (Int64.of_int (100 + seed)) in
    let words = Array.init 5 (fun _ -> Rng.next64 rng) in
    Fsim.load_patterns sim words;
    List.iter
      (fun f ->
        let mask = Fsim.detect sim f in
        (* check 16 of the 64 slots against the naive model *)
        for slot = 0 to 15 do
          let inputs =
            Array.map
              (fun w -> Int64.logand (Int64.shift_right_logical w slot) 1L = 1L)
              words
          in
          let good = Eval.run c inputs in
          let bad = faulty_run c f inputs in
          let expect = good <> bad in
          let got = Int64.logand (Int64.shift_right_logical mask slot) 1L = 1L in
          if expect <> got then
            Alcotest.failf "seed %d fault %s slot %d: naive %b fsim %b" seed
              (Fault.to_string c f) slot expect got
        done)
      faults
  done

(* Circuits for the [Fsim] qcheck: every gate kind, up to 4 fanins, XOR and
   XNOR included, and dead node ids: gates that reach no output are swept,
   and now and then a gate is added and deleted at once. *)
let fsim_circuit seed =
  let rng = Rng.create (Int64.of_int seed) in
  let c = Circuit.create () in
  let nodes = ref [] in
  for _ = 1 to 2 + Rng.int rng 7 do
    nodes := Circuit.add_input c :: !nodes
  done;
  let kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor; Gate.Not; Gate.Buf |] in
  for _ = 1 to 4 + Rng.int rng 30 do
    let pool = Array.of_list !nodes in
    let kind = kinds.(Rng.int rng (Array.length kinds)) in
    let arity = match kind with Gate.Not | Gate.Buf -> 1 | _ -> 2 + Rng.int rng 3 in
    let fins = List.sort_uniq compare (List.init arity (fun _ -> pool.(Rng.int rng (Array.length pool)))) in
    nodes := Circuit.add_gate c kind (Array.of_list fins) :: !nodes;
    if Rng.int rng 5 = 0 then begin
      let id = Circuit.add_gate c Gate.Not [| pool.(Rng.int rng (Array.length pool)) |] in
      Circuit.delete c id
    end
  done;
  (* the last three nodes and one at random are outputs *)
  let pool = Array.of_list !nodes in
  List.iter
    (fun o -> if not (Circuit.is_output c o) then Circuit.mark_output c o)
    [ pool.(0); pool.(1); pool.(2); pool.(Rng.int rng (Array.length pool)) ];
  ignore (Circuit.sweep c);
  c

(* Full 64-bit masks against the naive model, slot by slot, for every fault
   and three batches, on one [Fsim.t]. *)
let qcheck_detect_full_masks =
  QCheck.Test.make ~count:40 ~name:"Fsim.detect = naive faulty simulation, 64 slots"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = fsim_circuit seed in
      let sim = Fsim.create (Compiled.of_circuit c) in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      let faults = Fault.all c in
      List.for_all
        (fun _ ->
          let words = Array.init (Circuit.num_inputs c) (fun _ -> Rng.next64 rng) in
          Fsim.load_patterns sim words;
          let slots =
            Array.init 64 (fun slot ->
                Array.map (fun w -> Int64.logand (Int64.shift_right_logical w slot) 1L = 1L) words)
          in
          let good = Array.map (Eval.run c) slots in
          List.for_all
            (fun f ->
              let mask = Fsim.detect sim f in
              let want = ref 0L in
              Array.iteri
                (fun slot inputs ->
                  if good.(slot) <> faulty_run c f inputs then
                    want := Int64.logor !want (Int64.shift_left 1L slot))
                slots;
              mask = !want)
            faults)
        [ 1; 2; 3 ])

let test_campaign_c17 () =
  let c = c17 () in
  let r = Campaign.exec { Campaign.default with max_patterns = 10_000; seed = 7L } c in
  (* c17 is fully testable; a few dozen random patterns suffice. *)
  check int_ "all detected" 0 r.Campaign.remaining;
  check bool_ "effective pattern sane" true
    (r.Campaign.last_effective_pattern > 0
    && r.Campaign.last_effective_pattern <= r.Campaign.patterns_applied)

let test_campaign_detects_undetectable () =
  (* A redundant AND(a, a') gate yields an untestable s-a-0. *)
  let c = Circuit.create () in
  let a = Circuit.add_input c in
  let b = Circuit.add_input c in
  let na = Circuit.add_gate c Gate.Not [| a |] in
  let dead = Circuit.add_gate c Gate.And [| a; na |] in
  let out = Circuit.add_gate c Gate.Or [| dead; b |] in
  Circuit.mark_output c out;
  let fault = { Fault.site = Fault.Stem dead; stuck = false } in
  let cfg =
    { Campaign.default with faults = Some [ fault ]; max_patterns = 4096; seed = 3L }
  in
  let r = Campaign.exec cfg c in
  check int_ "never detected" 1 r.Campaign.remaining;
  let survivors = Campaign.survivors cfg c in
  check int_ "survivor reported" 1 (List.length survivors)

let test_campaign_deterministic () =
  let c = c17 () in
  let r1 = Campaign.exec { Campaign.default with max_patterns = 1000; seed = 11L } c in
  let r2 = Campaign.exec { Campaign.default with max_patterns = 1000; seed = 11L } c in
  check int_ "same eff" r1.Campaign.last_effective_pattern r2.Campaign.last_effective_pattern;
  check int_ "same detected" r1.Campaign.detected r2.Campaign.detected

let suite =
  [
    ("fault list counts on c17", `Quick, test_fault_list_counts);
    ("PPSFP matches naive fault injection", `Quick, test_detect_matches_naive);
    ("random campaign covers c17", `Quick, test_campaign_c17);
    ("campaign reports undetectable faults", `Quick, test_campaign_detects_undetectable);
    ("campaign is deterministic", `Quick, test_campaign_deterministic);
  ]

let qchecks = [ qcheck_detect_full_masks ]
