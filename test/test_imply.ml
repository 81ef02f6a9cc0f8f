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

(* The full-pass values under [fault], or without a fault, where the faulty
   machine is the good one (which no fault changes). *)
let full_pass c fault assignment =
  match fault with
  | Some f -> Ref_atpg.simulate c f assignment
  | None ->
    let good, _ = Ref_atpg.simulate c (List.hd (Fault.all c)) assignment in
    (good, good)

(* One kernel, reset across sampled faults and a fault-free run, under
   random assignment and unassignment sequences: after the reset and after
   every step its good and faulty values equal a full pass on every live
   node. The compiled levels are [Levelize.levels]. *)
let qcheck_kernel =
  QCheck.Test.make ~count:40 ~name:"event-driven values = full pass"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Circuit_gen.generate (profile_of seed) in
      let rng = Rng.create (Int64.of_int (seed + 2)) in
      let cmp = Compiled.of_circuit c in
      let inputs = Compiled.inputs cmp in
      let imp = Imply.create cmp in
      let faults = List.map Option.some (sample_faults rng 2 c) in
      Compiled.levels cmp = Levelize.levels c
      && List.for_all
           (fun fault ->
             Imply.reset ?fault imp;
             let assignment = Array.make (Array.length inputs) Tv.X in
             let agrees () =
               let good, faul = full_pass c fault assignment in
               Array.for_all
                 (fun id ->
                   Tv.equal (Imply.good imp id) good.(id)
                   && Tv.equal (Imply.faulty imp id) faul.(id))
                 (Compiled.order cmp)
             in
             agrees ()
             && List.for_all
                  (fun _ ->
                    let i = Rng.int rng (Array.length inputs) in
                    let v = [| Tv.F; Tv.T; Tv.X |].(Rng.int rng 3) in
                    assignment.(i) <- v;
                    Imply.assign imp inputs.(i) v;
                    agrees ())
                  (List.init 25 Fun.id))
           (faults @ [ None ] @ faults))

let tvs = [| Tv.F; Tv.T; Tv.X |]

(* The dual-rail folds against the [Tv] folds of [Ref_atpg.eval]: every gate
   kind with up to 3 pins, every (good, faulty) pair on every pin, without
   a fault, with the gate's stem stuck and with each pin stuck; and the D
   and composite-X readings of each pin and input. *)
let test_dual_rail () =
  let cases =
    [ (Gate.Const0, [ 0 ]); (Gate.Const1, [ 0 ]); (Gate.Buf, [ 1 ]); (Gate.Not, [ 1 ]) ]
    @ List.map
        (fun k -> (k, [ 1; 2; 3 ]))
        [ Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ]
  in
  let is_d g f = Tv.known g && Tv.known f && not (Tv.equal g f) in
  let bad = ref 0 and checked = ref 0 in
  let expect what ok =
    incr checked;
    if not ok then begin
      if !bad = 0 then Format.printf "dual rail: %s@." (Lazy.force what);
      incr bad
    end
  in
  List.iter
    (fun (kind, arities) ->
      List.iter
        (fun m ->
          let c = Circuit.create () in
          let ins = Array.init m (fun _ -> Circuit.add_input c) in
          let g =
            match kind with
            | Gate.Const0 -> Circuit.add_const c false
            | Gate.Const1 -> Circuit.add_const c true
            | _ -> Circuit.add_gate c kind ins
          in
          Circuit.mark_output c g;
          let imp = Imply.create (Compiled.of_circuit c) in
          let faults =
            None
            :: List.concat_map
                 (fun stuck ->
                   Some { Fault.site = Fault.Stem g; stuck }
                   :: List.init m (fun pin -> Some { Fault.site = Fault.Branch (g, pin); stuck }))
                 [ false; true ]
          in
          List.iter
            (fun fault ->
              Imply.reset ?fault imp;
              let pin_override pin =
                match fault with
                | Some { Fault.site = Fault.Branch (_, p); stuck } when p = pin ->
                  Some (Tv.of_bool stuck)
                | _ -> None
              in
              for code = 0 to int_of_float (9. ** float_of_int m) - 1 do
                let pairs =
                  Array.init m (fun pin ->
                      let d = code / int_of_float (9. ** float_of_int pin) mod 9 in
                      (tvs.(d mod 3), tvs.(d / 3)))
                in
                Array.iteri
                  (fun pin (good, faulty) -> Imply.Test_hooks.set imp ins.(pin) ~good ~faulty)
                  pairs;
                let read = Array.mapi (fun pin (_, f) -> Option.value ~default:f (pin_override pin)) pairs in
                let want_good = Ref_atpg.eval kind (Array.map fst pairs) in
                let want_faulty =
                  match fault with
                  | Some { Fault.site = Fault.Stem _; stuck } -> Tv.of_bool stuck
                  | _ -> Ref_atpg.eval kind read
                in
                let got_good, got_faulty = Imply.Test_hooks.eval imp g in
                let describe () =
                  Printf.sprintf "%s/%d %s pins %s: got %c/%c, want %c/%c" (Gate.to_string kind) m
                    (match fault with None -> "no fault" | Some f -> Fault.to_string c f)
                    (String.concat " "
                       (Array.to_list
                          (Array.map (fun (a, b) -> Printf.sprintf "%c/%c" (Tv.to_char a) (Tv.to_char b)) pairs)))
                    (Tv.to_char got_good) (Tv.to_char got_faulty) (Tv.to_char want_good)
                    (Tv.to_char want_faulty)
                in
                expect (lazy (describe ()))
                  (Tv.equal got_good want_good && Tv.equal got_faulty want_faulty);
                Array.iteri
                  (fun pin (good, faulty) ->
                    expect (lazy (describe () ^ Printf.sprintf ", D on pin %d" pin))
                      (Imply.pin_d imp g pin = is_d good read.(pin)
                      && Imply.d imp ins.(pin) = is_d good faulty
                      && Imply.composite_x imp ins.(pin)
                         = not (Tv.known good && Tv.known faulty)))
                  pairs
              done)
            faults)
        arities)
    cases;
  check int_ "dual-rail mismatches" 0 !bad;
  check bool_ "every case checked" true (!checked > 0)

(* Random pushes onto random levels, some repeated while pending, then
   drains that push nodes on higher levels as a gate's fanouts are pushed:
   every pushed node pops once per time it was queued, in nondecreasing
   level, and the queue is empty after each drain. *)
let qcheck_level_queue =
  QCheck.Test.make ~count:200 ~name:"level queue pops each push once, by level"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let n = 1 + Rng.int rng 300 in
      let depth = 1 + Rng.int rng 20 in
      let levels = Array.init n (fun _ -> if Rng.int rng 8 = 0 then -1 else Rng.int rng depth) in
      let live = Array.of_list (List.filter (fun i -> levels.(i) >= 0) (List.init n Fun.id)) in
      let q = Level_queue.create levels in
      let pending = Array.make n false in
      let push id =
        Level_queue.push q id;
        pending.(id) <- true
      in
      let ok = ref true in
      for _ = 1 to 3 do
        if Array.length live > 0 then
          for _ = 1 to Rng.int rng (2 * n) do
            push live.(Rng.int rng (Array.length live))
          done;
        let last = ref (-1) in
        let id = ref (Level_queue.pop q) in
        while !id >= 0 do
          if (not pending.(!id)) || levels.(!id) < !last then ok := false;
          pending.(!id) <- false;
          last := levels.(!id);
          for _ = 1 to Rng.int rng 4 do
            let j = live.(Rng.int rng (Array.length live)) in
            if levels.(j) > levels.(!id) then push j
          done;
          id := Level_queue.pop q
        done
      done;
      !ok && Array.for_all not pending)

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
          let got = Justify.run (Justify.create ~backtrack_limit c) ?rng:r1 ?prefer targets in
          let want = Ref_atpg.justify ~backtrack_limit ?rng:r2 ?prefer c targets in
          got = want
          && Option.map Rng.next64 r1 = Option.map Rng.next64 r2)
        (List.init 6 Fun.id))

(* A run of target sets on one [Justify.t] (one compile, the kernel reset
   per set) gets, set for set, the verdict of a fresh [Justify.t], with and
   without an rng (both generators must end in the same state) and a
   [prefer] fill. *)
let qcheck_justify_reuse =
  QCheck.Test.make ~count:30 ~name:"Justify.run on one t = Justify.run on a fresh t"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Circuit_gen.generate (profile_of seed) in
      let rng = Rng.create (Int64.of_int (seed + 4)) in
      let order = Circuit.topo_order c in
      let n_in = Circuit.num_inputs c in
      let backtrack_limit = [| 0; 3; 50 |].(seed mod 3) in
      let shared = Justify.create ~backtrack_limit c in
      List.for_all
        (fun _ ->
          let targets =
            List.init (1 + Rng.int rng 3) (fun _ ->
                (order.(Rng.int rng (Array.length order)), Rng.bool rng))
          in
          let prefer = if Rng.bool rng then Some (Array.init n_in (fun _ -> Rng.bool rng)) else None in
          let tie_seed = if Rng.bool rng then Some (Rng.next64 rng) else None in
          let r1 = Option.map Rng.create tie_seed and r2 = Option.map Rng.create tie_seed in
          let got = Justify.run shared ?rng:r1 ?prefer targets in
          let want = Justify.run (Justify.create ~backtrack_limit c) ?rng:r2 ?prefer targets in
          got = want
          && Option.map Rng.next64 r1 = Option.map Rng.next64 r2)
        (List.init 10 Fun.id))

(* [Justify.distinguish] stands for [Justify.run] on a copy of the circuit
   with an XOR (XNOR with [complement]) probe over [[|a; b|]] targeted to
   1, the probe RAR's merge proofs used to add. *)
let probe_verdict ~backtrack_limit ?rng c ~complement a b =
  let copy = Circuit.copy c in
  let probe = Circuit.add_gate copy (if complement then Gate.Xnor else Gate.Xor) [| a; b |] in
  Justify.run (Justify.create ~backtrack_limit copy) ?rng [ (probe, true) ]

(* Pairs as RAR's merges pick them: a gate and a later gate whose 1,024-pattern
   signature equals its own ([complement] false) or its complement (true). *)
let signature_pairs c =
  let cmp = Compiled.of_circuit c in
  let rng = Rng.create 11L in
  let n_pi = Circuit.num_inputs c in
  let batches =
    Array.init 16 (fun _ ->
        let words = Bytes.make (8 * Compiled.size cmp) '\000' in
        Compiled.simulate_into cmp (Array.init n_pi (fun _ -> Rng.next64 rng)) words;
        words)
  in
  let signature id = List.init 16 (fun k -> Bytes.get_int64_ne batches.(k) (8 * id)) in
  let gates =
    List.filter
      (fun id ->
        match Circuit.kind c id with
        | Gate.Input | Gate.Const0 | Gate.Const1 -> false
        | _ -> true)
      (Array.to_list (Circuit.topo_order c))
  in
  let pos = Hashtbl.create 97 and groups = Hashtbl.create 97 in
  List.iteri
    (fun i id ->
      Hashtbl.replace pos id i;
      Hashtbl.add groups (signature id) id)
    gates;
  List.concat_map
    (fun a ->
      let later complement key =
        List.filter_map
          (fun b -> if Hashtbl.find pos b > Hashtbl.find pos a then Some (complement, a, b) else None)
          (Hashtbl.find_all groups key)
      in
      later false (signature a) @ later true (List.map Int64.lognot (signature a)))
    gates

(* [n] pairs of distinct live nodes with a random polarity. *)
let random_pairs rng c n =
  let order = Circuit.topo_order c in
  List.filter
    (fun (_, a, b) -> a <> b)
    (List.init n (fun _ ->
         let pick () = order.(Rng.int rng (Array.length order)) in
         let complement = Rng.bool rng in
         let a = pick () in
         (complement, a, pick ())))

let first n l = List.filteri (fun i _ -> i < n) l

(* Pairs decided on one [Justify.t] per backtrack limit get the verdict and
   witness of the probe copy; with an rng, both generators end in the same
   state. *)
let distinguish_mismatches rng c pairs =
  List.fold_left
    (fun bad backtrack_limit ->
      let shared = Justify.create ~backtrack_limit c in
      List.fold_left
        (fun bad (complement, a, b) ->
          let tie_seed = if Rng.bool rng then Some (Rng.next64 rng) else None in
          let r1 = Option.map Rng.create tie_seed and r2 = Option.map Rng.create tie_seed in
          let got = Justify.distinguish shared ?rng:r1 ~complement a b in
          let want = probe_verdict ~backtrack_limit ?rng:r2 c ~complement a b in
          if got = want && Option.map Rng.next64 r1 = Option.map Rng.next64 r2 then bad
          else begin
            if bad = 0 then
              Format.printf "distinguish %d %d (complement %b, limit %d, rng %b) differs@." a b
                complement backtrack_limit (tie_seed <> None);
            bad + 1
          end)
        bad pairs)
    0 [ 0; 5; 120; 200 ]

(* Every merge-style pair of the irs1423 stand-in (up to 200), plus random
   pairs. *)
let test_distinguish_irs1423 () =
  let c = Benchmarks.build (Benchmarks.find "irs1423") in
  let rng = Rng.create 23L in
  let pairs = first 200 (signature_pairs c) @ random_pairs rng c 40 in
  check bool_ "merge-style pairs found" true (List.length pairs > 60);
  check int_ "irs1423 pairs" 0 (distinguish_mismatches rng c pairs)

let qcheck_distinguish =
  QCheck.Test.make ~count:40 ~name:"Justify.distinguish = Justify.run on an XOR probe"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = profile_of seed in
      let c = Circuit_gen.generate { p with Circuit_gen.xor_pct = max 10 p.Circuit_gen.xor_pct } in
      let rng = Rng.create (Int64.of_int (seed + 5)) in
      let merge_style = Array.of_list (signature_pairs c) in
      Rng.shuffle rng merge_style;
      let pairs = first 12 (Array.to_list merge_style) @ random_pairs rng c 8 in
      distinguish_mismatches rng c pairs = 0)

(* A copy of [c] built in a random topological order, so that most node
   ids differ, with the inputs and the outputs in their declaration order;
   and the map from [c]'s ids to the copy's. *)
let permuted_copy rng c =
  let copy = Circuit.create () in
  let map = Array.make (Circuit.size c) (-1) in
  let inputs = Circuit.inputs c in
  let next_input = ref 0 in
  let pending = ref (Array.to_list (Circuit.topo_order c)) in
  while !pending <> [] do
    let ready =
      List.filter
        (fun id ->
          match Circuit.kind c id with
          | Gate.Input -> id = inputs.(!next_input)
          | _ -> Array.for_all (fun f -> map.(f) >= 0) (Circuit.fanins c id))
        !pending
    in
    let id = List.nth ready (Rng.int rng (List.length ready)) in
    map.(id) <-
      (match Circuit.kind c id with
      | Gate.Input ->
        incr next_input;
        Circuit.add_input copy
      | Gate.Const0 -> Circuit.add_const copy false
      | Gate.Const1 -> Circuit.add_const copy true
      | kind -> Circuit.add_gate copy kind (Array.map (fun f -> map.(f)) (Circuit.fanins c id)));
    pending := List.filter (fun p -> p <> id) !pending
  done;
  Array.iter (fun o -> Circuit.mark_output copy map.(o)) (Circuit.outputs c);
  (copy, map)

(* [Justify.pair_key] holds everything [distinguish] reads: a pair and its
   image in a copy with permuted node ids get equal keys and the same
   verdict and witness, and within the pairs decided, from either
   circuit, equal keys never meet different verdicts. *)
let qcheck_pair_key =
  QCheck.Test.make ~count:30 ~name:"equal pair keys give equal distinguish verdicts"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let p = profile_of seed in
      let c = Circuit_gen.generate { p with Circuit_gen.xor_pct = max 10 p.Circuit_gen.xor_pct } in
      let rng = Rng.create (Int64.of_int (seed + 6)) in
      let copy, map = permuted_copy rng c in
      let merge_style = Array.of_list (signature_pairs c) in
      Rng.shuffle rng merge_style;
      let pairs = first 12 (Array.to_list merge_style) @ random_pairs rng c 8 in
      let backtrack_limit = [| 0; 5; 120 |].(seed mod 3) in
      let ours = Justify.create ~backtrack_limit c in
      let theirs = Justify.create ~backtrack_limit copy in
      let by_key = Hashtbl.create 64 in
      let agrees key verdict =
        match Hashtbl.find_opt by_key key with
        | Some seen -> seen = verdict
        | None ->
          Hashtbl.add by_key key verdict;
          true
      in
      List.for_all
        (fun (complement, a, b) ->
          let key = Justify.pair_key c ~complement a b in
          let verdict = Justify.distinguish ours ~complement a b in
          let key' = Justify.pair_key copy ~complement map.(a) map.(b) in
          let verdict' = Justify.distinguish theirs ~complement map.(a) map.(b) in
          if key <> key' then
            QCheck.Test.fail_reportf "pair %d %d: the permuted copy's key differs" a b;
          if verdict <> verdict' then
            QCheck.Test.fail_reportf "pair %d %d: the permuted copy's verdict differs" a b;
          agrees key verdict && agrees key' verdict')
        pairs)

(* Two cones that differ only in the pin order of one gate get different
   keys: the search's backtrace takes the first unassigned fanin, so pin
   order can change an Unknown verdict or a witness. On a generated
   circuit, [a] reads two distinct nodes [u] and [v] and [b] reads them in
   one pin order or the other; the polarity is in the key too. *)
let qcheck_pair_key_pins =
  QCheck.Test.make ~count:30 ~name:"pair keys tell pin orders apart"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let c = Circuit_gen.generate (profile_of seed) in
      let rng = Rng.create (Int64.of_int (seed + 7)) in
      let order = Circuit.topo_order c in
      let pick () = order.(Rng.int rng (Array.length order)) in
      let u = pick () in
      let v = pick () in
      let kinds = [| Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor |] in
      let ka = kinds.(Rng.int rng 6) and kb = kinds.(Rng.int rng 6) in
      let key pins ~complement =
        let c = Circuit.copy c in
        let a = Circuit.add_gate c ka [| u; v |] in
        let b = Circuit.add_gate c kb pins in
        Justify.pair_key c ~complement a b
      in
      let base = key [| u; v |] ~complement:false in
      u = v
      || base = key [| u; v |] ~complement:false
         && base <> key [| v; u |] ~complement:false
         && base <> key [| u; v |] ~complement:true)

let suite =
  [
    ("PODEM = reference on c17", `Quick, test_podem_c17);
    ("PODEM = reference on irs1423 sample", `Quick, test_podem_irs1423);
    ("dual-rail folds = Tv folds", `Quick, test_dual_rail);
    ("distinguish = XOR probe on irs1423", `Quick, test_distinguish_irs1423);
  ]

let qchecks =
  [
    qcheck_kernel; qcheck_level_queue; qcheck_podem; qcheck_podem_reuse; qcheck_justify;
    qcheck_justify_reuse; qcheck_distinguish; qcheck_pair_key; qcheck_pair_key_pins;
  ]
