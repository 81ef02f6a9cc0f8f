type options = {
  max_additions : int;
  max_trials : int;
  removal_backtracks : int;
  seed : int64;
}

let default_options =
  { max_additions = 40; max_trials = 400; removal_backtracks = 120; seed = 1L }

(* Bit-parallel filter depth for wire additions and merge signatures. *)
let sim_patterns = 1024

(* PODEM budget for wire-addition proofs. *)
let addition_backtracks = 500

type stats = {
  additions : int;
  removals : int;
  gates_before : int;
  gates_after : int;
}

let pp_stats ppf s =
  Format.fprintf ppf "%d additions, %d removals; gates %d -> %d" s.additions
    s.removals s.gates_before s.gates_after

let is_andor c id =
  match Circuit.kind c id with
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> true
  | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor
  | Gate.Xnor -> false

(* Node [id]'s word in a [Compiled.simulate_into] buffer. *)
let[@inline] word v id = Bytes.get_int64_ne v (8 * id)

(* Bit-parallel node values over several 64-pattern random batches, one
   [Compiled.simulate_into] buffer per batch. *)
let sim_batches cmp ~patterns ~seed =
  let rng = Rng.create seed in
  let n_pi = Array.length (Compiled.inputs cmp) in
  let batches = max 1 ((patterns + 63) / 64) in
  Array.init batches (fun _ ->
      let v = Bytes.make (8 * Compiled.size cmp) '\000' in
      Compiled.simulate_into cmp (Array.init n_pi (fun _ -> Rng.next64 rng)) v;
      v)

(* Does the simulation show gd's and/or-phase at the non-controlled value
   while ns is at the controlling value? If so the wire addition would change
   gd's local function on some simulated pattern. *)
let filter_passes c values_batches gd ns =
  let kind = Circuit.kind c gd in
  let invert = Gate.inverting kind in
  let or_like = match kind with Gate.Or | Gate.Nor -> true | _ -> false in
  Array.for_all
    (fun values ->
      let out = if invert then Int64.lognot (word values gd) else word values gd in
      let conflict =
        if or_like then Int64.logand (Int64.lognot out) (word values ns)
        else Int64.logand out (Int64.lognot (word values ns))
      in
      conflict = 0L)
    values_batches

let transitive_fanout c gd =
  let seen = Bytes.make (Circuit.size c) '\000' in
  let rec mark id =
    if Bytes.get seen id = '\000' then begin
      Bytes.set seen id '\001';
      List.iter mark (Circuit.fanouts c id)
    end
  in
  mark gd;
  seen

(* Add [ns] as an extra input of [gd] and prove the addition redundant: the
   new pin's stuck-at-non-controlling fault must be untestable. On failure
   the gate is restored. *)
let try_addition c gd ns =
  let old_fanins = Array.copy (Circuit.fanins c gd) in
  let pin = Array.length old_fanins in
  let kind = Circuit.kind c gd in
  let stuck_nc =
    match Gate.controlling kind with
    | Some controlling -> not controlling
    | None -> assert false
  in
  Circuit.set_fanins c gd (Array.append old_fanins [| ns |]);
  let fault = { Fault.site = Fault.Branch (gd, pin); stuck = stuck_nc } in
  match Podem.generate ~backtrack_limit:addition_backtracks c fault with
  | Podem.Untestable -> true
  | Podem.Test _ | Podem.Aborted ->
    Circuit.set_fanins c gd old_fanins;
    false

let merge_unsat_c =
  Obs.Counter.make ~help:"merge proofs ending UNSAT (pair merged)" "rar.merge_unsat"

let merge_sat_c =
  Obs.Counter.make ~help:"merge proofs finding a distinguishing vector" "rar.merge_sat"

let merge_unknown_c =
  Obs.Counter.make ~help:"merge proofs hitting the backtrack limit" "rar.merge_unknown"

let merge_separated_c =
  Obs.Counter.make ~help:"merge pairs a kept distinguishing vector separates (no proof)"
    "rar.merge_separated"

let merge_reused_c =
  Obs.Counter.make ~help:"merge pairs given the stored verdict of an equal pair key (no proof)"
    "rar.merge_reused"

(* What the merge rounds of one [optimize] call remember (DESIGN.md §20):
   every distinguishing vector a proof found, and every Unsat or Unknown
   verdict under its [Justify.pair_key]. *)
type memory = {
  witnesses : Redundancy.tests;
  verdicts : (string, Justify.verdict) Hashtbl.t;
}

(* Merge functionally equivalent (or complementary) gates: candidates share a
   64xB-bit simulation signature; each pair is then proved by justifying
   [a XOR b] ([a XNOR b]) on the compiled circuit (UNSAT <=> equivalent),
   unless the memory already decides it. The survivor is the topologically
   earliest node, so retargeting cannot create cycles. This is the
   node-substitution move of RAR-family optimizers. *)
let merge_equivalents opts memory c ~seed =
  Obs.Span.with_ "rar.merge" (fun () ->
      let cmp = Compiled.of_circuit c in
      let batches = sim_batches cmp ~patterns:sim_patterns ~seed in
      (* The kept vectors' node values on this round's view: per batch, a
         buffer and the mask of the vectors it was simulated with. A merge
         keeps the function of every surviving node, so the values hold for
         the whole round; a batch is simulated again only after a proof has
         added a vector to it. *)
      let kept = ref [||] in
      let stale = ref true in
      let refresh () =
        let i = ref 0 in
        Redundancy.iter_batches memory.witnesses (fun words mask ->
            if !i = Array.length !kept then
              kept := Array.append !kept [| (Bytes.make (8 * Compiled.size cmp) '\000', ref 0L) |];
            let values, simulated = !kept.(!i) in
            if !simulated <> mask then begin
              Compiled.simulate_into cmp words values;
              simulated := mask
            end;
            incr i);
        stale := false
      in
      let separated ~complement a b =
        if !stale then refresh ();
        Array.exists
          (fun (values, mask) ->
            let differ = Int64.logxor (word values a) (word values b) in
            Int64.logand (if complement then Int64.lognot differ else differ) !mask <> 0L)
          !kept
      in
      let order = Compiled.order cmp in
      let topo_pos = Array.make (Circuit.size c) max_int in
      Array.iteri (fun i id -> topo_pos.(id) <- i) order;
      let signature id =
        let buf = Buffer.create 64 in
        Array.iter (fun values -> Buffer.add_string buf (Int64.to_string (word values id))) batches;
        Buffer.contents buf
      in
      let inv_signature id =
        let buf = Buffer.create 64 in
        Array.iter
          (fun values -> Buffer.add_string buf (Int64.to_string (Int64.lognot (word values id))))
          batches;
        Buffer.contents buf
      in
      let groups : (string, int list) Hashtbl.t = Hashtbl.create 97 in
      Array.iter
        (fun id ->
          match Circuit.kind c id with
          | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
          | _ ->
            let key = signature id in
            Hashtbl.replace groups key (id :: (try Hashtbl.find groups key with Not_found -> [])))
        order;
      (* One compiled view per circuit version: built at the first proof and
         again only after a merge has changed the circuit. *)
      let view = ref None in
      let prove ~complement a b =
        let justify =
          match !view with
          | Some j -> j
          | None ->
            let j = Justify.create ~backtrack_limit:opts.removal_backtracks c in
            view := Some j;
            j
        in
        let verdict = Justify.distinguish justify ~complement a b in
        Obs.Counter.incr
          (match verdict with
          | Justify.Unsat -> merge_unsat_c
          | Justify.Sat _ -> merge_sat_c
          | Justify.Unknown -> merge_unknown_c);
        verdict
      in
      let prove_equal ~complement a b =
        if separated ~complement a b then begin
          Obs.Counter.incr merge_separated_c;
          false
        end
        else begin
          let key = Justify.pair_key c ~complement a b in
          match Hashtbl.find_opt memory.verdicts key with
          | Some verdict ->
            Obs.Counter.incr merge_reused_c;
            verdict = Justify.Unsat
          | None -> (
            match prove ~complement a b with
            | Justify.Sat v ->
              Redundancy.keep memory.witnesses v;
              stale := true;
              false
            | (Justify.Unsat | Justify.Unknown) as verdict ->
              Hashtbl.replace memory.verdicts key verdict;
              verdict = Justify.Unsat)
        end
      in
      let merged = ref 0 in
      let try_merge ~complement rep m =
        if
          Circuit.is_alive c rep && Circuit.is_alive c m && rep <> m
          && topo_pos.(rep) < topo_pos.(m)
          && prove_equal ~complement rep m
        then begin
          let target =
            if complement then Circuit.add_gate c Gate.Not [| rep |] else rep
          in
          Circuit.retarget c ~from_:m ~to_:target;
          ignore (Circuit.sweep c);
          view := None;
          incr merged
        end
      in
      Hashtbl.iter
        (fun _key members ->
          match List.sort (fun a b -> compare topo_pos.(a) topo_pos.(b)) members with
          | [] | [ _ ] -> ()
          | rep :: rest -> List.iter (fun m -> try_merge ~complement:false rep m) rest)
        groups;
      (* complementary pairs: a gate whose inverted signature matches another *)
      Array.iter
        (fun id ->
          if Circuit.is_alive c id then
            match Circuit.kind c id with
            | Gate.Input | Gate.Const0 | Gate.Const1 -> ()
            | _ -> (
              match Hashtbl.find_opt groups (inv_signature id) with
              | None -> ()
              | Some members ->
                List.iter
                  (fun m ->
                    if Circuit.is_alive c m && topo_pos.(id) < topo_pos.(m) then
                      try_merge ~complement:true id m)
                  members))
        order;
      !merged)

let optimize ?(options = default_options) c =
  let opts = options in
  let rng = Rng.create opts.seed in
  let gates_before = Circuit.two_input_gate_count c in
  let removals = ref 0 in
  let additions = ref 0 in
  let removal_seed = ref (Rng.next64 rng) in
  (* One store for every removal call: vectors from rolled-back trials stay
     sound on the circuit they are simulated on. *)
  let tests = Redundancy.tests c in
  let remove () =
    let r =
      Redundancy.remove
        ~limits:
          { Limits.default with Limits.podem_backtracks = opts.removal_backtracks }
        ~prefilter_patterns:16_384 ~tests ~seed:!removal_seed c
    in
    removal_seed := Rng.next64 rng;
    removals := !removals + r.Redundancy.removed
  in
  remove ();
  (* node substitution rounds: merge equivalent/complementary gates, then
     clean up, until no merge is found *)
  let memory = { witnesses = Redundancy.tests c; verdicts = Hashtbl.create 97 } in
  let rec merge_rounds n =
    if n > 0 then begin
      let merged = merge_equivalents opts memory c ~seed:(Rng.next64 rng) in
      removals := !removals + merged;
      if merged > 0 then begin
        remove ();
        merge_rounds (n - 1)
      end
    end
  in
  merge_rounds 4;
  Obs.Span.with_ "rar.trials" (fun () ->
      let improving = ref true in
      while !improving && !additions < opts.max_additions do
        improving := false;
        let values =
          sim_batches (Compiled.of_circuit c) ~patterns:sim_patterns ~seed:(Rng.next64 rng)
        in
        let nodes =
          let acc = ref [] in
          Circuit.iter_live c (fun id -> acc := id :: !acc);
          Array.of_list !acc
        in
        let gates = Array.of_list (List.filter (is_andor c) (Array.to_list nodes)) in
        Rng.shuffle rng gates;
        let trials = ref 0 in
        let gi = ref 0 in
        while (not !improving) && !trials < opts.max_trials && !gi < Array.length gates do
          let gd = gates.(!gi) in
          incr gi;
          if Circuit.is_alive c gd && is_andor c gd then begin
            let tfo = transitive_fanout c gd in
            let already = Array.to_list (Circuit.fanins c gd) in
            let sources = Array.copy nodes in
            Rng.shuffle rng sources;
            let si = ref 0 in
            while (not !improving) && !trials < opts.max_trials && !si < Array.length sources
            do
              let ns = sources.(!si) in
              incr si;
              if
                Circuit.is_alive c ns && ns <> gd
                && Bytes.get tfo ns = '\000'
                && (not (List.mem ns already))
                && (match Circuit.kind c ns with
                   | Gate.Const0 | Gate.Const1 -> false
                   | _ -> true)
                && filter_passes c values gd ns
              then begin
                incr trials;
                let snapshot = Circuit.copy c in
                if try_addition c gd ns then begin
                  let before = Circuit.two_input_gate_count snapshot in
                  let saved_removals = !removals in
                  remove ();
                  if Circuit.two_input_gate_count c < before then begin
                    incr additions;
                    improving := true
                  end
                  else begin
                    (* unproductive addition: roll everything back *)
                    Circuit.overwrite c ~with_:snapshot;
                    removals := saved_removals
                  end
                end
              end
            done
          end
        done
      done);
  {
    additions = !additions;
    removals = !removals;
    gates_before;
    gates_after = Circuit.two_input_gate_count c;
  }
