(* Reference RAR: [Rar.optimize] as it was before its merge rounds kept a
   memory, proving every candidate pair afresh with [Justify.distinguish].
   The identity tests in [Test_rar] hold the library's merge memory to it:
   the same netlist text and the same stats. Only the signatures' batch
   simulation moved to [Compiled.simulate_into] buffers; the pairs, their
   order, the proofs and the RNG stream are the old ones. *)

let sim_patterns = 1024
let addition_backtracks = 500

let is_andor c id =
  match Circuit.kind c id with
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> true
  | Gate.Input | Gate.Const0 | Gate.Const1 | Gate.Buf | Gate.Not | Gate.Xor
  | Gate.Xnor -> false

(* Per batch, every node's 64-pattern word, boxed as the old code kept it. *)
let sim_batches c ~patterns ~seed =
  let cmp = Compiled.of_circuit c in
  let rng = Rng.create seed in
  let n_pi = Array.length (Compiled.inputs cmp) in
  let batches = max 1 ((patterns + 63) / 64) in
  Array.init batches (fun _ ->
      let v = Bytes.make (8 * Compiled.size cmp) '\000' in
      Compiled.simulate_into cmp (Array.init n_pi (fun _ -> Rng.next64 rng)) v;
      Array.init (Compiled.size cmp) (fun id -> Bytes.get_int64_ne v (8 * id)))

let filter_passes c values_batches gd ns =
  let kind = Circuit.kind c gd in
  let invert = Gate.inverting kind in
  let or_like = match kind with Gate.Or | Gate.Nor -> true | _ -> false in
  Array.for_all
    (fun values ->
      let out = if invert then Int64.lognot values.(gd) else values.(gd) in
      let conflict =
        if or_like then Int64.logand (Int64.lognot out) values.(ns)
        else Int64.logand out (Int64.lognot values.(ns))
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

let merge_equivalents (opts : Rar.options) c ~seed =
  let batches = sim_batches c ~patterns:sim_patterns ~seed in
  let order = Circuit.topo_order c in
  let topo_pos = Array.make (Circuit.size c) max_int in
  Array.iteri (fun i id -> topo_pos.(id) <- i) order;
  let signature id =
    let buf = Buffer.create 64 in
    Array.iter (fun values -> Buffer.add_string buf (Int64.to_string values.(id))) batches;
    Buffer.contents buf
  in
  let inv_signature id =
    let buf = Buffer.create 64 in
    Array.iter
      (fun values -> Buffer.add_string buf (Int64.to_string (Int64.lognot values.(id))))
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
  let view = ref None in
  let prove_equal ~complement a b =
    let justify =
      match !view with
      | Some j -> j
      | None ->
        let j = Justify.create ~backtrack_limit:opts.Rar.removal_backtracks c in
        view := Some j;
        j
    in
    Justify.distinguish justify ~complement a b = Justify.Unsat
  in
  let merged = ref 0 in
  let try_merge ~complement rep m =
    if
      Circuit.is_alive c rep && Circuit.is_alive c m && rep <> m
      && topo_pos.(rep) < topo_pos.(m)
      && prove_equal ~complement rep m
    then begin
      let target = if complement then Circuit.add_gate c Gate.Not [| rep |] else rep in
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
  !merged

let optimize ?(options = Rar.default_options) c =
  let opts = options in
  let rng = Rng.create opts.Rar.seed in
  let gates_before = Circuit.two_input_gate_count c in
  let removals = ref 0 in
  let additions = ref 0 in
  let removal_seed = ref (Rng.next64 rng) in
  let tests = Redundancy.tests c in
  let remove () =
    let r =
      Redundancy.remove
        ~limits:{ Limits.default with Limits.podem_backtracks = opts.Rar.removal_backtracks }
        ~prefilter_patterns:16_384 ~tests ~seed:!removal_seed c
    in
    removal_seed := Rng.next64 rng;
    removals := !removals + r.Redundancy.removed
  in
  remove ();
  let rec merge_rounds n =
    if n > 0 then begin
      let merged = merge_equivalents opts c ~seed:(Rng.next64 rng) in
      removals := !removals + merged;
      if merged > 0 then begin
        remove ();
        merge_rounds (n - 1)
      end
    end
  in
  merge_rounds 4;
  let improving = ref true in
  while !improving && !additions < opts.Rar.max_additions do
    improving := false;
    let values = sim_batches c ~patterns:sim_patterns ~seed:(Rng.next64 rng) in
    let nodes =
      let acc = ref [] in
      Circuit.iter_live c (fun id -> acc := id :: !acc);
      Array.of_list !acc
    in
    let gates = Array.of_list (List.filter (is_andor c) (Array.to_list nodes)) in
    Rng.shuffle rng gates;
    let trials = ref 0 in
    let gi = ref 0 in
    while (not !improving) && !trials < opts.Rar.max_trials && !gi < Array.length gates do
      let gd = gates.(!gi) in
      incr gi;
      if Circuit.is_alive c gd && is_andor c gd then begin
        let tfo = transitive_fanout c gd in
        let already = Array.to_list (Circuit.fanins c gd) in
        let sources = Array.copy nodes in
        Rng.shuffle rng sources;
        let si = ref 0 in
        while (not !improving) && !trials < opts.Rar.max_trials && !si < Array.length sources do
          let ns = sources.(!si) in
          incr si;
          if
            Circuit.is_alive c ns && ns <> gd
            && Bytes.get tfo ns = '\000'
            && (not (List.mem ns already))
            && (match Circuit.kind c ns with Gate.Const0 | Gate.Const1 -> false | _ -> true)
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
                Circuit.overwrite c ~with_:snapshot;
                removals := saved_removals
              end
            end
          end
        done
      end
    done
  done;
  {
    Rar.additions = !additions;
    removals = !removals;
    gates_before;
    gates_after = Circuit.two_input_gate_count c;
  }
