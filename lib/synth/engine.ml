type objective =
  | Gates
  | Paths

type options = {
  k : int;
  max_candidates : int;
  engine : Comparison_fn.engine;
  merge : bool;
  max_passes : int;
  seed : int64;
  use_dontcares : bool;
  max_units : int;
  domains : int;
}

let default_options =
  {
    k = 6;
    max_candidates = 64;
    engine = Comparison_fn.Exact;
    merge = true;
    max_passes = 16;
    seed = 1L;
    use_dontcares = false;
    max_units = 1;
    domains = 0;
  }

(* Observability probes. *)
let candidates_c = Obs.Counter.make ~help:"subcircuit candidates enumerated" "engine.candidates"
let realised_c = Obs.Counter.make ~help:"candidates realised as units" "engine.realised"
let accepted_c = Obs.Counter.make ~help:"replacements spliced in" "engine.accepted"
let cut_size_h = Obs.Histogram.make ~help:"K-cut input counts" "engine.cut_size"

let verify_checks_c =
  Obs.Counter.make ~help:"whole-circuit CEC miter checks" "engine.verify_checks"

let verify_refused_c =
  Obs.Counter.make ~help:"replacements rolled back as unsound" "engine.verify_refused"

let verify_unknown_c =
  Obs.Counter.make ~help:"CEC checks hitting the conflict budget" "engine.verify_unknown"

let dirty_regions_c =
  Obs.Counter.make ~help:"splice footprints marked dirty" "engine.dirty_regions"

let dirty_nodes_h =
  Obs.Histogram.make ~help:"nodes newly dirtied per splice footprint" "engine.dirty_nodes"

let worklist_popped_c =
  Obs.Counter.make ~help:"dirty roots popped from the pass worklist"
    "engine.worklist_popped"

(* Retired with the deferred commit queue and never incremented: the perf
   benchmark's per-layer metrics still read the name and refuse a run on
   an unregistered counter, so it stays registered at 0. *)
let _ : Obs.Counter.t =
  Obs.Counter.make ~help:"retired: always 0 (splices land one at a time)"
    "engine.commit_waves"

(* Phase timers, summed per root and only while metrics are on. They are
   counters rather than spans because every span end is also a journal
   event, and a run scores thousands of roots. *)
let enumerate_ns_c =
  Obs.Counter.make ~help:"nanoseconds enumerating cuts (metrics on only)"
    "engine.enumerate_ns"

let score_ns_c =
  Obs.Counter.make
    ~help:"nanoseconds scoring cuts: extract, identify, cost (metrics on only)"
    "engine.score_ns"

(* The split of [score_ns], summed per candidate. *)
let extract_ns_c =
  Obs.Counter.make ~help:"nanoseconds extracting cut functions (metrics on only)"
    "engine.extract_ns"

let identify_ns_c =
  Obs.Counter.make
    ~help:"nanoseconds identifying cut functions, cache lookups included (metrics on only)"
    "engine.identify_ns"

let cost_ns_c =
  Obs.Counter.make ~help:"nanoseconds costing identified cuts (metrics on only)"
    "engine.cost_ns"

let elapsed_ns t0 t1 = max 0 (int_of_float ((t1 -. t0) *. 1e9))

(* The identification cache's probes (DESIGN.md §15). *)
let id_hits_c =
  Obs.Counter.make ~help:"identification verdicts served from the cache"
    "idcache.hits"

let id_misses_c =
  Obs.Counter.make ~help:"identification verdicts computed and cached" "idcache.misses"

(* Retired with the NPN class layer and never incremented: the perf
   benchmark's per-layer metrics still read both names and refuse a run
   on an unregistered counter, so they stay registered at 0. *)
let _ : Obs.Counter.t =
  Obs.Counter.make ~help:"retired: always 0 (NPN class layer removed)"
    "idcache.npn_hits"

let _ : Obs.Counter.t =
  Obs.Counter.make ~help:"retired: always 0 (NPN class layer removed)"
    "idcache.canon_ns"

let table_hits_h =
  Obs.Histogram.make ~help:"hits per cached table over the run (hit tables only)"
    "idcache.table_hits"

(* The production walk's identification cache, one per run (DESIGN.md
   §15): each distinct table's exact verdict, positive or negative, and
   the hits it served. A hit replays the spec verbatim, so the walk builds
   the same units as without the cache. *)
module Verdicts = Hashtbl.Make (struct
  type t = Truthtable.t

  let equal = Truthtable.equal
  let hash = Truthtable.hash
end)

type cached = {
  verdict : Comparison_fn.spec option;
  mutable hits : int;
}

type stats = {
  passes : int;
  replacements : int;
  gates_before : int;
  gates_after : int;
  paths_before : int;
  paths_after : int;
  verify_checks : int;
  verify_refused : int;
}

let pp_stats ppf s =
  Format.fprintf ppf
    "%d passes, %d replacements; gates %d -> %d; paths %d -> %d" s.passes
    s.replacements s.gates_before s.gates_after s.paths_before s.paths_after;
  if s.verify_checks > 0 then
    Format.fprintf ppf "; %d proved%s" s.verify_checks
      (if s.verify_refused > 0 then
         Printf.sprintf " (%d REFUSED as unsound)" s.verify_refused
       else "")

(* Paths on the root if the subcircuit is replaced by a unit with the
   given input paths: sum over inputs of N_p(input) * K_p(input). *)
let replaced_path_label labels (s : Subcircuit.t) input_paths =
  let acc = ref 0 in
  Array.iteri
    (fun j input -> acc := !acc + (labels.(input) * input_paths.(j)))
    s.Subcircuit.inputs;
  !acc

(* A scored candidate's unit. An exact identification keeps only its spec:
   [Comparison_unit.cost] gives the unit's gate count and input paths, so
   only the root's winner is built, in [choose]. The don't-care and
   multi-unit fallbacks build their unit to check or cover the function,
   and keep it. *)
type plan =
  | Spec of Comparison_fn.spec
  | Built of Comparison_unit.built

(* A candidate replacement: ['u] is [plan] while candidates are scored and
   [Comparison_unit.built] once one is chosen. *)
type 'u candidate = {
  sub : Subcircuit.t;
  unit_ : 'u;
  gain : int;  (** removable 2-input gates minus unit 2-input gates *)
  new_paths : int;  (** path label on the root after replacement *)
  exact : bool;  (** false for don't-care replacements (care-set verified) *)
}

(* Build the replacement unit for a subcircuit, trying in order: a single
   comparison unit, a multi-unit cover (Sec. 6, issue 2), and a single unit
   under controllability don't-cares (Sec. 6, issue 1; each exploited
   disagreement is proved unreachable first). [identify] is the plain
   identification engine, possibly behind the run's cache; the don't-care
   and multi-unit fallbacks are rng-dependent and stay uncached. *)
let realise opts rng ~identify ~sim c sub tt =
  let n = Array.length sub.Subcircuit.inputs in
  let with_dontcares () =
    if not opts.use_dontcares then None
    else
      match sim with
      | None -> None
      | Some (cmp0, batches) -> (
        let seen = Dontcare.observed cmp0 batches sub.Subcircuit.inputs in
        let dc = Truthtable.lnot seen in
        if Truthtable.is_const dc = Some false then None
        else begin
          let care_on = Truthtable.land_ tt seen in
          match Comparison_fn.identify_dc rng ~care_on ~dc with
          | None -> None
          | Some spec ->
            let built = Comparison_unit.build ~merge:opts.merge ~n spec in
            let g = Eval.output_table built.Comparison_unit.circuit 0 in
            let diff = Truthtable.minterms (Truthtable.lxor_ g tt) in
            if diff = [] then Some (Built built, true)
            else if Dontcare.prove_unreachable c sub.Subcircuit.inputs diff then
              Some (Built built, false)
            else None
        end)
  in
  let with_multi () =
    if opts.max_units <= 1 then None
    else
      match Multi_unit.find ~max_units:opts.max_units rng tt with
      | Some cover -> Some (Built (Multi_unit.build ~merge:opts.merge ~n cover), true)
      | None -> None
  in
  match identify tt with
  | Some spec -> Some (Spec spec, true)
  | None -> (
    (* a don't-care single unit is usually cheaper than a multi-unit cover *)
    match with_dontcares () with
    | Some r -> Some r
    | None -> with_multi ())

(* Each candidate draws from its own generator, derived from the engine
   seed, the root and its enumeration index (splitmix64 finaliser): the
   sampled, don't-care and multi-unit results depend on this derivation,
   so one stream shared by the whole walk would change them. *)
let candidate_seed base root idx =
  let z =
    Int64.add
      (Int64.logxor base (Int64.mul (Int64.of_int root) 0x9E3779B97F4A7C15L))
      (Int64.of_int idx)
  in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Scoring scratch shared by every pass of a run: the reusable enumeration
   dedup table (cleared per root) and the extraction buffer (re-allocated
   when the circuit outgrows it). *)
type scoring = {
  dedup : Subcircuit.dedup;
  mutable scratch : int64 array;
}

(* Footprint state of the production walk, threaded through every pass:
   the persistent dirty worklist and the output-reachable set that stands
   in for the reference walk's [marked] array. The bitsets grow on demand,
   so both survive circuit growth. *)
type run_state = {
  wl : Footprint.Worklist.t;
  reachable : Footprint.set;
}

(* The reference walk's [marked] array computes output-reachability on
   the fly (outputs seed it, every processed root propagates to its
   fanins). The production walk visits only dirty roots, so it needs the
   same predicate as a set: seeded here by one DFS from the outputs,
   extended with the fresh nodes of every splice. No other node ever
   becomes reachable — new edges
   only point at freshly spliced regions — and nodes that stop being
   reachable are dead (the post-splice sweep removes them), which the
   [is_gate] check already filters. *)
let reachable_from_outputs c =
  let s = Footprint.create (Circuit.size c) in
  let stack = ref [] in
  Array.iter (fun o -> stack := o :: !stack) (Circuit.outputs c);
  let continue_ = ref true in
  while !continue_ do
    match !stack with
    | [] -> continue_ := false
    | id :: rest ->
      stack := rest;
      if Circuit.is_alive c id && not (Footprint.mem s id) then begin
        Footprint.add s id;
        Array.iter (fun f -> stack := f :: !stack) (Circuit.fanins c id)
      end
  done;
  s

let make_run_state c =
  {
    wl = Footprint.Worklist.create ~all:true (Circuit.size c);
    reachable = reachable_from_outputs c;
  }

(* Score every cut of [root] in enumeration order, so the fold in
   [choose] tie-breaks on the first of equal candidates. With a [cache],
   each exact identification is looked up first and a miss is recorded at
   once. *)
let score_candidates ?cache ~sc opts ~sim labels c root =
  let timed = Obs.enabled () in
  let t0 = if timed then Obs.now () else 0. in
  let subs =
    Subcircuit.enumerate ~dedup:sc.dedup ~k:opts.k ~max_candidates:opts.max_candidates
      c root
  in
  let t1 = if timed then Obs.now () else 0. in
  Obs.Counter.add candidates_c (List.length subs);
  if Array.length sc.scratch < Circuit.size c then
    sc.scratch <- Array.make (Circuit.size c) 0L;
  let identify rng tt =
    match cache with
    | None -> Comparison_fn.identify opts.engine rng tt
    | Some cache -> (
      match Verdicts.find_opt cache tt with
      | Some e ->
        e.hits <- e.hits + 1;
        Obs.Counter.incr id_hits_c;
        e.verdict
      | None ->
        Obs.Counter.incr id_misses_c;
        let verdict = Comparison_fn.identify opts.engine rng tt in
        Verdicts.add cache tt { verdict; hits = 0 };
        verdict)
  in
  let eval idx sub =
    let rng = Rng.create (candidate_seed opts.seed root idx) in
    Obs.Histogram.observe cut_size_h (Array.length sub.Subcircuit.inputs);
    let ta = if timed then Obs.now () else 0. in
    let tt = Subcircuit.extract ~scratch:sc.scratch c sub in
    let tb = if timed then Obs.now () else 0. in
    let realised = realise opts rng ~identify:(identify rng) ~sim c sub tt in
    let tc = if timed then Obs.now () else 0. in
    let cand =
      match realised with
      | None -> None
      | Some (plan, exact) ->
        Obs.Counter.incr realised_c;
        let gates2, input_paths =
          match plan with
          | Spec spec -> Comparison_unit.cost ~n:(Array.length sub.Subcircuit.inputs) spec
          | Built b -> (b.Comparison_unit.gates2, b.Comparison_unit.input_paths)
        in
        let gain = Subcircuit.removable_cost c sub - gates2 in
        let new_paths = replaced_path_label labels sub input_paths in
        Some { sub; unit_ = plan; gain; new_paths; exact }
    in
    if timed then begin
      Obs.Counter.add extract_ns_c (elapsed_ns ta tb);
      Obs.Counter.add identify_ns_c (elapsed_ns tb tc);
      Obs.Counter.add cost_ns_c (elapsed_ns tc (Obs.now ()))
    end;
    cand
  in
  let cands = List.filter_map Fun.id (List.mapi eval subs) in
  if timed then begin
    Obs.Counter.add enumerate_ns_c (elapsed_ns t0 t1);
    Obs.Counter.add score_ns_c (elapsed_ns t1 (Obs.now ()))
  end;
  cands

(* Strictly-better-than ordering for the two objectives. [current_paths] is
   the Procedure-1 label on the root before replacement. *)
let better objective ~current_paths a b =
  match b with
  | None -> (
    (* is [a] an improvement over leaving the gate alone? *)
    match objective with
    | Gates -> a.gain > 0 || (a.gain = 0 && a.new_paths < current_paths)
    | Paths -> a.new_paths < current_paths)
  | Some b -> (
    match objective with
    | Gates -> a.gain > b.gain || (a.gain = b.gain && a.new_paths < b.new_paths)
    | Paths -> a.new_paths < b.new_paths)

(* Whole-circuit SAT verification of accepted replacements (DESIGN.md §10).
   [attempts] counts accepted splices across passes, and splice [idx] is
   proved when [idx mod every = 0]: the first acceptance of the run and
   every [every]-th after it. Production runs prove every
   [verify_every]-th; the test hook proves every splice. [inject_unsound]
   is the test hook's corruption index (0 = never, see [Test_hooks]). *)
type verify_state = {
  mutable attempts : int;
  mutable checks : int;
  mutable refused : int;
  every : int;
  inject_unsound : int;
}

let verify_every = 8

(* Kind with the complemented function, for the [inject_unsound] test hook. *)
let inverted_kind = function
  | Gate.Buf -> Some Gate.Not
  | Gate.Not -> Some Gate.Buf
  | Gate.And -> Some Gate.Nand
  | Gate.Nand -> Some Gate.And
  | Gate.Or -> Some Gate.Nor
  | Gate.Nor -> Some Gate.Or
  | Gate.Xor -> Some Gate.Xnor
  | Gate.Xnor -> Some Gate.Xor
  | Gate.Input | Gate.Const0 | Gate.Const1 -> None

let is_gate c id =
  Circuit.is_alive c id
  &&
  match Circuit.kind c id with
  | Gate.Input | Gate.Const0 | Gate.Const1 -> false
  | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor | Gate.Xor
  | Gate.Xnor -> true

(* The sweep boundary of a splice, computed on the pre-splice circuit: the
   live fanins of the nodes its sweep will remove, whose fanout degree the
   splice changes. [Replace.splice] retargets the root's readers onto the
   fresh unit and then sweeps global output-reachability; in a DAG whose
   only edge changes are that retarget, the sweep kills exactly the
   reference-count cascade from the root — a node dies iff it is neither a
   primary input, nor an output, nor a cut input the fresh unit reads (the
   unit's output cone does not necessarily use every cut position), and
   every one of its readers dies. The list is duplicate-free. *)
let sweep_boundary c (sub : Subcircuit.t) (built : Comparison_unit.built) =
  let unit_c = built.Comparison_unit.circuit in
  let used_unit = Array.make (Circuit.size unit_c) false in
  let rec mark_unit id =
    if not used_unit.(id) then begin
      used_unit.(id) <- true;
      Array.iter mark_unit (Circuit.fanins unit_c id)
    end
  in
  mark_unit (Circuit.outputs unit_c).(0);
  let used = Hashtbl.create 8 in
  Array.iteri
    (fun j pi ->
      if used_unit.(pi) then Hashtbl.replace used sub.Subcircuit.inputs.(j) ())
    (Circuit.inputs unit_c);
  let dead = Hashtbl.create 16 in
  let dead_list = ref [] in
  let kill id =
    Hashtbl.replace dead id ();
    dead_list := id :: !dead_list
  in
  kill sub.Subcircuit.root;
  let gone r = Hashtbl.mem dead r in
  (* Every kill re-examines the victim's fanins, so a fanin is re-checked
     whenever one of its readers dies: when its last reader goes, the
     check passes — the fixpoint needs no separate worklist. *)
  let rec cascade id =
    Array.iter
      (fun f ->
        if
          Circuit.is_alive c f
          && (not (gone f))
          && (match Circuit.kind c f with Gate.Input -> false | _ -> true)
          && (not (Hashtbl.mem used f))
          && (not (Circuit.is_output c f))
          && List.for_all gone (Circuit.fanouts c f)
        then begin
          kill f;
          cascade f
        end)
      (Circuit.fanins c id)
  in
  cascade sub.Subcircuit.root;
  let boundary = Hashtbl.create 16 in
  let boundary_list = ref [] in
  List.iter
    (fun d ->
      Array.iter
        (fun f ->
          if
            Circuit.is_alive c f
            && (not (gone f))
            && not (Hashtbl.mem boundary f)
          then begin
            Hashtbl.replace boundary f ();
            boundary_list := f :: !boundary_list
          end)
        (Circuit.fanins c d))
    !dead_list;
  !boundary_list

(* Simulation snapshot for don't-care analysis. Replacements only rewrite
   logic downstream of the gates still to be processed, so upstream node
   values stay valid for the whole pass. Compiling the circuit is pure
   overhead when don't-cares are off, so it only happens here. *)
let dontcare_sim opts c =
  if not opts.use_dontcares then None
  else begin
    let cmp0 = Compiled.of_circuit c in
    let sim_rng = Rng.create (Int64.logxor opts.seed 0x5FCAL) in
    let n_pi = Array.length (Compiled.inputs cmp0) in
    Some
      ( cmp0,
        Array.init 32 (fun _ ->
            Compiled.simulate cmp0 (Array.init n_pi (fun _ -> Rng.next64 sim_rng))) )
  end

(* The best improving candidate at root [g], if any, with its unit built. *)
let choose ?cache ~sc objective opts ~sim labels c g =
  List.fold_left
    (fun best cand ->
      if better objective ~current_paths:labels.(g) cand best then Some cand
      else best)
    None
    (score_candidates ?cache ~sc opts ~sim labels c g)
  |> Option.map (fun cand ->
         match cand.unit_ with
         | Built b -> { cand with unit_ = b }
         | Spec spec ->
           let n = Array.length cand.sub.Subcircuit.inputs in
           { cand with unit_ = Comparison_unit.build ~merge:opts.merge ~n spec })

(* Apply one decided splice, SAT-proving it against a snapshot when the
   sampling cadence asks for it. Returns false if the miter refused the
   replacement and rolled it back. *)
let apply vstate c ~root ~idx cand =
  let snapshot =
    if idx mod vstate.every = 0 then Some (Circuit.copy c) else None
  in
  let fresh = Replace.splice ~exact:cand.exact c cand.sub cand.unit_ in
  (if vstate.inject_unsound = idx + 1 then
     match inverted_kind (Circuit.kind c fresh) with
     | Some k -> Circuit.set_kind c fresh k
     | None -> ());
  let sound =
    match snapshot with
    | None -> true
    | Some before -> (
      vstate.checks <- vstate.checks + 1;
      Obs.Counter.incr verify_checks_c;
      match Cec.check before c with
      | Cec.Equivalent -> true
      | Cec.Unknown _ ->
        (* Budget exhausted is not evidence of unsoundness: the local
           checks already passed, so the replacement stands. *)
        Obs.Counter.incr verify_unknown_c;
        if Obs.Journal.enabled () then
          Obs.Journal.emit "cec_unknown"
            [ ("root", Obs_json.Int root); ("idx", Obs_json.Int idx) ];
        true
      | Cec.Counterexample _ ->
        Circuit.overwrite c ~with_:before;
        vstate.refused <- vstate.refused + 1;
        Obs.Counter.incr verify_refused_c;
        if Obs.Journal.enabled () then
          Obs.Journal.emit "splice_rollback"
            [
              ("root", Obs_json.Int root);
              ("idx", Obs_json.Int idx);
              ("reason", Obs_json.String "cec_counterexample");
            ];
        false)
  in
  if sound then begin
    Obs.Counter.incr accepted_c;
    if Obs.Journal.enabled () then
      Obs.Journal.emit "splice_accept"
        [
          ("root", Obs_json.Int root);
          ("idx", Obs_json.Int idx);
          ("gain", Obs_json.Int cand.gain);
          ("new_paths", Obs_json.Int cand.new_paths);
          ("cut", Obs_json.Int (Array.length cand.sub.Subcircuit.inputs));
          ("exact", Obs_json.Bool cand.exact);
        ]
  end;
  sound

(* One pass of the production walk (DESIGN.md §13, §17). It pops exactly
   the dirty roots, in descending topological order — the reference walk's
   outputs-towards-inputs order, in O(changes) pops instead of O(size)
   visits (the topological sort itself is already paid for by
   [Paths.labels]). A popped root is processed iff it is a live gate
   reachable from an output, which is precisely when the reference walk
   would have marked it; a clean root is never queued, because its
   evaluation would reproduce its previous rejection bit-exactly. Each
   accepted splice lands at once, as in the reference walk. *)
let run_pass ?cache objective opts vstate sc st c =
  let labels = Paths.labels c in
  let sim = dontcare_sim opts c in
  let replacements = ref 0 in
  (* Land the splice chosen at root [g]. Before it lands, dirty the fanout
     cone of its cut inputs, its member gates and its sweep boundary on the
     pre-splice graph: the sweep inside [Replace.splice] cascades upstream
     past the cut, and the survivors on that boundary change fanout degree
     — which [Subcircuit.removable_gates] reads. If the splice stands,
     dirty the nodes it imported (ids allocated past [since]) and their
     fanout cones, so the next pass re-evaluates the rebuilt region; fresh
     nodes are output-reachable by construction (the splice retargets the
     old root's readers onto them), so the reachability predicate learns
     them here. A refused splice was rolled back and leaves [g] dirty for
     the next pass, where the reference walk also re-evaluates it. *)
  let commit g cand =
    let sub = cand.sub in
    let idx = vstate.attempts in
    vstate.attempts <- idx + 1;
    Obs.Counter.incr dirty_regions_c;
    let seeds =
      Array.fold_left
        (fun acc input -> input :: acc)
        sub.Subcircuit.gates sub.Subcircuit.inputs
    in
    Obs.Histogram.observe dirty_nodes_h
      (Footprint.Worklist.mark_fanout_cone c st.wl
         (List.rev_append (sweep_boundary c sub cand.unit_) seeds));
    let since = Circuit.size c in
    if apply vstate c ~root:g ~idx cand then begin
      incr replacements;
      let fresh = ref [] in
      for id = Circuit.size c - 1 downto since do
        if Circuit.is_alive c id then begin
          fresh := id :: !fresh;
          Footprint.add st.reachable id
        end
      done;
      ignore (Footprint.Worklist.mark_fanout_cone c st.wl !fresh)
    end
  in
  let order = Circuit.topo_order c in
  let pos = Array.make (Circuit.size c) (-1) in
  Array.iteri (fun i id -> pos.(id) <- i) order;
  Footprint.Worklist.start_pass st.wl ~pos;
  let dirty = Footprint.Worklist.fp st.wl in
  let continue_ = ref true in
  while !continue_ do
    match Footprint.Worklist.pop st.wl with
    | None -> continue_ := false
    | Some g ->
      Obs.Counter.incr worklist_popped_c;
      if is_gate c g && Footprint.mem st.reachable g then begin
        Footprint.remove dirty g;
        match choose ?cache ~sc objective opts ~sim labels c g with
        | None -> ()
        | Some cand -> Obs.Span.with_ "engine.commit_flush" (fun () -> commit g cand)
      end
  done;
  !replacements

(* One pass of the paper's full walk, the oracle the production walk is
   tested against: every marked gate, outputs towards inputs. The paper
   numbers lines breadth-first from the inputs; descending topological
   order visits every line after all lines it feeds, which is what Step 2
   needs. Outputs start marked; an accepted replacement marks its cut
   inputs, a gate with no improving candidate marks its fanins. Every
   splice commits immediately and no footprint state is kept. *)
let run_pass_reference objective opts vstate sc c =
  let labels = Paths.labels c in
  let sim = dontcare_sim opts c in
  let replacements = ref 0 in
  let marked = Array.make (Circuit.size c) false in
  let mark id = if is_gate c id then marked.(id) <- true in
  Array.iter mark (Circuit.outputs c);
  let order = Circuit.topo_order c in
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    if is_gate c g && marked.(g) then begin
      let accepted =
        match choose ~sc objective opts ~sim labels c g with
        | None -> None
        | Some cand ->
          let idx = vstate.attempts in
          vstate.attempts <- idx + 1;
          (* A refused splice was rolled back, so [g] is intact: continue
             as if no candidate had improved on it. *)
          if apply vstate c ~root:g ~idx cand then Some cand else None
      in
      match accepted with
      | Some cand ->
        incr replacements;
        Array.iter mark cand.sub.Subcircuit.inputs
      | None -> Array.iter mark (Circuit.fanins c g)
    end
  done;
  !replacements

(* The widest cut [Subcircuit.extract] takes. *)
let max_k = 16

let run ?(every = verify_every) ?(inject_unsound = 0) ~reference objective opts c =
  if opts.k < 1 || opts.k > max_k then
    invalid_arg (Printf.sprintf "Engine.optimize: k = %d is outside 1..%d" opts.k max_k);
  (* Establish "alive implies output-reachable (or Input)" before the first
     pass. Every splice sweeps, so the invariant then holds for the whole
     run — and the production walk's [sweep_boundary] depends on it: a
     pre-existing unreachable node would count as a live reader when the
     cascade decides what a splice kills, while the splice's global sweep
     reaps it along with everything it was propping up. *)
  ignore (Circuit.sweep c);
  let gates_before = Circuit.two_input_gate_count c in
  let paths_before = Paths.total c in
  let passes = ref 0 in
  let replacements = ref 0 in
  let vstate = { attempts = 0; checks = 0; refused = 0; every; inject_unsound } in
  let sc = { dedup = Subcircuit.dedup (); scratch = [||] } in
  (* The reference walk identifies every cut afresh, so holding the
     production walk to it also proves the cache changes nothing. Only the
     exact engine's verdicts are cached: the sampled engine consumes the
     candidate's random stream, which a replayed verdict would skip. *)
  let cache =
    match opts.engine with
    | Comparison_fn.Exact when not reference -> Some (Verdicts.create 1024)
    | Comparison_fn.Exact | Comparison_fn.Sampled _ -> None
  in
  let run_pass =
    if reference then fun () -> run_pass_reference objective opts vstate sc c
    else begin
      (* The dirty set starts all-true (the first pass looks at
         everything) and persists across passes: a pass only re-evaluates
         roots whose region some earlier splice touched. *)
      let st = make_run_state c in
      fun () -> run_pass ?cache objective opts vstate sc st c
    end
  in
  let continue = ref true in
  while !continue && !passes < opts.max_passes do
    incr passes;
    let r = Obs.Span.with_ "engine.pass" run_pass in
    replacements := !replacements + r;
    if r = 0 then continue := false
  done;
  (* How much each cached verdict paid for itself, once per run. *)
  Option.iter
    (Verdicts.iter (fun _ e ->
         if e.hits > 0 then Obs.Histogram.observe table_hits_h e.hits))
    cache;
  {
    passes = !passes;
    replacements = !replacements;
    gates_before;
    gates_after = Circuit.two_input_gate_count c;
    paths_before;
    paths_after = Paths.total c;
    verify_checks = vstate.checks;
    verify_refused = vstate.refused;
  }

let optimize objective opts c = run ~reference:false objective opts c
let optimize_reference objective opts c = run ~reference:true objective opts c

module Test_hooks = struct
  let optimize_unsound ?(reference = false) ~nth objective opts c =
    run ~every:1 ~inject_unsound:nth ~reference objective opts c
end
