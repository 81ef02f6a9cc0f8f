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
  Obs.Counter.make ~help:"standing splices whose footprints were marked dirty"
    "engine.dirty_regions"

let dirty_nodes_h =
  Obs.Histogram.make ~help:"nodes newly dirtied per standing splice" "engine.dirty_nodes"

(* Named for the position heap the scan replaced; the perf benchmark
   reads the name. *)
let worklist_popped_c =
  Obs.Counter.make ~help:"dirty roots the pass scan reached, live or swept"
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

let replay_ns_c =
  Obs.Counter.make
    ~help:"nanoseconds scoring roots from their replay records (metrics on only)"
    "engine.replay_ns"

let elapsed_ns t0 t1 = max 0 (int_of_float ((t1 -. t0) *. 1e9))

(* The production walk's two shortcuts (DESIGN.md §13.2). *)
let pruned_c =
  Obs.Counter.make ~help:"candidates a bound proved unable to win, never identified"
    "engine.pruned"

let replayed_c =
  Obs.Counter.make ~help:"roots scored from their replay record, not enumerated"
    "engine.replayed"

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
   §15): each distinct table's exact verdict, positive (its spec's code in
   the run's registry) or negative ([no_spec]), and the hits it served. A
   hit replays the spec verbatim, so the walk builds the same units as
   without the cache. *)
module Verdicts = Hashtbl.Make (struct
  type t = Truthtable.t

  let equal = Truthtable.equal
  let hash = Truthtable.hash
end)

type cached = {
  verdict : int;
  mutable hits : int;
}

(* A cut's verdict code, in the cache and in replay records: a spec's
   index in the run's registry, [no_spec] when identification found none
   and no fallback is configured, or [unscored] when the cut must be
   realised when it is next scored (a bound skipped it, or a fallback
   built its unit, which depends on more than the table). *)
let no_spec = -2
let unscored = -1

(* The production walk's identified specs, each with its unit cost, so a
   cache hit or a replayed verdict costs nothing to score. *)
type registry = {
  mutable specs : Comparison_fn.spec array;
  mutable gates2 : int array;
  mutable paths : int array array;
  mutable len : int;
}

let register reg ~n spec =
  if reg.len = Array.length reg.specs then begin
    let grow a fill =
      let b = Array.make (max 64 (2 * reg.len)) fill in
      Array.blit a 0 b 0 reg.len;
      b
    in
    reg.specs <- grow reg.specs spec;
    reg.gates2 <- grow reg.gates2 0;
    reg.paths <- grow reg.paths [||]
  end;
  let gates2, input_paths = Comparison_unit.cost ~n spec in
  let id = reg.len in
  reg.specs.(id) <- spec;
  reg.gates2.(id) <- gates2;
  reg.paths.(id) <- input_paths;
  reg.len <- id + 1;
  id

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

(* The fallbacks tried when plain identification finds no spec: a single
   unit under controllability don't-cares (Sec. 6, issue 1; each exploited
   disagreement is proved unreachable first), then a multi-unit cover
   (Sec. 6, issue 2). Both are rng-dependent, stay uncached, and build
   their unit to check or cover the function. [rng] returns the
   candidate's one generator. *)
let fallback opts rng ~sim c sub tt =
  let n = Array.length sub.Subcircuit.inputs in
  let with_dontcares () =
    if not opts.use_dontcares then None
    else
      match sim with
      | None -> None
      | Some batches -> (
        let seen = Dontcare.observed batches sub.Subcircuit.inputs in
        let dc = Truthtable.lnot seen in
        if Truthtable.is_const dc = Some false then None
        else begin
          let care_on = Truthtable.land_ tt seen in
          match Comparison_fn.identify_dc (rng ()) ~care_on ~dc with
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
      match Multi_unit.find ~max_units:opts.max_units (rng ()) tt with
      | Some cover -> Some (Built (Multi_unit.build ~merge:opts.merge ~n cover), true)
      | None -> None
  in
  (* a don't-care single unit is usually cheaper than a multi-unit cover *)
  match with_dontcares () with
  | Some r -> Some r
  | None -> with_multi ()

let has_fallback opts = opts.use_dontcares || opts.max_units > 1

(* Build the replacement unit for a subcircuit: a single comparison unit,
   else the fallbacks. [identify] is the plain identification engine. *)
let realise opts rng ~identify ~sim c sub tt =
  match identify tt with
  | Some spec -> Some (Spec spec, true)
  | None -> fallback opts (fun () -> rng) ~sim c sub tt

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
   dedup table (cleared per root) and the kernels' word buffer and marks
   (grown with the circuit). *)
type scoring = {
  dedup : Subcircuit.dedup;
  kern : Subcircuit.scratch;
}

(* The reference walk's scoring: every cut of [root] in enumeration order,
   each extracted, identified afresh and costed, so the fold in
   [choose_reference] tie-breaks on the first of equal candidates. *)
let score_candidates ~sc opts ~sim labels c root =
  let timed = Obs.enabled () in
  let t0 = if timed then Obs.now () else 0. in
  let subs =
    Subcircuit.enumerate ~dedup:sc.dedup ~k:opts.k ~max_candidates:opts.max_candidates
      c root
  in
  let t1 = if timed then Obs.now () else 0. in
  Obs.Counter.add candidates_c (List.length subs);
  let eval idx sub =
    let rng = Rng.create (candidate_seed opts.seed root idx) in
    Obs.Histogram.observe cut_size_h (Array.length sub.Subcircuit.inputs);
    let ta = if timed then Obs.now () else 0. in
    let tt = Subcircuit.extract ~scratch:sc.kern c sub in
    let tb = if timed then Obs.now () else 0. in
    let realised =
      realise opts rng ~identify:(Comparison_fn.identify opts.engine rng) ~sim c sub tt
    in
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
        let gain = Subcircuit.removable_cost ~scratch:sc.kern c sub - gates2 in
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

(* --- The production walk's scoring (DESIGN.md §13.2) ------------------ *)

(* Replay records, one per evaluated root: a [Bytes.t] of its cuts in
   enumeration order, each [record_head] bytes of header — the cut width
   (u8), its essential-input mask (u16, bit [j] for [inputs.(j)]) and its
   verdict code (i32) — then the cut's sorted input ids (i32 each). The
   records hold no pointer, so they cost the GC nothing to scan. [depth]
   is the root's {!Subcircuit.read_depth}, -1 without a record;
   [max_depth] is the largest recorded, and [seen] and [stamp] are the
   invalidation search's visited marks. *)
type replay = {
  mutable records : Bytes.t array;
  mutable depth : int array;
  mutable max_depth : int;
  mutable seen : int array;
  mutable stamp : int;
  buf : Buffer.t;
}

let record_head = 7

(* The production walk's per-run scoring state. *)
type prod = {
  cache : cached Verdicts.t option;
  reg : registry;
  rp : replay;
}

let has_record rp id = id < Array.length rp.depth && rp.depth.(id) >= 0

let drop_record rp id =
  if has_record rp id then begin
    rp.depth.(id) <- -1;
    rp.records.(id) <- Bytes.empty
  end

let drop_all_records rp =
  Array.fill rp.depth 0 (Array.length rp.depth) (-1);
  Array.fill rp.records 0 (Array.length rp.records) Bytes.empty

let store_record rp root depth =
  let n = Array.length rp.depth in
  if root >= n then begin
    let cap = max (root + 1) (2 * n) in
    let depth' = Array.make cap (-1) and records' = Array.make cap Bytes.empty in
    Array.blit rp.depth 0 depth' 0 n;
    Array.blit rp.records 0 records' 0 n;
    rp.depth <- depth';
    rp.records <- records'
  end;
  rp.depth.(root) <- depth;
  rp.records.(root) <- Buffer.to_bytes rp.buf;
  if depth > rp.max_depth then rp.max_depth <- depth

let add_cut buf (sub : Subcircuit.t) ~mask verdict =
  Buffer.add_uint8 buf (Array.length sub.Subcircuit.inputs);
  Buffer.add_uint16_le buf mask;
  Buffer.add_int32_le buf (Int32.of_int verdict);
  Array.iter (fun i -> Buffer.add_int32_le buf (Int32.of_int i)) sub.Subcircuit.inputs

(* Before a splice at [root] lands: drop the record of every root whose
   enumeration may have read the fanins of a gate the splice rewires —
   [root]'s readers, which [Replace.splice] retargets onto the fresh unit.
   A root's enumeration reads only gates within its recorded depth of it
   along fanin edges, so a breadth-first search over fanout edges from the
   readers, on the pre-splice graph and [max_depth] deep, finds every
   such root at its shortest distance; a record is dropped when that
   distance is within its own depth. Nodes the splice's sweep removes
   need no search of their own: a live root reads a swept node only
   through a rewired reader (DESIGN.md §13.2). *)
let invalidate_readers rp c root =
  drop_record rp root;
  let size = Circuit.size c in
  if Array.length rp.seen < size then rp.seen <- Array.make (max size (2 * Array.length rp.seen)) 0;
  rp.stamp <- rp.stamp + 1;
  let stamp = rp.stamp in
  let frontier = ref [] in
  List.iter
    (fun r ->
      if rp.seen.(r) <> stamp then begin
        rp.seen.(r) <- stamp;
        frontier := r :: !frontier
      end)
    (Circuit.fanouts c root);
  let d = ref 0 in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun v ->
        if has_record rp v && rp.depth.(v) >= !d then drop_record rp v;
        if !d < rp.max_depth then
          List.iter
            (fun r ->
              if rp.seen.(r) <> stamp then begin
                rp.seen.(r) <- stamp;
                next := r :: !next
              end)
            (Circuit.fanouts c v))
      !frontier;
    frontier := !next;
    incr d
  done

(* Sum of the path labels of the inputs in [mask]: a lower bound on the
   root's label after any replacement of the cut (DESIGN.md §13.2). *)
let essential_label labels (inputs : int array) mask =
  let acc = ref 0 in
  Array.iteri (fun j i -> if mask land (1 lsl j) <> 0 then acc := !acc + labels.(i)) inputs;
  !acc

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(* Identify through the run's cache (exact engine) or afresh, registering
   a found spec; returns its verdict code. *)
let identify_code p opts rng ~n tt =
  let fresh () =
    match Comparison_fn.identify opts.engine (rng ()) tt with
    | Some spec -> register p.reg ~n spec
    | None -> no_spec
  in
  match p.cache with
  | None -> fresh ()
  | Some cache -> (
    match Verdicts.find_opt cache tt with
    | Some e ->
      e.hits <- e.hits + 1;
      Obs.Counter.incr id_hits_c;
      e.verdict
    | None ->
      Obs.Counter.incr id_misses_c;
      let verdict = fresh () in
      Verdicts.add cache tt { verdict; hits = 0 };
      verdict)

(* Score cut [idx] of [root] against [best], the best improving candidate
   so far, and return the verdict code to record for it. [verdict] is the
   cut's recorded code ([unscored] for a fresh cut), [mask] its essential
   inputs and [tt] its table when already extracted. An [unscored] cut is
   first held to the objective's bound, and skipped when the bound proves
   it cannot beat [best]; otherwise it is realised exactly as the
   reference walk realises it: its own generator, the configured engine,
   then the fallbacks. *)
let score_cut p ~sc ~split objective opts ~sim labels c ~best ~root idx sub ~tt ~mask
    verdict =
  let t0 = if split then Obs.now () else 0. in
  let identify_ns = ref 0 in
  let removable = ref (-1) in
  let removable_cost () =
    if !removable < 0 then removable := Subcircuit.removable_cost ~scratch:sc.kern c sub;
    !removable
  in
  (* A don't-care unit may drop inputs, so the bounds' premise fails. *)
  let pruned =
    verdict = unscored && (not opts.use_dontcares)
    &&
    match objective with
    | Gates -> (
      let most = removable_cost () - (popcount mask - 1) in
      match !best with None -> most < 0 | Some b -> most < b.gain)
    | Paths -> (
      let least = essential_label labels sub.Subcircuit.inputs mask in
      match !best with None -> least >= labels.(root) | Some b -> least >= b.new_paths)
  in
  if pruned then begin
    Obs.Counter.incr pruned_c;
    if split then Obs.Counter.add cost_ns_c (elapsed_ns t0 (Obs.now ()));
    verdict
  end
  else begin
    let n = Array.length sub.Subcircuit.inputs in
    let verdict, realised =
      if verdict >= 0 then (verdict, Some (Spec p.reg.specs.(verdict), true))
      else if verdict = no_spec then (verdict, None)
      else begin
        let tt = match tt with Some tt -> tt | None -> Subcircuit.extract ~scratch:sc.kern c sub in
        (* The generator is made only when a draw needs it; the exact
           engine never draws. *)
        let gen = ref None in
        let rng () =
          match !gen with
          | Some r -> r
          | None ->
            let r = Rng.create (candidate_seed opts.seed root idx) in
            gen := Some r;
            r
        in
        let ta = if split then Obs.now () else 0. in
        let r =
          let code = identify_code p opts rng ~n tt in
          if code >= 0 then (code, Some (Spec p.reg.specs.(code), true))
          else
            ( (if has_fallback opts then unscored else no_spec),
              fallback opts rng ~sim c sub tt )
        in
        if split then identify_ns := elapsed_ns ta (Obs.now ());
        r
      end
    in
    (match realised with
    | None -> ()
    | Some (plan, exact) ->
      Obs.Counter.incr realised_c;
      let gates2, input_paths =
        match plan with
        | Spec _ -> (p.reg.gates2.(verdict), p.reg.paths.(verdict))
        | Built b -> (b.Comparison_unit.gates2, b.Comparison_unit.input_paths)
      in
      let new_paths = replaced_path_label labels sub input_paths in
      let current_paths = labels.(root) in
      (* Under [Paths] the gain only rides along, so it is counted only for
         a candidate that takes the lead. *)
      let cand = { sub; unit_ = plan; gain = 0; new_paths; exact } in
      match objective with
      | Gates ->
        let cand = { cand with gain = removable_cost () - gates2 } in
        if better objective ~current_paths cand !best then best := Some cand
      | Paths ->
        if better objective ~current_paths cand !best then
          best := Some { cand with gain = removable_cost () - gates2 });
    if split then begin
      Obs.Counter.add identify_ns_c !identify_ns;
      Obs.Counter.add cost_ns_c (elapsed_ns t0 (Obs.now ()) - !identify_ns)
    end;
    verdict
  end

(* Score a root whose cuts are enumerated afresh, and record them. *)
let score_fresh p ~sc objective opts ~sim labels c root =
  let timed = Obs.enabled () in
  let t0 = if timed then Obs.now () else 0. in
  let subs =
    Subcircuit.enumerate ~dedup:sc.dedup ~k:opts.k ~max_candidates:opts.max_candidates
      c root
  in
  let t1 = if timed then Obs.now () else 0. in
  Obs.Counter.add candidates_c (List.length subs);
  Buffer.clear p.rp.buf;
  let best = ref None in
  List.iteri
    (fun idx sub ->
      Obs.Histogram.observe cut_size_h (Array.length sub.Subcircuit.inputs);
      let ta = if timed then Obs.now () else 0. in
      let tt = Subcircuit.extract ~scratch:sc.kern c sub in
      let mask = Truthtable.support_mask tt in
      if timed then Obs.Counter.add extract_ns_c (elapsed_ns ta (Obs.now ()));
      let verdict =
        score_cut p ~sc ~split:timed objective opts ~sim labels c ~best ~root idx sub
          ~tt:(Some tt) ~mask unscored
      in
      add_cut p.rp.buf sub ~mask verdict)
    subs;
  store_record p.rp root (Subcircuit.read_depth sc.dedup);
  if timed then begin
    Obs.Counter.add enumerate_ns_c (elapsed_ns t0 t1);
    Obs.Counter.add score_ns_c (elapsed_ns t1 (Obs.now ()))
  end;
  !best

(* Score a root from its record: the same cuts in the same order, each
   rebuilt from its inputs, with costs, labels and bounds recomputed on
   the current circuit and recorded verdicts reused. A verdict this
   scoring settles is written back into the record. *)
let score_replay p ~sc objective opts ~sim labels c root =
  let timed = Obs.enabled () in
  let t0 = if timed then Obs.now () else 0. in
  Obs.Counter.incr replayed_c;
  let record = p.rp.records.(root) in
  let best = ref None in
  let pos = ref 0 and idx = ref 0 in
  while !pos < Bytes.length record do
    let at = !pos in
    let n = Bytes.get_uint8 record at in
    let mask = Bytes.get_uint16_le record (at + 1) in
    let verdict = Int32.to_int (Bytes.get_int32_le record (at + 3)) in
    Obs.Histogram.observe cut_size_h n;
    if verdict <> no_spec then begin
      let inputs =
        Array.init n (fun j -> Int32.to_int (Bytes.get_int32_le record (at + record_head + (4 * j))))
      in
      let sub = Subcircuit.of_cut ~scratch:sc.kern c ~root ~inputs in
      let settled =
        score_cut p ~sc ~split:false objective opts ~sim labels c ~best ~root !idx sub
          ~tt:None ~mask verdict
      in
      if settled <> verdict then Bytes.set_int32_le record (at + 3) (Int32.of_int settled)
    end;
    pos := at + record_head + (4 * n);
    incr idx
  done;
  Obs.Counter.add candidates_c !idx;
  if timed then Obs.Counter.add replay_ns_c (elapsed_ns t0 (Obs.now ()));
  !best

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
      (Array.init 32 (fun _ ->
           let words = Bytes.make (8 * Compiled.size cmp0) '\000' in
           Compiled.simulate_into cmp0 (Array.init n_pi (fun _ -> Rng.next64 sim_rng)) words;
           words))
  end

(* A chosen candidate with its unit built. *)
let build_unit opts cand =
  match cand.unit_ with
  | Built b -> { cand with unit_ = b }
  | Spec spec ->
    let n = Array.length cand.sub.Subcircuit.inputs in
    { cand with unit_ = Comparison_unit.build ~merge:opts.merge ~n spec }

(* The reference walk's choice at root [g]: the best improving candidate,
   if any, with its unit built. *)
let choose_reference ~sc objective opts ~sim labels c g =
  List.fold_left
    (fun best cand ->
      if better objective ~current_paths:labels.(g) cand best then Some cand
      else best)
    None
    (score_candidates ~sc opts ~sim labels c g)
  |> Option.map (build_unit opts)

(* The production walk's choice at root [g]: the same candidate, scored
   from [g]'s record when it has one. *)
let choose p ~sc objective opts ~sim labels c g =
  (if has_record p.rp g then score_replay else score_fresh)
    p ~sc objective opts ~sim labels c g
  |> Option.map (build_unit opts)

(* Apply one decided splice, SAT-proving it against a snapshot when the
   sampling cadence asks for it. Returns the splice's sweep boundary, or
   [None] if the miter refused the replacement and rolled it back. *)
let apply vstate c ~root ~idx cand =
  let snapshot =
    if idx mod vstate.every = 0 then Some (Circuit.copy c) else None
  in
  let fresh, boundary = Replace.splice ~exact:cand.exact c cand.sub cand.unit_ in
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
        ];
    Some boundary
  end
  else None

(* One pass of the production walk (DESIGN.md §13, §17): the reference
   walk's loop with its [marked] array replaced by the run's dirty set. A
   dirty root is counted as popped and, if it is a live gate, cleared and
   scored. Every live gate is one the reference walk would mark, since the
   circuit stays swept, and a clean root is skipped because scoring it
   would reproduce its previous rejection bit-exactly. Marks a splice sets
   upstream of the scan are reached later in the pass; marks downstream
   of it, and the fresh nodes, which [order] does not hold, wait for the
   next pass. Each accepted splice lands at once, as in the reference
   walk. *)
let run_pass p objective opts vstate sc dirty c =
  let labels = Paths.labels c in
  let sim = dontcare_sim opts c in
  let replacements = ref 0 in
  (* Land the splice chosen at root [g]. If it stands, dirty the fanout
     cone, on the post-splice graph, of everything whose fanouts it
     changed or that it created: the sweep's boundary (the sweep can
     cascade upstream past the cut, and [Subcircuit.removable_cost] reads
     fanout degrees), the cut inputs, the surviving members and the nodes
     imported past [since]. A refused splice was rolled back: [g] goes
     back into the dirty set, so the next pass re-evaluates it as the
     reference walk does. Replay records that the splice's rewiring can
     reach are dropped before it lands, and every record when it is
     rolled back. *)
  let commit g cand =
    let sub = cand.sub in
    let idx = vstate.attempts in
    vstate.attempts <- idx + 1;
    invalidate_readers p.rp c g;
    let since = Circuit.size c in
    match apply vstate c ~root:g ~idx cand with
    | None ->
      drop_all_records p.rp;
      Footprint.add dirty g
    | Some boundary ->
      incr replacements;
      Obs.Counter.incr dirty_regions_c;
      let fresh = List.init (Circuit.size c - since) (( + ) since) in
      let seeds =
        List.concat
          [ boundary; Array.to_list sub.Subcircuit.inputs; sub.Subcircuit.gates; fresh ]
      in
      Obs.Histogram.observe dirty_nodes_h (Footprint.mark_fanout_cone c dirty seeds)
  in
  let order = Circuit.topo_order c in
  for i = Array.length order - 1 downto 0 do
    let g = order.(i) in
    if Footprint.mem dirty g then begin
      Obs.Counter.incr worklist_popped_c;
      if is_gate c g then begin
        Footprint.remove dirty g;
        match choose p ~sc objective opts ~sim labels c g with
        | None -> ()
        | Some cand -> Obs.Span.with_ "engine.commit_flush" (fun () -> commit g cand)
      end
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
        match choose_reference ~sc objective opts ~sim labels c g with
        | None -> None
        | Some cand ->
          let idx = vstate.attempts in
          vstate.attempts <- idx + 1;
          (* A refused splice was rolled back, so [g] is intact: continue
             as if no candidate had improved on it. *)
          Option.map (fun _ -> cand) (apply vstate c ~root:g ~idx cand)
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
     pass. Every splice sweeps and a rollback restores a swept circuit, so
     the invariant then holds for the whole run, and the production walk's
     [is_gate] test is the reference walk's marking predicate: a live
     unreachable gate would be scored by one walk and never marked by the
     other. *)
  ignore (Circuit.sweep c);
  let gates_before = Circuit.two_input_gate_count c in
  let paths_before = Paths.total c in
  let passes = ref 0 in
  let replacements = ref 0 in
  let vstate = { attempts = 0; checks = 0; refused = 0; every; inject_unsound } in
  let sc = { dedup = Subcircuit.dedup (); kern = Subcircuit.scratch () } in
  (* The reference walk scores every cut afresh, with no bound, record or
     cache, so holding the production walk to it also proves those change
     nothing. Only the exact engine's verdicts are cached: the sampled
     engine draws on the candidate's random stream, so its verdict belongs
     to the candidate, not the table (a replay record, which keeps the
     candidate's root and index, may keep it). *)
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
      let dirty = Footprint.create ~all:true (Circuit.size c) in
      let p =
        {
          cache;
          reg = { specs = [||]; gates2 = [||]; paths = [||]; len = 0 };
          rp =
            {
              records = [||];
              depth = [||];
              max_depth = 0;
              seen = [||];
              stamp = 0;
              buf = Buffer.create 1024;
            };
        }
      in
      fun () -> run_pass p objective opts vstate sc dirty c
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
