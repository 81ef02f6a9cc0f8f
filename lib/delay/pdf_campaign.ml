type result = {
  total_paths : int;
  total_faults : int;
  detected : int;
  last_effective_pattern : int;
  patterns_applied : int;
}

let pp_result ppf r =
  Format.fprintf ppf "paths %d, faults %d, detected %d, eff.pair %d (of %d)"
    r.total_paths r.total_faults r.detected r.last_effective_pattern
    r.patterns_applied

let count_robust cmp waves =
  let size = Compiled.size cmp in
  let cnt = Array.make size 0 in
  Array.iter
    (fun id ->
      match Compiled.kind cmp id with
      | Gate.Input -> if Wave.has_transition waves.(id) then cnt.(id) <- 1
      | Gate.Const0 | Gate.Const1 -> ()
      | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
      | Gate.Xor | Gate.Xnor ->
        let fins = Compiled.fanins cmp id in
        let acc = ref 0 in
        Array.iter
          (fun f ->
            if cnt.(f) > 0 && Robust.propagates cmp waves ~from_:f ~gate:id
            then acc := !acc + cnt.(f))
          fins;
        cnt.(id) <- !acc)
    (Compiled.order cmp);
  Array.fold_left (fun acc o -> acc + cnt.(o)) 0 (Compiled.outputs cmp)

type campaign = {
  cmp : Compiled.t;
  labels : int array;
  bases : int array; (* per output index *)
  total_paths : int;
  detected_bits : Bytes.t;
  mutable detected : int;
  mutable marked_budget : int;
}

let bit_get b i = Char.code (Bytes.get b (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bit_set b i =
  let byte = i lsr 3 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl (i land 7))))

exception Budget_exhausted

(* Mark every robustly detected path fault of the loaded test. Returns the
   number of newly detected faults. *)
let mark st waves =
  let fresh = ref 0 in
  let rec dfs node offset =
    match Compiled.kind st.cmp node with
    | Gate.Input ->
      if Wave.has_transition waves.(node) then begin
        st.marked_budget <- st.marked_budget - 1;
        if st.marked_budget < 0 then raise Budget_exhausted;
        let dir = if waves.(node).Wave.final then 0 else 1 in
        let fid = (2 * offset) + dir in
        if not (bit_get st.detected_bits fid) then begin
          bit_set st.detected_bits fid;
          incr fresh
        end
      end
    | Gate.Const0 | Gate.Const1 -> ()
    | Gate.Buf | Gate.Not | Gate.And | Gate.Or | Gate.Nand | Gate.Nor
    | Gate.Xor | Gate.Xnor ->
      let fins = Compiled.fanins st.cmp node in
      let skipped = ref 0 in
      Array.iter
        (fun f ->
          if Robust.propagates st.cmp waves ~from_:f ~gate:node then
            dfs f (offset + !skipped);
          skipped := !skipped + st.labels.(f))
        fins
  in
  Array.iteri
    (fun k o ->
      (* A length-one path (PO is a PI) is handled by the Input case. *)
      dfs o st.bases.(k))
    (Compiled.outputs st.cmp);
  st.detected <- st.detected + !fresh;
  !fresh

(* Observability probes (see Obs). The marking DFS carries none; pair-level
   accounting happens once per consumed pair in [consume]. *)
let pairs_c = Obs.Counter.make ~help:"two-pattern tests applied" "pdf.pairs"
let effective_c = Obs.Counter.make ~help:"pairs detecting a new path fault" "pdf.pairs_effective"
let detected_c = Obs.Counter.make ~help:"path faults robustly detected" "pdf.faults_detected"
let gap_h = Obs.Histogram.make ~help:"pairs between effective pairs" "pdf.effective_gap"

type config = {
  max_pairs : int;
  stop_window : int;
  domains : int;
  seed : int64;
}

let default = { max_pairs = 2_000_000; stop_window = 20_000; domains = 0; seed = 1L }

(* The bound on the circuit's path count, and on the total marking work of
   one campaign. *)
let max_paths = 50_000_000

let exec cfg c =
  let max_pairs = cfg.max_pairs in
  let stop_window = cfg.stop_window in
  let seed = cfg.seed in
  let domains = Pool.domains_of_flag cfg.domains in
  let cmp = Compiled.of_circuit c in
  let labels =
    try Paths.labels c
    with Paths.Overflow -> failwith "Pdf_campaign.exec: path count overflow"
  in
  let outs = Compiled.outputs cmp in
  let bases = Array.make (Array.length outs) 0 in
  let total = ref 0 in
  Array.iteri
    (fun k o ->
      bases.(k) <- !total;
      total := !total + labels.(o))
    outs;
  let total_paths = !total in
  if total_paths > max_paths then
    failwith "Pdf_campaign.exec: too many path faults";
  let st =
    {
      cmp;
      labels;
      bases;
      total_paths;
      detected_bits = Bytes.make (((2 * total_paths) + 7) / 8) '\000';
      detected = 0;
      marked_budget = max_paths;
    }
  in
  let rng = Rng.create seed in
  let n_pi = Array.length (Compiled.inputs cmp) in
  let random_vec () = Array.init n_pi (fun _ -> Rng.bool rng) in
  let draw_pair () =
    let v1 = random_vec () and v2 = random_vec () in
    (v1, v2)
  in
  let last_effective = ref 0 in
  let applied = ref 0 in
  let continue_ () =
    !applied < max_pairs
    && !applied - !last_effective < stop_window
    && st.detected < 2 * total_paths
  in
  let consume waves =
    incr applied;
    let fresh = mark st waves in
    Obs.Counter.incr pairs_c;
    if fresh > 0 then begin
      Obs.Counter.incr effective_c;
      Obs.Counter.add detected_c fresh;
      Obs.Histogram.observe gap_h (!applied - !last_effective);
      last_effective := !applied
    end
  in
  (* Two-pattern tests are drawn in blocks of [domains * 4], their wave
     simulations (the dominant cost) fan out across the pool, and the
     marking pass stays serial in pair order. The stopping rule is
     re-evaluated before each pair is consumed; pairs simulated beyond the
     stopping point are discarded, so the result — [patterns_applied],
     [last_effective_pattern], the detected set and the marking budget —
     is the same at every width. *)
  let run pool =
    let block = domains * 4 in
    let stop = ref false in
    while (not !stop) && continue_ () do
      let m = min block (max_pairs - !applied) in
      let pairs = Array.make m ([||], [||]) in
      for j = 0 to m - 1 do
        pairs.(j) <- draw_pair ()
      done;
      let waves = Pool.map pool (fun (v1, v2) -> Wave.simulate cmp ~v1 ~v2) pairs in
      let j = ref 0 in
      while (not !stop) && !j < m do
        if continue_ () then begin
          consume waves.(!j);
          incr j
        end
        else stop := true
      done
    done
  in
  Obs.Span.with_ "pdf.campaign" (fun () ->
      try Pool.with_pool ~domains run with Budget_exhausted -> ());
  {
    total_paths;
    total_faults = 2 * total_paths;
    detected = st.detected;
    last_effective_pattern = !last_effective;
    patterns_applied = !applied;
  }
