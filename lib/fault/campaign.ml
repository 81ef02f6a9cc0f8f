type result = {
  total_faults : int;
  detected : int;
  remaining : int;
  last_effective_pattern : int;
  patterns_applied : int;
}

let pp_result ppf r =
  Format.fprintf ppf "faults %d, detected %d, remain %d, eff.patt %d (of %d)"
    r.total_faults r.detected r.remaining r.last_effective_pattern
    r.patterns_applied

(* Index (0-based) of the lowest set bit via the classic de Bruijn multiply:
   isolate the bit with [x land (-x)], multiply by a de Bruijn sequence and
   use the top 6 bits as a table index. Constant time, no branches. *)
let debruijn_table =
  [|
    0; 1; 2; 53; 3; 7; 54; 27; 4; 38; 41; 8; 34; 55; 48; 28; 62; 5; 39; 46;
    44; 42; 22; 9; 24; 35; 59; 56; 49; 18; 29; 11; 63; 52; 6; 26; 37; 40;
    33; 47; 61; 45; 43; 21; 23; 58; 17; 10; 51; 25; 36; 32; 60; 20; 57; 16;
    50; 31; 19; 15; 30; 14; 13; 12;
  |]

let lowest_bit mask =
  let isolated = Int64.logand mask (Int64.neg mask) in
  debruijn_table.(Int64.to_int
                    (Int64.shift_right_logical
                       (Int64.mul isolated 0x022FDD63CC95386DL)
                       58))

(* Observability probes. Disabled probes are a single atomic load; the
   per-fault inner loop carries none — scan totals are flushed once per
   range so the hot path is untouched. *)
let patterns_c = Obs.Counter.make ~help:"random patterns simulated" "fsim.patterns"
let batches_c = Obs.Counter.make ~help:"64-wide pattern batches" "fsim.batches"
let dropped_c = Obs.Counter.make ~help:"faults detected and dropped" "fsim.faults_dropped"
let scans_c = Obs.Counter.make ~help:"fault slots scanned" "fsim.fault_scans"
let batch_drops_h = Obs.Histogram.make ~help:"faults dropped per batch" "fsim.batch_drops"

(* Scan faults [lo, hi) of the current batch on [sim]: kill detected faults
   in [alive] and return (newly detected, highest 1-based effective pattern,
   0 if none). The full-batch case skips the mask entirely — the branch on
   [batch_mask] is hoisted out of the fault loop. *)
let scan_range ~sim ~fault_list ~(alive : bool array) ~batch_mask ~base lo hi =
  let fresh = ref 0 in
  let best = ref 0 in
  let record i mask =
    alive.(i) <- false;
    incr fresh;
    let patt = base + lowest_bit mask + 1 in
    if patt > !best then best := patt
  in
  if batch_mask = -1L then
    for i = lo to hi - 1 do
      if alive.(i) then begin
        let mask = Fsim.detect sim fault_list.(i) in
        if mask <> 0L then record i mask
      end
    done
  else
    for i = lo to hi - 1 do
      if alive.(i) then begin
        let mask = Int64.logand (Fsim.detect sim fault_list.(i)) batch_mask in
        if mask <> 0L then record i mask
      end
    done;
  Obs.Counter.add scans_c (hi - lo);
  Obs.Counter.add dropped_c !fresh;
  (!fresh, !best)

type config = {
  faults : Fault.t list option;
  max_patterns : int;
  domains : int;
  seed : int64;
}

let default = { faults = None; max_patterns = 1_000_000; domains = 0; seed = 1L }

let run_internal cfg c =
  let max_patterns = cfg.max_patterns in
  let seed = cfg.seed in
  let domains = Pool.domains_of_flag cfg.domains in
  let cmp = Compiled.of_circuit c in
  let fault_list =
    match cfg.faults with
    | Some fs -> Array.of_list fs
    | None -> Array.of_list (Fault.collapsed c)
  in
  let n_faults = Array.length fault_list in
  let alive = Array.make n_faults true in
  let alive_count = ref n_faults in
  let rng = Rng.create seed in
  let n_pi = Circuit.num_inputs c in
  let last_effective = ref 0 in
  let applied = ref 0 in
  let serial () =
    let sim = Fsim.create cmp in
    while !alive_count > 0 && !applied < max_patterns do
      let batch = min 64 (max_patterns - !applied) in
      let words = Array.init n_pi (fun _ -> Rng.next64 rng) in
      Fsim.load_patterns sim words;
      let batch_mask =
        if batch = 64 then -1L else Int64.sub (Int64.shift_left 1L batch) 1L
      in
      let fresh, best =
        scan_range ~sim ~fault_list ~alive ~batch_mask ~base:!applied 0 n_faults
      in
      alive_count := !alive_count - fresh;
      if best > !last_effective then last_effective := best;
      applied := !applied + batch;
      Obs.Counter.add patterns_c batch;
      Obs.Counter.incr batches_c;
      Obs.Histogram.observe batch_drops_h fresh
    done
  in
  (* Parallel campaign: the fault list is sharded across the pool; every
     participating domain owns a private [Fsim.t] over the shared read-only
     [Compiled.t] and re-simulates the fault-free batch once per 64-pattern
     batch. Detections within a batch are independent, and the merge
     (sum of fresh detections, max of effective-pattern indices) is
     commutative, so the result is bit-identical to the serial run. *)
  let parallel pool =
    let nslots = Pool.domains pool in
    let sims = Array.make nslots None in
    let loaded = Array.make nslots (-1) in
    let fresh_per_slot = Array.make nslots 0 in
    let best_per_slot = Array.make nslots 0 in
    let batch_no = ref 0 in
    while !alive_count > 0 && !applied < max_patterns do
      let batch = min 64 (max_patterns - !applied) in
      let words = Array.init n_pi (fun _ -> Rng.next64 rng) in
      let batch_mask =
        if batch = 64 then -1L else Int64.sub (Int64.shift_left 1L batch) 1L
      in
      let base = !applied in
      let bno = !batch_no in
      Array.fill fresh_per_slot 0 nslots 0;
      (* Below ~256 faults a batch is microseconds of simulation: the
         job hand-off plus the per-slot pattern reload cost more than
         they recover, which is where the sub-1.0x pooled numbers on
         small circuits came from. The cutoff decision shows up in the
         pool.serial_cutoff / pool.parallel_jobs counters. *)
      Pool.for_chunks pool ~serial_below:256 ~n:n_faults (fun ~slot ~lo ~hi ->
          let sim =
            match sims.(slot) with
            | Some sim -> sim
            | None ->
              let sim = Fsim.create cmp in
              sims.(slot) <- Some sim;
              sim
          in
          if loaded.(slot) <> bno then begin
            Fsim.load_patterns sim words;
            loaded.(slot) <- bno
          end;
          let fresh, best =
            scan_range ~sim ~fault_list ~alive ~batch_mask ~base lo hi
          in
          fresh_per_slot.(slot) <- fresh_per_slot.(slot) + fresh;
          if best > best_per_slot.(slot) then best_per_slot.(slot) <- best);
      let fresh_total = Array.fold_left ( + ) 0 fresh_per_slot in
      alive_count := !alive_count - fresh_total;
      Array.iter
        (fun b -> if b > !last_effective then last_effective := b)
        best_per_slot;
      applied := !applied + batch;
      incr batch_no;
      Obs.Counter.add patterns_c batch;
      Obs.Counter.incr batches_c;
      Obs.Histogram.observe batch_drops_h fresh_total
    done
  in
  Obs.Span.with_ "fsim.campaign" (fun () ->
      if domains <= 1 || n_faults <= 1 then serial ()
      else Pool.with_pool ~domains parallel);
  let detected = n_faults - !alive_count in
  ( {
      total_faults = n_faults;
      detected;
      remaining = !alive_count;
      last_effective_pattern = !last_effective;
      patterns_applied = !applied;
    },
    fault_list,
    alive )

let exec cfg c =
  let r, _, _ = run_internal cfg c in
  r

let collect_alive fault_list alive =
  let acc = ref [] in
  for i = Array.length fault_list - 1 downto 0 do
    if alive.(i) then acc := fault_list.(i) :: !acc
  done;
  !acc

let survivors cfg c =
  let _, fault_list, alive = run_internal cfg c in
  collect_alive fault_list alive

let exec_survivors cfg c =
  let r, fault_list, alive = run_internal cfg c in
  (r, collect_alive fault_list alive)
