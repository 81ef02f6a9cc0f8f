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
   batch so the hot path is untouched. *)
let patterns_c = Obs.Counter.make ~help:"random patterns simulated" "fsim.patterns"
let batches_c = Obs.Counter.make ~help:"64-wide pattern batches" "fsim.batches"
let dropped_c = Obs.Counter.make ~help:"faults detected and dropped" "fsim.faults_dropped"
let scans_c = Obs.Counter.make ~help:"fault slots scanned" "fsim.fault_scans"
let batch_drops_h = Obs.Histogram.make ~help:"faults dropped per batch" "fsim.batch_drops"

(* Scan every live fault against the current batch on [sim]: kill detected
   faults in [alive] and return (newly detected, highest 1-based effective
   pattern, 0 if none). The full-batch case skips the mask entirely — the
   branch on [batch_mask] is hoisted out of the fault loop. *)
let scan_batch ~sim ~fault_list ~(alive : bool array) ~batch_mask ~base =
  let fresh = ref 0 in
  let best = ref 0 in
  let record i mask =
    alive.(i) <- false;
    incr fresh;
    let patt = base + lowest_bit mask + 1 in
    if patt > !best then best := patt
  in
  let n = Array.length fault_list in
  if batch_mask = -1L then
    for i = 0 to n - 1 do
      if alive.(i) then begin
        let mask = Fsim.detect sim fault_list.(i) in
        if mask <> 0L then record i mask
      end
    done
  else
    for i = 0 to n - 1 do
      if alive.(i) then begin
        let mask = Int64.logand (Fsim.detect sim fault_list.(i)) batch_mask in
        if mask <> 0L then record i mask
      end
    done;
  Obs.Counter.add scans_c n;
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
  let cmp = Compiled.of_circuit c in
  let fault_list =
    match cfg.faults with
    | Some fs -> Array.of_list fs
    | None -> Array.of_list (Fault.collapsed c)
  in
  let n_faults = Array.length fault_list in
  let alive = Array.make n_faults true in
  let alive_count = ref n_faults in
  let rng = Rng.create cfg.seed in
  let n_pi = Circuit.num_inputs c in
  let last_effective = ref 0 in
  let applied = ref 0 in
  Obs.Span.with_ "fsim.campaign" (fun () ->
      let sim = Fsim.create cmp in
      (* One pattern array, refilled per batch: a fresh one above 256
         inputs lands on the major heap, and initialising it with a young
         boxed word forces a minor collection per batch. *)
      let words = Array.make n_pi 0L in
      while !alive_count > 0 && !applied < cfg.max_patterns do
        let batch = min 64 (cfg.max_patterns - !applied) in
        for i = 0 to n_pi - 1 do
          words.(i) <- Rng.next64 rng
        done;
        Fsim.load_patterns sim words;
        let batch_mask =
          if batch = 64 then -1L else Int64.sub (Int64.shift_left 1L batch) 1L
        in
        let fresh, best =
          scan_batch ~sim ~fault_list ~alive ~batch_mask ~base:!applied
        in
        alive_count := !alive_count - fresh;
        if best > !last_effective then last_effective := best;
        applied := !applied + batch;
        Obs.Counter.add patterns_c batch;
        Obs.Counter.incr batches_c;
        Obs.Histogram.observe batch_drops_h fresh
      done);
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
