(* In-memory identification cache (DESIGN.md §15).

   One map: packed table -> exact [Comparison_fn.identify_exact] verdict. A
   hit replays the recorded spec verbatim, so cached runs build
   byte-identical circuits — the spec determines the unit, the unit the
   splice.

   Concurrency contract (the engine's frozen-read/deferred-merge
   discipline, DESIGN.md §12): [find] is read-only and safe from pool
   workers against a frozen cache (per-entry hit counts are atomics);
   [record] and [finish] must only be called by the orchestrating domain
   between batches. *)

module TT = Hashtbl.Make (struct
  type t = Truthtable.t

  let equal = Truthtable.equal
  let hash = Truthtable.hash
end)

type verdict = Comparison_fn.spec option

type entry = {
  verdict : verdict;
  hits : int Atomic.t;
}

type t = entry TT.t

let hits_c =
  Obs.Counter.make ~help:"identification verdicts served from the cache"
    "idcache.hits"

let misses_c =
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

let class_hits_h =
  Obs.Histogram.make ~help:"hits per cached table over the run (hit tables only)"
    "idcache.class_hits"

let create () = TT.create 1024

let find t f =
  match TT.find_opt t f with
  | None ->
    Obs.Counter.incr misses_c;
    None
  | Some e ->
    Atomic.incr e.hits;
    Obs.Counter.incr hits_c;
    Some e.verdict

let record t f v = if not (TT.mem t f) then TT.add t f { verdict = v; hits = Atomic.make 0 }

let finish t =
  TT.iter
    (fun _ e ->
      let h = Atomic.get e.hits in
      if h > 0 then Obs.Histogram.observe class_hits_h h)
    t
