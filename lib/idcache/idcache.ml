(* Optionally disk-persistent identification cache (DESIGN.md §15).

   One map: packed table -> exact [Comparison_fn.identify_exact] verdict. A
   hit replays the recorded spec verbatim, so cached runs build
   byte-identical circuits — the spec determines the unit, the unit the
   splice.

   Concurrency contract (the engine's frozen-read/deferred-merge
   discipline, DESIGN.md §12): [find] is read-only and safe from pool
   workers against a frozen cache (per-entry hit counts are atomics);
   [record] and [finish] must only be called by the orchestrating domain
   between batches. The disk store adds cross-process sharing: entries
   loaded at [create], fresh entries appended at [finish] under the
   store's advisory lock. *)

module TT = Hashtbl.Make (struct
  type t = Truthtable.t

  let equal = Truthtable.equal
  let hash = Truthtable.hash
end)

type verdict = Comparison_fn.spec option

type entry = {
  verdict : verdict;
  from_disk : bool;
  hits : int Atomic.t;
}

type t = {
  table : entry TT.t;
  file : string option;
  mutable fresh : Id_store.entry list; (* newest first; flushed in order *)
}

let hits_c =
  Obs.Counter.make ~help:"identification verdicts served from the cache"
    "idcache.hits"

let misses_c =
  Obs.Counter.make ~help:"identification verdicts computed and cached" "idcache.misses"

let disk_hits_c =
  Obs.Counter.make ~help:"cache hits on entries loaded from the disk store"
    "idcache.disk_hits"

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

let create ?dir () =
  let table = TT.create 1024 in
  let file = Option.map (fun d -> Id_store.file ~dir:d) dir in
  Option.iter
    (fun path ->
      List.iter
        (fun (Id_store.Raw (tbl, v)) ->
          if not (TT.mem table tbl) then
            TT.add table tbl { verdict = v; from_disk = true; hits = Atomic.make 0 })
        (Id_store.load path))
    file;
  { table; file; fresh = [] }

let length t = TT.length t.table

let find t f =
  match TT.find_opt t.table f with
  | None ->
    Obs.Counter.incr misses_c;
    None
  | Some e ->
    Atomic.incr e.hits;
    Obs.Counter.incr hits_c;
    if e.from_disk then Obs.Counter.incr disk_hits_c;
    Some e.verdict

let record t f v =
  if not (TT.mem t.table f) then begin
    TT.add t.table f { verdict = v; from_disk = false; hits = Atomic.make 0 };
    t.fresh <- Id_store.Raw (f, v) :: t.fresh
  end

let flush t =
  (match (t.file, t.fresh) with
  | Some path, (_ :: _ as fresh) -> Id_store.append path (List.rev fresh)
  | _ -> ());
  t.fresh <- []

let finish t =
  TT.iter
    (fun _ e ->
      let h = Atomic.get e.hits in
      if h > 0 then Obs.Histogram.observe class_hits_h h)
    t.table;
  flush t
