(** Shared resynthesis engine behind Procedures 2 and 3 (Sec. 4).

    A pass walks the marked gate outputs from the primary outputs towards the
    inputs (descending topological order, as in the paper). For each gate it
    enumerates candidate subcircuits, keeps those implementing comparison
    functions, scores each viable replacement, and splices in the best one.
    Inputs of a selected subcircuit are marked for further processing; a gate
    with no improving candidate keeps its structure and marks its fanins.
    Passes repeat until a fixpoint.

    There is one production path, {!optimize}, and one reference oracle,
    {!optimize_reference}, which the tests and the bench hold it to
    bit-for-bit. The reference is the walk just described, committing each
    splice at once and identifying every cut afresh. The production walk
    (DESIGN.md §13, §17) commits each splice at once too, and also tracks
    the footprint of every splice in a dirty set, so a pass walks the same
    order but scores only the dirty roots, and replays exact
    identification verdicts from a per-run cache (DESIGN.md §15). It
    skips a candidate that a bound proves cannot beat its root's best so
    far before identifying it, and scores a dirty root whose enumeration
    region no splice rewired from a record of its earlier scoring
    (DESIGN.md §13.2). Both run on one domain. *)

type objective =
  | Gates  (** Procedure 2: maximise gate reduction, tie-break on paths. *)
  | Paths  (** Procedure 3: minimise the path count on the gate output. *)

type options = {
  k : int;  (** subcircuit input limit K (paper: 5 or 6), 1 to {!max_k} *)
  max_candidates : int;  (** candidate cap per root *)
  engine : Comparison_fn.engine;
  merge : bool;  (** merge chain gates inside units (Fig. 4) *)
  max_passes : int;
  seed : int64;
  use_dontcares : bool;
      (** paper Sec. 6, issue 1: when plain identification fails, retry with
          controllability don't-cares; every exploited disagreement is proved
          unreachable by justification search (within
          {!Limits.default}[.justify_backtracks]) before the replacement is
          considered. *)
  max_units : int;
      (** paper Sec. 6, issue 2: cover a subfunction with up to this many
          comparison units sharing a permutation (1 = single units only). *)
  domains : int;
      (** Retired: no code reads it, and the engine runs on one domain
          whatever its value. It stays only because the [perf/] benchmark
          names it. *)
}
(** Every replacement is checked twice. An exact replacement is checked
    exhaustively on its cut before it is spliced (a mismatch raises
    [Failure], which would indicate a bug). Then the whole circuit is
    SAT-proved against a snapshot taken before the splice ({!Cec.check},
    DESIGN.md §10) for the first accepted replacement of the run and every
    8th after it. A counterexample rolls the splice back and the engine
    continues as if the candidate had not existed ([stats.verify_refused]
    counts these — any refusal indicates an engine bug, since the local
    check should already guarantee soundness). An [Unknown] verdict
    (conflict budget exhausted) lets the replacement stand. Don't-care
    replacements skip the local check and are proved by the same
    whole-circuit miter: they only diverge on cut input combinations
    already proved unreachable from the primary inputs, so the miter stays
    UNSAT. *)

val default_options : options
(** K = 6, 64 candidates, exact identification, merging, at most 16
    passes, seed 1, extensions off and [domains = 0] — the [sft optimize]
    defaults. *)

type stats = {
  passes : int;
  replacements : int;
  gates_before : int;
  gates_after : int;
  paths_before : int;
  paths_after : int;
  verify_checks : int;  (** whole-circuit miter checks performed *)
  verify_refused : int;  (** replacements rolled back as unsound *)
}

val pp_stats : Format.formatter -> stats -> unit

val max_k : int
(** The largest supported [k], 16: the widest cut {!Subcircuit.extract}
    takes. *)

val optimize : objective -> options -> Circuit.t -> stats
(** The production path. Mutates the circuit. Raises [Invalid_argument],
    before touching the circuit, if [k] is outside 1 to {!max_k}.

    Observability (when enabled): counters [engine.candidates],
    [engine.realised], [engine.accepted], [engine.verify_checks],
    [engine.verify_refused], [engine.verify_unknown], [engine.dirty_regions]
    (standing splices whose footprints were marked dirty),
    [engine.worklist_popped] (dirty roots the pass reached, live or
    swept), [engine.enumerate_ns] and
    [engine.score_ns] (nanoseconds spent enumerating cuts and scoring them,
    per batch of a root's cuts), [engine.extract_ns], [engine.identify_ns]
    and [engine.cost_ns] (the scoring split, summed per candidate:
    extraction; identification, i.e. the cache lookup, any miss and the
    don't-care or multi-unit fallbacks when enabled; and the unit cost,
    removable gates and path label; all five only while metrics are on),
    [engine.pruned] (candidates a bound skipped, never identified),
    [engine.replayed] (roots scored from their replay record) and
    [engine.replay_ns] (their time, metrics on only) — [engine.candidates]
    counts every scored cut, fresh or replayed —
    and the identification cache's [idcache.hits] and [idcache.misses];
    histograms [engine.cut_size], [engine.dirty_nodes] (nodes newly
    dirtied per standing splice, the imported unit's included) and
    [idcache.table_hits] (hits per cached table that served any); spans
    [engine.pass] (one per resynthesis pass) and [engine.commit_flush]
    (one per splice: the splice, its miter check and its footprint
    marks). [engine.commit_waves] is retired and always 0, and so are
    [idcache.npn_hits] and [idcache.canon_ns].
    [extract.words] counts the 64-minterm words swept by the bit-parallel
    extractor (see {!Subcircuit.extract}). *)

val optimize_reference : objective -> options -> Circuit.t -> stats
(** The paper's full walk: every pass re-evaluates every marked gate and
    commits each accepted splice immediately, with no footprint state, no
    bound, no replay record and no identification cache. Same contract as
    {!optimize} and bit-identical results (stats and netlist); far slower
    on multi-pass runs. For tests and the bench only — it is the oracle the production
    walk is checked against. *)

(** Fault injection for the test suite. *)
module Test_hooks : sig
  val optimize_unsound :
    ?reference:bool -> nth:int -> objective -> options -> Circuit.t -> stats
  (** {!optimize} (or, with [~reference:true], {!optimize_reference}) with
      the [nth] accepted replacement (1-based) corrupted by inverting the
      spliced root {e after} local verification, so only the whole-circuit
      miter can catch it. The hook SAT-proves every accepted replacement,
      not every 8th. Both walks refuse the same splice at the same point
      and stay bit-identical. Never use this outside tests. *)
end
