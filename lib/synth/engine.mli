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
    splice at once. The production walk (DESIGN.md §13, §17) tracks the
    footprint of every splice, so later passes pop only the dirty roots
    from an ordered worklist; accepted splices queue and land in small
    groups whose local verifications fan out across the [domains] pool,
    while the mutations stay serial in decision order. *)

type objective =
  | Gates  (** Procedure 2: maximise gate reduction, tie-break on paths. *)
  | Paths  (** Procedure 3: minimise the path count on the gate output. *)

type verify =
  [ `Off  (** trust the local checks; no whole-circuit proof *)
  | `Sampled of int
    (** SAT-prove the circuit before/after every [n]-th accepted
        replacement (the first acceptance is always proved) *)
  | `Full  (** SAT-prove every accepted replacement *) ]
(** Whole-circuit equivalence checking of accepted replacements with
    {!Cec.check} (DESIGN.md §10). The pre-splice circuit is snapshotted and
    miter-checked against the post-splice circuit; a counterexample rolls
    the splice back and the engine continues as if the candidate had not
    existed ([stats.verify_refused] counts these — any refusal indicates an
    engine bug, since local verification should already guarantee
    soundness). An [Unknown] verdict (conflict budget exhausted) lets the
    replacement stand. Don't-care replacements are proved by the same
    whole-circuit miter: they only diverge on subcircuit input combinations
    already proved unreachable from the primary inputs, so the miter stays
    UNSAT. *)

type options = {
  k : int;  (** subcircuit input limit K (paper: 5 or 6), 1 to {!max_k} *)
  max_candidates : int;  (** candidate cap per root *)
  engine : Comparison_fn.engine;
  merge : bool;  (** merge chain gates inside units (Fig. 4) *)
  verify_local : bool;  (** exhaustive check of each replacement *)
  verify_global : bool;  (** random-pattern whole-circuit check per pass *)
  max_passes : int;
  seed : int64;
  use_dontcares : bool;
      (** paper Sec. 6, issue 1: when plain identification fails, retry with
          controllability don't-cares; every exploited disagreement is proved
          unreachable by justification search before the replacement is
          considered. *)
  dc_backtracks : int;  (** justification budget per proof *)
  max_units : int;
      (** paper Sec. 6, issue 2: cover a subfunction with up to this many
          comparison units sharing a permutation (1 = single units only). *)
  domains : int;
      (** domain-pool width for concurrent candidate evaluation
          (enumeration and splicing stay serial), resolved by
          {!Pool.domains_of_flag}: [<= 0] picks the recommended width, [1]
          forces the serial path. Results are identical for every value
          because candidates are scored with per-candidate derived seeds
          and merged back in enumeration order. *)
  obs : bool;  (** force-enable {!Obs} collection for this run. *)
  verify : verify;  (** SAT-based replacement verification, see {!verify}. *)
  id_cache : bool;
      (** Share one {!Idcache} across all candidates, roots and passes of
          the run (DESIGN.md §12, §15): each distinct table is identified
          once and its verdict replayed verbatim on every repeat.
          Effective only with the deterministic {!Comparison_fn.Exact}
          engine — sampled verdicts depend on the candidate random stream
          and are never cached — so results are bit-identical with the
          cache on or off, and for any [domains] width. The CLI escape
          hatch is [--no-id-cache]. *)
  cache_dir : string option;
      (** Directory of the persistent identification store (DESIGN.md §15):
          when set (CLI [--cache-dir]), the run's cache warm-starts from
          [dir/idcache.bin] and appends its fresh verdicts back at the end,
          sharing identification work across runs and concurrent processes.
          [None] (the default) keeps the cache run-scoped in memory.
          Requires [id_cache]; results are bit-identical cold, warm or
          off. *)
}

val default_options : options
(** K = 6, 64 candidates, exact identification, merging, local verification
    on, global verification off, at most 16 passes, seed 1, extensions off,
    [domains = 0] (auto), [obs = false], [verify = `Sampled 8],
    [id_cache = true], [cache_dir = None] — the [sft optimize]
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
    before touching the circuit, if [k] is outside 1 to {!max_k}. Raises
    [Failure] if [verify_global] is set and a pass breaks equivalence
    (which would indicate a bug).

    Observability (when enabled): counters [engine.candidates],
    [engine.realised], [engine.accepted], [engine.verify_checks],
    [engine.verify_refused], [engine.verify_unknown], [engine.dirty_regions]
    (splice footprints marked dirty), [engine.worklist_popped] (dirty roots
    popped from the pass worklist), [engine.commit_waves] (landed commit
    groups, each verified as one wave), [engine.concurrent_commits]
    (splices landed through a multi-splice group), [engine.enumerate_ns]
    and [engine.score_ns] (nanoseconds spent enumerating cuts and scoring
    them: extraction, identification and unit cost), and the {!Idcache}
    probes [idcache.hits], [idcache.disk_hits], [idcache.misses];
    histograms [engine.cut_size], [engine.dirty_nodes] (nodes newly
    dirtied per footprint) and [idcache.class_hits]; spans [engine.pass]
    (one per resynthesis pass) and [engine.commit_flush] (one per landed
    commit group).
    [extract.words] counts the 64-minterm words swept by the bit-parallel
    extractor (see {!Subcircuit.extract}). *)

val optimize_reference : objective -> options -> Circuit.t -> stats
(** The paper's full walk: every pass re-evaluates every marked gate and
    commits each accepted splice immediately, with no footprint state.
    Same contract as {!optimize} and bit-identical results (stats and
    netlist); far slower on multi-pass runs. For tests and the bench
    only — it is the oracle the production walk is checked against. *)

(** Fault injection for the test suite. *)
module Test_hooks : sig
  val optimize_unsound : nth:int -> objective -> options -> Circuit.t -> stats
  (** {!optimize} with the [nth] accepted replacement (1-based) corrupted
      by inverting the spliced root {e after} local verification, so only
      the {!verify} miter can catch it. Never use this outside tests. *)
end
