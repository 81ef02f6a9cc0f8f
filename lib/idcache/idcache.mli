(** In-memory identification cache (DESIGN.md §15).

    The resynthesis engine asks the same question — "is this K-input
    function a comparison function, and under which spec?" — tens of
    thousands of times per run, and the same small functions recur across
    candidates, roots and passes. This cache maps each packed table to
    its exact {!Comparison_fn.identify_exact} verdict (positive or
    negative) and replays it verbatim, so cached results are
    byte-identical to uncached ones. One cache lives for one engine run.

    Thread contract: {!find} is read-only (safe from pool workers against
    a frozen cache), {!record}/{!finish} belong to the orchestrating
    domain — the engine's frozen-read/deferred-merge discipline, which
    keeps [domains = 1] and [domains = n] bit-identical.

    Probes: [idcache.hits], [idcache.misses], and the [idcache.class_hits]
    histogram (hits per cached table over a run). *)

type t
(** A cache instance; one per engine run. *)

type verdict = Comparison_fn.spec option
(** An exact identification verdict; [None] means "not a comparison
    function". *)

val create : unit -> t
(** An empty cache. *)

val find : t -> Truthtable.t -> verdict option
(** [find t f] is [Some v] when [f]'s verdict [v] is cached, [None] on a
    miss (identify [f] and {!record} the result). Read-only — never
    mutates the cache beyond atomic per-entry hit counts, so concurrent
    calls from pool workers are safe. *)

val record : t -> Truthtable.t -> verdict -> unit
(** Merge a computed verdict for a table {!find} missed. First verdict
    wins — for the deterministic exact engine duplicates are equal, so
    merge order cannot matter. Orchestrating domain only. *)

val finish : t -> unit
(** End-of-run hook: observes the per-table hit histogram. *)
