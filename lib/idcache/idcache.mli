(** Disk-persistent identification cache (DESIGN.md §15).

    The resynthesis engine asks the same question — "is this K-input
    function a comparison function, and under which spec?" — tens of
    thousands of times per run, and the same small functions recur across
    candidates, circuits and runs. This cache maps each packed table to
    its exact {!Comparison_fn.identify_exact} verdict (positive or
    negative) and replays it verbatim, so warm results are byte-identical
    to cold ones.

    With a cache directory, entries load at {!create} and fresh ones are
    appended at {!finish} through {!Id_store}, sharing verdicts across
    runs and processes. Thread contract: {!find} is read-only (safe from
    pool workers against a frozen cache), {!record}/{!finish} belong to
    the orchestrating domain — the engine's frozen-read/deferred-merge
    discipline, which keeps [domains = 1] and [domains = n] bit-identical.

    Probes: [idcache.hits], [idcache.disk_hits], [idcache.misses], and the
    [idcache.class_hits] histogram (hits per cached table over a run). *)

type t
(** A cache instance; one per engine run (or shared across runs via the
    disk store). *)

type verdict = Comparison_fn.spec option
(** An exact identification verdict; [None] means "not a comparison
    function". *)

val create : ?dir:string -> unit -> t
(** [create ()] is an empty in-memory cache; [create ~dir ()] additionally
    loads every valid entry of [dir]'s disk store ({!Id_store.load}) and
    arranges for {!finish} to append this run's fresh entries there. *)

val find : t -> Truthtable.t -> verdict option
(** [find t f] is [Some v] when [f]'s verdict [v] is cached, [None] on a
    miss (identify [f] and {!record} the result). Read-only — never
    mutates the cache beyond atomic per-entry hit counts, so concurrent
    calls from pool workers are safe. *)

val record : t -> Truthtable.t -> verdict -> unit
(** Merge a computed verdict for a table {!find} missed. First verdict
    wins — for the deterministic exact engine duplicates are equal, so
    merge order cannot matter. Orchestrating domain only. *)

val length : t -> int
(** Number of distinct tables cached. *)

val flush : t -> unit
(** Append the entries recorded since the last flush to the disk store (a
    no-op without [~dir]). *)

val finish : t -> unit
(** End-of-run hook: observes the per-table hit histogram and runs
    {!flush}. *)
