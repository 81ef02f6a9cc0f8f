(** Reusable [Domain]-based worker pool for the embarrassingly parallel
    inner loops of the toolchain (fault campaigns, wave simulation,
    candidate scoring).

    A pool represents a fixed budget of [domains] computation domains: the
    calling domain (slot 0) plus [domains - 1] spawned worker domains
    (slots 1 .. domains-1). Work is described as a range [0 .. n-1] split into
    chunks; idle participants grab chunks from a shared atomic counter, so
    load balancing is dynamic but the mapping from index to result is
    deterministic — results are merged back in index order regardless of
    which domain computed them.

    A pool whose [domains] is 1 spawns nothing and runs every submission
    inline in the calling domain: the serial code path and the parallel
    code path are the same code.

    Determinism contract: as long as the supplied work functions are
    deterministic per index and do not communicate through shared mutable
    state (other than writing to disjoint slots of caller-owned arrays),
    every [map]/[map_chunks]/[for_chunks] call yields results identical to
    a serial left-to-right execution.

    When {!Obs.enabled} is on, every chunk execution is accounted to the
    counters [pool.chunks] (total chunks) and [pool.domain<slot>.busy_us]
    (per-slot busy microseconds, aggregated across pools), which journal
    [runtime_sample] events also carry. Disabled probes cost nothing on the
    chunk path. *)

type t

val default_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core for
    the rest of the process. This is the default [?domains] everywhere a
    knob is exposed. *)

val domains_of_flag : int -> int
(** Canonical interpretation of a user-facing [--domains] / config value:
    any [n <= 0] means "pick for me" ({!default_domains}), [1] forces the
    serial path, [n >= 2] is taken literally. The CLI, the bench harness
    and the campaign/engine config records all resolve through this single
    function. *)

val max_domains : int
(** The most domains the OCaml runtime can run at once (128 on 64-bit
    hosts), counting the calling domain. Entry points check a
    user-supplied domain count against it before spawning anything. *)

val create : ?domains:int -> unit -> t
(** Spawn a pool of [domains - 1] worker domains ([domains] defaults to
    {!default_domains}; values [<= 1] are clamped to 1 and spawn nothing).
    Raises [Invalid_argument], before spawning, if [domains] is above
    {!max_domains}. Pools hold OS-level resources — release with
    {!shutdown}, or prefer {!with_pool}. *)

val domains : t -> int
(** Total participating domains (including the caller), i.e. the number of
    distinct [slot] values work functions can observe. *)

val shutdown : t -> unit
(** Stop and join all worker domains. Idempotent. The pool must not be
    used afterwards. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val for_chunks :
  t ->
  ?chunk:int ->
  ?serial_below:int ->
  n:int ->
  (slot:int -> lo:int -> hi:int -> unit) ->
  unit
(** [for_chunks t ~n body] covers the range [0 .. n-1] with disjoint chunks
    [body ~slot ~lo ~hi] executed across the pool. [slot] identifies the
    executing participant ([0 <= slot < domains t]); a given slot is only
    ever active in one chunk at a time, so per-slot scratch state needs no
    locking. [chunk] sets the chunk length (default: [n] split into about
    4 chunks per participant). Exceptions raised by [body] are re-raised
    in the caller after the whole submission has drained. With one domain
    (or [n = 1]) this is exactly [body ~slot:0 ~lo:0 ~hi:n].

    [serial_below] (default 0: never) is the work-size cutoff: submissions
    with [n < serial_below] run inline on the calling domain even on a
    multi-domain pool, because publishing a job and waking workers costs
    more than it buys on tiny ranges. The inline path is the same code the
    1-domain pool runs, so the determinism contract is unaffected. Each
    cutoff decision is recorded in the [pool.serial_cutoff] counter
    (submissions kept inline) or [pool.parallel_jobs] (submissions fanned
    out) when {!Obs.enabled}. *)

val map_chunks :
  t ->
  ?chunk:int ->
  ?serial_below:int ->
  state:(int -> 's) ->
  f:('s -> int -> 'a -> 'b) ->
  'a array ->
  'b array
(** Ordered parallel map with per-worker state. [state slot] is called at
    most once per slot per invocation (lazily, on the slot's first chunk)
    to build worker-local scratch state — e.g. a simulator instance — and
    [f st i x] computes the result for index [i]. The returned array
    satisfies [result.(i) = f st i arr.(i)] with indices in their original
    positions (deterministic ordered merge). *)

val map : t -> ?chunk:int -> ?serial_below:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_chunks] without per-worker state. *)
