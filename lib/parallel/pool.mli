(** Reusable [Domain]-based worker pool for the two coarse fan-outs that
    win on a second domain: the output miters of a CEC check
    ([Cec.check_stats]) and the wave simulations of a PDF campaign
    ([Pdf_campaign.exec]), DESIGN.md §8.

    A pool represents a fixed budget of [domains] computation domains: the
    calling domain (slot 0) plus [domains - 1] spawned worker domains
    (slots 1 .. domains-1). A {!map} splits its array into chunks; idle
    participants grab chunks from a shared atomic counter, so load
    balancing is dynamic but the mapping from index to result is
    deterministic — results are merged back in index order regardless of
    which domain computed them.

    A pool whose [domains] is 1 spawns nothing and runs every submission
    inline in the calling domain: the serial code path and the parallel
    code path are the same code.

    Determinism contract: as long as the mapped function is deterministic
    per element and does not communicate through shared mutable state,
    every {!map} call yields results identical to a serial left-to-right
    execution.

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
    and the PDF campaign's config record all resolve through this single
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
(** Total participating domains, including the caller. *)

val shutdown : t -> unit
(** Stop and join all worker domains. Idempotent. The pool must not be
    used afterwards. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool and always shuts it down. *)

val map : t -> ?chunk:int -> ?serial_below:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr], computed across the pool with
    results in their original positions (deterministic ordered merge).
    [chunk] sets the chunk length (default: the array split into about 4
    chunks per participant). The first exception raised by [f] is
    re-raised in the caller, with its backtrace, after the whole
    submission has drained; the pool stays usable. With one domain (or
    one element) this is exactly [Array.map f arr].

    [serial_below] (default 0: never) is the work-size cutoff: arrays
    shorter than it are mapped inline on the calling domain even on a
    multi-domain pool, because publishing a job and waking workers costs
    more than it buys on tiny inputs. The inline path is the same code the
    1-domain pool runs, so the determinism contract is unaffected. Each
    cutoff decision is recorded in the [pool.serial_cutoff] counter
    (submissions kept inline) or [pool.parallel_jobs] (submissions fanned
    out) when {!Obs.enabled}. *)
