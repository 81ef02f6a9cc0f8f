(** [Domain]-based worker pool for the two coarse fan-outs that win on a
    second domain: the output miters of a CEC check ([Cec.check_stats
    ~domains]) and the wave simulations of a PDF campaign
    ([Pdf_campaign.exec]), DESIGN.md §8. Each fan-out opens its own pool
    with {!with_pool} around the work it splits and shuts it down when
    that work is done, so no parked domain outlives it.

    A pool of [domains] participants is the calling domain plus
    [domains - 1] spawned worker domains. {!map} hands out one element per
    task from a shared atomic cursor, so load balancing is dynamic, but
    each result lands at its own index. A pool whose [domains] is 1
    spawns nothing and {!map} is [Array.map].

    Determinism contract: as long as the mapped function is deterministic
    per element and does not communicate through shared mutable state,
    every {!map} call yields results identical to a serial left-to-right
    execution.

    Workers run leaf work only: counter and histogram updates from a
    worker are kept, but spans and journal events are recorded on the
    main domain alone (see {!Obs}). The pool itself records nothing. *)

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

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool ~domains f] spawns [domains - 1] worker domains ([domains]
    defaults to {!default_domains}; values [<= 1] spawn nothing), runs [f]
    with the pool, then stops and joins the workers, also when [f] raises.
    Raises [Invalid_argument], before spawning, if [domains] is above
    {!max_domains}. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map t f arr] is [Array.map f arr], computed across the pool one
    element per task, with results in their original positions. The
    first exception raised by [f] is re-raised in the caller, with its
    backtrace, after the whole submission has drained; the pool stays
    usable. With one domain (or at most one element) this is exactly
    [Array.map f arr]. *)
