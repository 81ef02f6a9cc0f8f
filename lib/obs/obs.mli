(** Observability: counters, histograms, hierarchical span timers and a
    structured decision journal, the one event stream.

    A process-wide registry of named probes with text and JSON exporters.
    Pool workers run leaf work only (DESIGN.md §8). Counter and histogram
    updates are single atomic operations, kept from any domain. Spans and
    journal events are recorded on the main domain alone: a span on
    another domain runs untimed, and a journal event emitted there is
    counted as dropped. A Chrome trace of a run is derived from its
    journal afterwards ([sft report --chrome], DESIGN.md §11).

    {b Disabled is free.} The whole subsystem sits behind one global state
    word with two independent bits — metrics ({!enable}) and the decision
    journal ({!Journal.start}) — off by default. A disabled probe is a single atomic load and a predictable
    branch — a few nanoseconds — so probes may sit in hot loops. Probes
    never influence the computation they observe: enabling or disabling
    observability cannot change any result bit.

    {b Reset vs. journal.} {!reset} clears {e recorded data} — counters,
    histograms, the span tree, buffered journal events, the drop count
    and the runtime sampler's baselines — but does not close an open journal:
    the destination file and producing command set by {!Journal.start}
    survive, and only {!Journal.finish} writes the file. A [reset] between
    [start] and [finish] therefore yields a journal that covers just the
    post-reset window.

    {b Clock caveat.} All timing uses {!now}, which is wall-clock time
    ([Unix.gettimeofday]) — the container has no monotonic-clock dependency.
    Wall time can step (NTP, suspend), so every consumer of the clock in
    this library clamps computed durations to [>= 0]; absolute timestamps
    may still jump and are only "monotonic-ish". Instrumented code should
    call {!now} rather than reading its own clock, so a future switch to a
    monotonic source is one-line.

    {b Probe naming convention} (see DESIGN.md §9): lowercase
    [subsystem.metric] with dots as separators, e.g. [fsim.patterns],
    [engine.cut_size], [engine.score_ns]. Spans use the same style
    ([fsim.campaign], [engine.pass], [bench.table6]). Counter names ending in
    [_us] hold microseconds, [_ns] nanoseconds. *)

val enabled : unit -> bool
(** Whether the metrics bit (counters, histograms, span tree) is on. *)

val enable : unit -> unit
(** Switch metrics collection on. Independent of {!Journal.start}. *)

val disable : unit -> unit
(** Switch metrics collection off. Recorded data is kept (see {!reset}). *)

val reset : unit -> unit
(** Zero every counter and histogram, drop the recorded span tree, discard
    buffered journal events and the drop count, and re-arm the runtime
    sampler's GC/RSS baselines. Registered probe definitions survive
    (names stay in the registry), and an open journal stays open — see the
    header note on reset vs. journal. *)

val now : unit -> float
(** Wall-clock seconds — the single clock behind span timing and journal
    events, exposed so instrumented code does not need
    its own timing dependency. {b Not monotonic}: see the clock caveat
    above; clamp any duration computed from two reads to [>= 0]. *)

module Counter : sig
  type t

  val make : ?help:string -> string -> t
  (** Register (or retrieve — [make] is idempotent per name) a monotonic
      counter. Typically called once at module initialisation. *)

  val incr : t -> unit
  (** Add one. A single atomic increment when metrics are on; a single
      atomic load when off. *)

  val add : t -> int -> unit
  (** Add [n] (callers pass [n >= 0]; counters are monotonic). *)

  val value : t -> int
  (** Current value. Reads are always live, even with metrics off. *)

  val name : t -> string
  (** The registered probe name, e.g. ["fsim.patterns"]. *)
end

module Histogram : sig
  type t

  val make : ?help:string -> string -> t
  (** Register (or retrieve) a histogram with power-of-two buckets:
      bucket 0 counts observations [v <= 0], bucket [i >= 1] counts
      [2{^i-1} <= v < 2{^i}]. *)

  val observe : t -> int -> unit
  (** Record one observation (bucketed by power of two; also tracks count,
      sum, min and max). One atomic load when metrics are off. *)

  val count : t -> int
  (** Number of observations recorded. *)

  val sum : t -> int
  (** Sum of all observed values. *)
end

module Journal : sig
  (** Append-only structured decision journal (DESIGN.md §16).

      Records {e typed decision events} — splice accepts and rollbacks,
      PODEM aborts and SAT escalation outcomes, redundancy proofs, CEC
      verdicts, span closes, runtime samples — so a finished run can be
      analysed offline with [sft report], or converted to a Chrome trace
      with [sft report --chrome]. The main domain appends to one bounded
      buffer of {!capacity} events, allocated by {!start} and released by
      {!finish}, which streams the run out as JSONL. An event emitted on
      another domain, or into a full buffer, is counted as dropped: the
      journal never blocks or grows.

      {b File format} (one compact {!Obs_json} object per line):
      a [journal_begin] header carrying [journal_version], the producing
      command and the absolute open timestamp; then one line per event with
      [ev] (the kind), [seq] (emission order), [ts] (seconds since the
      header timestamp, clamped [>= 0]), [dom] (the emitting domain's id,
      always 0, the main domain's) and the event's own fields — a [span]
      event's [ts] is the very reading that ends its [dur_s], so
      [ts - dur_s] is the span's start; then a [journal_end] footer
      with event/drop totals, wall seconds and every registered counter's
      change since {!start}, so a journal opened mid-process counts only
      its own window. *)

  val enabled : unit -> bool
  (** Whether the journal bit is on ({!start} called, {!finish} not yet).
      Call sites building non-trivial field lists should gate on this so a
      disabled probe stays one atomic load. *)

  val capacity : int
  (** Events the buffer holds: 131,072, about 1 MB of slots, five times a
      whole [sft rar] run on irs1423. *)

  val start : cmd:string -> string -> unit
  (** [start ~cmd path] opens a journal destined for [path], tagging the
      header with the producing command [cmd] (e.g. ["optimize"]).
      Allocates a fresh, empty buffer, zeroes the drop count and
      snapshots every counter, so the footer can report changes since this
      call. Nothing is written until {!finish}. *)

  val emit : string -> (string * Obs_json.t) list -> unit
  (** [emit kind fields] appends one event, stamped with the current
      {!now}, to the buffer. Counted as dropped instead when the buffer
      is full or the caller is not the main domain. No-op (one atomic
      load) when the journal is off; never blocks. *)

  type summary = { recorded : int; dropped : int }

  val stats : unit -> summary
  (** Events buffered so far, and events dropped since {!start}: emitted
      off the main domain or past {!capacity}. *)

  val finish : unit -> summary
  (** Close the journal: switch the bit off, write the JSONL file
      (header, events, footer), release the buffer and return what was
      written. The footer's counters are changes since {!start} (since
      the last {!Obs.reset}, if one came later); counters registered after
      [start] count from 0. Returns zeros without touching the filesystem if no
      journal was open. *)
end

module Runtime : sig
  (** Low-rate process-health sampler: GC churn and peak RSS.

      Each sample reads [Gc.quick_stat] {e on the main domain only} (GC
      statistics are domain-local in OCaml 5), computes deltas against the
      previous sample, and publishes them twice: as monotonic [runtime.*]
      counters in the metrics export ([runtime.samples], [runtime.minor_words],
      [runtime.major_words], [runtime.compactions], [runtime.maxrss_kb] —
      the latter kept at the peak by adding differences) and, when a
      journal is open, as a [runtime_sample] journal event additionally
      carrying the innermost open span and the live heap size. Peak RSS
      comes from [/proc/self/status] ([VmHWM]), reported as 0 where
      unavailable. *)

  val sample : unit -> unit
  (** Take one sample now (main domain, metrics or journal on; otherwise a
      no-op). Call at run boundaries to anchor the baselines / flush the
      final deltas. *)

  val maybe_sample : unit -> unit
  (** Rate-limited {!sample}: does nothing unless 0.25 s have elapsed
      since the previous sample. Cheap enough for hot exits — one atomic
      load when both metrics and journal are off, and {!Span.with_} calls
      it on every span close while journaling. *)

  val samples : unit -> int
  (** Samples taken since the last {!Obs.reset}, which also forgets the
      sampler's baselines, so the next sample re-anchors against current
      GC/RSS readings instead of reporting a cross-reset delta. *)
end

module Span : sig
  val with_ : string -> (unit -> 'a) -> 'a
  (** [with_ name f] times [f ()] and accounts it to the trace-tree node
      [name] under the innermost enclosing span. Wall clock and call count
      accumulate across calls; reentrant and exception-safe; durations are
      clamped to [>= 0] (wall clock). While a journal is open, exit also
      appends a [span] event. When the whole subsystem is disabled, or the
      caller is not the main domain, this is exactly [f ()]. *)

  type info = {
    name : string;
    calls : int;
    wall : float;  (** total wall-clock seconds across [calls] *)
    children : info list;
  }

  val snapshot : unit -> info list
  (** Consistent copy of the recorded span forest (creation order). *)
end

module Export : sig
  val counters : unit -> (string * int) list
  (** Registered counters in creation order. *)

  val to_json_value : unit -> Obs_json.t
  (** The full registry as JSON. Schema (version 1, see DESIGN.md §9):
      {v
      { "schema_version": 1,
        "enabled": <bool>,
        "counters": { "<name>": <int>, ... },
        "histograms": { "<name>": { "count", "sum", "min", "max",
                                    "buckets": [ {"pow2": i, "count": n} ] } },
        "trace": [ { "name", "calls", "wall_seconds", "children": [...] } ] }
      v} *)

  val to_json : unit -> string
  (** [to_json_value] rendered compactly on one line. *)

  val to_text : unit -> string
  (** Human-readable dump: counters, histograms, then the span tree,
      indented two spaces per level. *)

  val write_file : string -> unit
  (** Write [to_json ()] (plus a trailing newline) to a file. *)
end
