(** Loading and rendering {!Obs.Journal} run journals — the [sft report]
    back end.

    A journal (DESIGN.md §16) is JSONL: a [journal_begin] header, one line
    per decision event, and a [journal_end] footer with counter totals.
    {!load} parses one file into an aggregate {!t}: per-phase wall time
    from [span] events, GC/RSS movement from [runtime_sample] events, the
    decision funnel, identification sources from the footer's [idcache.*]
    counters and SAT-escalation tallies. The run keeps its events, so
    {!to_chrome} can turn it into a Chrome trace.
    Truncated journals (crashed run, no footer) still load — [truncated]
    is set, footer-derived fields fall back to zero and {!render} prints
    no funnel line.

    {b Decision funnel.} [candidates] is every cut enumerated by the
    engine (counter [engine.candidates]); [identified] the subset whose
    function was identified as a comparison function (counter
    [engine.realised]); [verified] the replacements that reached the
    splice-and-verify step ([splice_accept] + [splice_rollback] events);
    [committed] those that survived it ([splice_accept] events). A
    well-formed optimize journal satisfies
    [committed <= verified <= identified <= candidates]; {!funnel_ok}
    checks exactly that (vacuously true for journals of runs that never
    enumerate cuts, e.g. [atpg]). *)

type funnel = {
  candidates : int;
  identified : int;
  verified : int;
  committed : int;
}

type phase = { ph_name : string; ph_calls : int; ph_wall : float }
(** One aggregated span name: close count and summed duration. *)

type t
(** One loaded journal. *)

val load : string -> (t, string) result
(** [load path] parses the journal at [path]. [Error] when the file is
    unreadable, does not start with a [journal_begin] header, or carries a
    [journal_version] this reader does not understand; [Error "PATH: line
    N: ..."] when line [N] is unparseable but not the last line, is an
    event without an [ev] kind, or follows the [journal_end] footer. Only
    an unparseable {e final} line is a torn tail: the lines before it load
    and the run is marked [truncated]. *)

val path : t -> string
(** The file the journal was loaded from. *)

val cmd : t -> string
(** The producing command recorded in the header (e.g. ["optimize"]). *)

val events : t -> int
(** Event lines actually read (header/footer excluded). *)

val dropped : t -> int
(** Events dropped at record time (footer value; 0 when truncated). *)

val truncated : t -> bool
(** True when the journal has no parseable [journal_end] footer. *)

val wall_s : t -> float
(** Footer wall seconds; when truncated, the highest event timestamp. *)

val funnel : t -> funnel
(** The run's decision funnel (see header comment). *)

val funnel_ok : t -> bool
(** [committed <= verified <= identified <= candidates], with the
    counter-derived stages skipped when the journal is truncated (their
    source is the footer). *)

val phases : t -> phase list
(** Aggregated [span] events, heaviest first. *)

val render : t -> string
(** Human-readable report: header, phase table, runtime/GC summary,
    decision funnel, the engine's enumerate/score split (counters
    [engine.enumerate_ns] and [engine.score_ns]) and the score split into
    extract, identify and cost ([engine.extract_ns], [engine.identify_ns],
    [engine.cost_ns]), identification-source and
    SAT-escalation tables — sections with no data are omitted. *)

val to_json_value : t list -> Obs_json.t
(** All loaded runs as one JSON document:
    [{"report_version": 1, "funnel_ok": <all runs>, "runs": [...]}].
    The top-level [funnel_ok] is the conjunction over runs so scripts can
    gate on one field. *)

val to_chrome : t -> Obs_json.t
(** The run as a Chrome trace-event JSON array (the "JSON array format"
    Perfetto and chrome://tracing open), one [pid] and the emitting domain
    as [tid]. Each [span] event becomes a complete ([X]) slice ending at
    its [ts] and starting [dur_s] earlier (clamped at the journal's
    start); every other event becomes a thread-scoped instant ([i]) whose
    [args] are its own fields (all but [ev], [seq], [ts] and [dom]).
    Timestamps are microseconds since the journal opened. Each domain gets
    a [thread_name] metadata ([M]) record first; a journal whose footer
    counts dropped events ends with a global [journal.dropped] instant
    whose [args.count] is that number. *)

val diff : t -> t -> string
(** Run-to-run comparison in the spirit of [bench-diff]: wall, events,
    funnel stages, GC movement and per-phase wall side by side with
    percentage deltas (phases aligned by name over the union). *)
