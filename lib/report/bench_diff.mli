(** Regression diffing between two bench-harness [--json] snapshots.

    [diff] parses both snapshots (schema 3) with {!Obs_json}. A snapshot
    is a list of sections; each holds rows keyed by their first field and
    declares [gate_keys] (booleans) and [exact_keys] (values to repeat).
    One evaluator applies the same rules to every section, at any
    threshold, and each failure is a regression naming its item:
    - every declared gate of the new snapshot (or of the old one, for the
      same section) is present and [true] in every new row, and a section
      that declares gates but recorded no rows and no skip reason fails;
    - every section and row of the old snapshot is in the new one;
    - every exact value of an old row is repeated in the new row, and
      every exact key the new section declares is recorded.

    The threshold metrics then compare what may drift: a number regresses
    when it is worse than the old one by more than [threshold] percent.
    They are [gates] and [paths] (row fields of those names that no
    section declares exact: the sizes of the bench's generated inputs),
    [coverage] (the campaigns' detection counters) and [wall] (section
    wall seconds). The report is a {!Table}: one row per failed check,
    per threshold comparison, and per row whose gates or exact values
    all hold.

    Snapshots that differ in [schema_version], [mode] or [only_circuits]
    are an [Error] (exit 2), and so is a pair with nothing to compare:
    never a vacuous pass. *)

type status =
  | Clean  (** no comparison regressed *)
  | Regressions of int  (** number of regressed comparisons *)

val default_metrics : string list
(** ["gates"; "paths"; "coverage"; "wall"] — the valid values for
    [metrics], in rendering order. The rules always apply. *)

val diff :
  ?threshold:float -> ?metrics:string list -> old_name:string -> old_text:string ->
  new_name:string -> new_text:string -> unit -> (string * status, string) result
(** [diff ~old_name ~old_text ~new_name ~new_text ()] compares the two
    snapshot texts ([*_name] only labels the output). Returns the
    rendered report plus a {!status}, or [Error msg] when a snapshot is
    malformed, the schema versions, modes or circuit scopes differ, an
    unknown metric was requested, or nothing is comparable. [threshold]
    defaults to [5.] (percent); [metrics] defaults to
    {!default_metrics}. *)

val diff_files :
  ?threshold:float ->
  ?metrics:string list ->
  string ->
  string ->
  (string * status, string) result
(** [diff_files old_path new_path] reads both snapshot files and runs
    {!diff} on them, named by their paths. A file that cannot be read is
    an [Error] naming it: a missing snapshot is incomparable (exit 2), not
    a regression. *)

val exit_code : (string * status, string) result -> int
(** CLI exit-code mapping: [Ok (_, Clean)] is 0, [Ok (_, Regressions _)]
    is 1, [Error _] is 2. *)
