(** Regression diffing between two bench-harness [--json] snapshots.

    [diff] parses both snapshots with {!Obs_json}, aligns circuits,
    sections, speedup rows, CEC verdicts and coverage counters by name,
    and renders every aligned comparison as one {!Table} row. A numeric
    comparison regresses when the new value is worse than the old by
    more than [threshold] percent; a CEC comparison regresses whenever a
    pair previously proved [equivalent] no longer is, at any threshold.

    Alignment is on the intersection of the two snapshots, so a
    [--only]/[--only-circuits] smoke run can be diffed against a full
    baseline — but if nothing at all aligns, or the snapshots disagree
    on [schema_version], the result is an [Error] (exit 2), never a
    vacuous pass. *)

type status =
  | Clean  (** no comparison regressed *)
  | Regressions of int  (** number of regressed comparisons *)

val default_metrics : string list
(** ["gates"; "paths"; "coverage"; "wall"; "speedup"; "cec"] — the valid
    values for [metrics], in rendering order. *)

val diff :
  ?threshold:float ->
  ?metrics:string list ->
  old_name:string ->
  old_text:string ->
  new_name:string ->
  new_text:string ->
  unit ->
  (string * status, string) result
(** [diff ~old_name ~old_text ~new_name ~new_text ()] compares the two
    snapshot texts ([*_name] only labels the output). Returns the
    rendered report plus a {!status}, or [Error msg] when a snapshot is
    malformed, the schema versions differ, an unknown metric was
    requested, or nothing is comparable. [threshold] defaults to [5.]
    (percent); [metrics] defaults to {!default_metrics}. *)

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
