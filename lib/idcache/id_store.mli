(** Append-only disk store for identification verdicts (DESIGN.md §15).

    One binary file per cache directory ({!file}): a fixed header (magic
    {!magic} + format {!version}, little-endian) followed by checksummed
    records, one per cached entry. The format is crash-safe by
    construction — appends write whole records under an advisory lock, the
    initial header is published atomically (write-temp + rename), and
    readers, which never lock, stop at the first invalid record so a torn
    tail costs only itself. Writers truncate torn tails (and republish
    over version-mismatched or corrupt headers) before appending. *)

type entry =
  | Raw of Truthtable.t * Comparison_fn.spec option
      (** An exact identification verdict for the table, replayed verbatim
          on a warm start. *)
(** One persisted cache entry. *)

val magic : string
(** The 6-byte file magic, ["SFTIDC"]. *)

val version : int
(** Format version written into and required from the header; a mismatch
    makes {!load} return nothing and the next {!append} rewrite the
    file. *)

val file : dir:string -> string
(** [file ~dir] is the store's path inside cache directory [dir]. *)

val load : string -> entry list
(** [load path] reads every valid record, in file order, stopping silently
    at the first torn or corrupt one — including a checksum-valid record
    whose spec does not denote its table ({!Comparison_fn.check}); a
    missing file or unusable header yields [[]]. Lock-free — safe
    concurrently with writers. *)

val append : string -> entry list -> unit
(** [append path entries] appends under the advisory lock ([path ^
    ".lock"]), creating the directory and publishing a fresh header first
    when needed, and repairing any torn tail or bad header found. Entries
    land in list order as one write. *)
