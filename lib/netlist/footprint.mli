(** Dirty-region bookkeeping for incremental resynthesis (DESIGN.md §13,
    §17).

    A {!set} is a growable bitset over node ids: the engine keeps one per
    optimisation run recording which roots must be re-enumerated. Ids
    beyond the current capacity are simply absent; {!add} grows the set on
    demand, so the same set survives the circuit growing across splices. *)

type set

val create : ?all:bool -> int -> set
(** [create n] is an empty set with initial capacity [n] (clamped to at
    least 1). [~all:true] starts with every id in [0 .. n-1] present — the
    "first pass sees everything dirty" state. *)

val mem : set -> int -> bool
(** [mem s id] — ids outside the current capacity (including negatives)
    are never members. *)

val add : set -> int -> unit
(** Insert [id], growing the backing store as needed. Raises
    [Invalid_argument] on a negative id. *)

val remove : set -> int -> unit
(** Delete [id] if present; no-op otherwise. *)

val mark_fanout_cone : Circuit.t -> set -> int list -> int
(** [mark_fanout_cone c s seeds] inserts every live seed and every live
    node transitively reachable from a seed through fanout edges of [c] as
    it is now — the downstream region whose enumeration, removable-cost,
    path-label or don't-care analysis could observe a change at the seeds.
    Dead seeds are skipped. Returns the number of nodes newly added to [s].

    The traversal keeps its own visited table: membership in [s] does not
    stop it, so marking is correct even when parts of the cone are already
    present. *)
