(** Dirty-region bookkeeping for incremental resynthesis (DESIGN.md §13,
    §17).

    A {!set} is a growable bitset over node ids: the engine keeps one per
    optimisation run recording which roots must be re-enumerated, and one
    per queued splice recording the roots that could observe it before it
    lands. Ids beyond the current capacity are simply
    absent; {!add} grows the set on demand, so the same set survives the
    circuit growing across splices.

    {!Worklist} is an ordered view over a set: it additionally keeps the
    dirty roots in a max-heap keyed on their position in the current pass's
    topological order, so the engine can pop exactly the dirty roots in the
    reference walk's outputs-towards-inputs order instead of scanning the
    whole circuit. *)

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

val count : set -> int
(** Number of ids currently in the set. *)

val clear : set -> unit
(** Empty the set, keeping the backing store for reuse — the per-landing
    reset of the engine's will-die set must not reallocate a
    circuit-sized buffer every few splices. *)

val mark_fanout_cone : ?on_add:(int -> unit) -> Circuit.t -> set -> int list -> int
(** [mark_fanout_cone c s seeds] inserts every live seed and every live
    node transitively reachable from a seed through fanout edges — the
    downstream region whose enumeration, removable-cost, path-label or
    don't-care analysis could observe a change at the seeds. Dead seeds
    are skipped. Returns the number of nodes newly added to [s]; [on_add]
    (if given) is called once per newly added id, in traversal order.

    The traversal keeps its own visited table: membership in [s] does not
    stop it, so marking is correct even when parts of the cone are already
    present. Forces the circuit's lazy fanout cache — callers must mark
    {e before} mutating the netlist (footprints of a splice are computed
    on the pre-splice circuit, then the fresh nodes are marked after). *)

(** Ordered worklist view over a dirty set (DESIGN.md §17).

    The heap is keyed on each node's position in the {e current pass's}
    topological order, not on its id. Ids are allocated topologically at
    construction time, but a splice retargets the replaced root's readers
    (small ids) onto fresh nodes (large ids), so after the first splice the
    two orders disagree — and popping by id could evaluate a root
    downstream of a same-pass splice, an order the reference walk can
    never produce. {!Worklist.start_pass} therefore takes the id->position table
    of the pass's topological sort and rebuilds the queue from the dirty
    set under that keying; the rebuild is one scan of the bitset, cheap
    next to the O(size) sort the pass already performs.

    Within a pass, {!Worklist.pop} yields strictly descending positions.
    Ids dirtied at or below the pass cursor's position (downstream of the
    walk), or with no position at all (spliced in mid-pass), are not
    queued: they stay dirty in the set and enter the queue at the next
    rebuild, exactly as the reference walk leaves them for its next pass. Each
    id is queued at most once per pass; an id popped but left dirty (dead
    or unreachable roots are skipped without processing) is not revisited
    until the next pass. *)
module Worklist : sig
  type t

  val create : ?all:bool -> int -> t
  (** [create n] wraps a fresh [create n] set; the queue starts empty and
      is first populated by {!start_pass}. [~all:true] seeds the set with
      every id in [0 .. n-1]. *)

  val fp : t -> set
  (** The underlying dirty set (shared, not a copy): membership queries and
      {!remove} go straight to it. *)

  val push : t -> int -> unit
  (** Insert [id] into the set, and queue it for the current pass if the
      walk has not yet reached its position (no-op on the queue if already
      waiting, unplaced, or behind the cursor). *)

  val mark_fanout_cone : Circuit.t -> t -> int list -> int
  (** As the set-level {!mark_fanout_cone}, additionally queueing every
      newly dirtied id that the current pass can still reach. *)

  val start_pass : t -> pos:int array -> unit
  (** Begin a pass: [pos] maps each node id to its position in the pass's
      topological order ([-1] for ids without one, e.g. dead nodes; ids
      beyond its length are treated the same). Resets the cursor and
      rebuilds the queue from the dirty set. The array is borrowed until
      the next [start_pass] and must not be mutated meanwhile. *)

  val pop : t -> int option
  (** Queued id with the greatest topological position below the pass
      cursor, or [None] when the pass has drained. Sets the cursor, so
      subsequent same-pass pushes at or downstream of the returned id are
      left for the next pass. *)
end
