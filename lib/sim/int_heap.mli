(** Growable binary min-heap of ints.

    The event queue of the event-driven simulators: callers push
    topological positions (see {!Compiled.topo_index}) and pop them in
    increasing order, so every gate is re-evaluated after all of its
    changed fanins. The heap does not deduplicate; callers keep their own
    pending flags. *)

type t

val create : unit -> t
(** An empty heap. *)

val is_empty : t -> bool

val push : t -> int -> unit
(** Add an element; the backing array doubles when full. *)

val pop : t -> int
(** Remove and return the smallest element. Raises [Invalid_argument] on
    an empty heap. *)
