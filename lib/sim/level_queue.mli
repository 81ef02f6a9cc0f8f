(** Event queue of the event-driven simulators ([Fsim.detect] in
    [sft.fault], [Imply] in [sft.atpg]), bucketed by circuit level.

    Built over a level per node ({!Compiled.levels}), it keeps the pending
    nodes in one slot array with a fixed bucket per level, sized by the
    number of nodes on that level, and owns the pending flags: a node
    pushed while pending is not queued again, so every bucket has room
    for every push. {!pop} returns a node of the lowest pending level.
    Because every gate sits on a higher level than each of its fanins, a
    drain that pushes only fanouts pops in nondecreasing level, and each
    gate pops once, after all of its changed fanins. Within one level the
    order is unspecified; no node there reads another. Push and pop are
    O(1) apart from skipping empty levels, which a drain does once per
    level. *)

type t

val create : int array -> t
(** [create levels] is an empty queue over nodes [0 .. n-1], node [i] on
    level [levels.(i)]. Nodes with a negative level must never be pushed.
    The queue keeps [levels] without copying it. *)

val push : t -> int -> unit
(** [push q id] queues node [id] unless it is already pending. *)

val pop : t -> int
(** Remove and return a pending node of the lowest pending level, clearing
    its pending flag; [-1] when nothing is pending. *)
