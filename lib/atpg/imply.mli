(** Event-driven three-valued implication, the kernel of {!Podem} and
    {!Justify}.

    Holds the good-machine value of every node as a function of a partial
    primary-input assignment (unassigned inputs are [X]). Built with a
    fault, it also holds the faulty-machine value, but only on the fault's
    {e cone}: the fanout cone of the stem for a stem fault, of the faulted
    gate for a branch fault. Every node outside the cone reads no faulted
    line, so its faulty value is its good value and is not stored.

    {!assign} re-evaluates only the gates whose fanin values changed, in
    topological order (an {!Int_heap} of topological positions), reading
    fanin values in place. After every call the values equal those of a
    full forward pass over the circuit (DESIGN.md §18). *)

type t

val create : ?fault:Fault.t -> Compiled.t -> t
(** All primary inputs unassigned, values settled by one full pass. *)

val assign : t -> int -> Tv.v -> unit
(** [assign t pi v] sets primary input [pi] to [v] ([X] unassigns it) and
    propagates the change. *)

val good : t -> int -> Tv.v
(** Good-machine value of a node; for a primary input, its assignment. *)

val faulty : t -> int -> Tv.v
(** Faulty-machine value of a node: the stuck value at a faulted stem, the
    good value outside the cone. *)

val pin_faulty : t -> int -> int -> Tv.v
(** [pin_faulty t g pin] is the faulty value gate [g] reads on fanin [pin]:
    the stuck value on the faulted branch, else {!faulty} of the fanin. *)

val cone : t -> int array
(** The cone's live nodes in topological order; empty without a fault. *)
