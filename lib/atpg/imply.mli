(** Event-driven three-valued implication, the kernel of {!Podem} and
    {!Justify}.

    Holds, for a partial primary-input assignment (unassigned inputs are
    [X]), the good-machine and the faulty-machine value of every node,
    packed into one dual-rail byte per node: bit 0 "the good value may be
    0", bit 1 "may be 1", bits 2 and 3 the same for the faulty value, so
    [F], [T] and [X] are [01], [10] and [11] on each machine's pair. One
    fold over a gate's fanin bytes evaluates both machines: AND ANDs the
    1-rails and ORs the 0-rails, OR is the dual, NOT swaps the rails and
    XOR combines them. Without a fault, and outside the fault's cone, the
    faulty rails equal the good rails.

    A [t] is built once per circuit ({!create}) and {!reset} for each
    fault or target set. {!assign} re-evaluates only the gates whose fanin
    values changed, in nondecreasing level (a {!Level_queue}). After every
    call the values equal those of a full forward pass over the circuit
    (DESIGN.md §18). Single-owner mutable state; invalidated if the
    circuit is mutated after {!create}. *)

type t

val create : Compiled.t -> t
(** Settle the fault-free state with every primary input unassigned (one
    full pass) and keep it for {!reset}. The result is in that state, as
    after [reset t]. *)

val reset : ?fault:Fault.t -> t -> unit
(** [reset ?fault t] unassigns every primary input and restores the
    settled fault-free state, then, with [fault], collects the fault's
    {e cone} (the fanout cone of the stem for a stem fault, of the faulted
    gate for a branch fault) and propagates the fault as one event from
    its site. The values are those {!create} followed by a full pass with
    the fault would give. *)

val assign : t -> int -> Tv.v -> unit
(** [assign t pi v] sets primary input [pi] to [v] ([X] unassigns it) and
    propagates the change. *)

val good : t -> int -> Tv.v
(** Good-machine value of a node; for a primary input, its assignment. *)

val faulty : t -> int -> Tv.v
(** Faulty-machine value of a node: the stuck value at a faulted stem, the
    good value outside the cone. *)

val d : t -> int -> bool
(** The node carries a D: its good and faulty values are known and
    differ. *)

val composite_x : t -> int -> bool
(** The node's good or faulty value is [X]. *)

val pin_d : t -> int -> int -> bool
(** [pin_d t g pin]: gate [g] reads a D on fanin [pin]. On the faulted
    branch the faulty value read is the stuck value, else that of the
    fanin. *)

val cone : t -> int array
(** The live nodes of the current fault's cone in topological order, in
    the first {!cone_size} slots. The array belongs to [t] and is
    overwritten by the next {!reset}. *)

val cone_size : t -> int
(** Number of cone nodes in {!cone}; [0] without a fault. *)

(** Direct access to the packed state, for the exhaustive test of the
    dual-rail gate folds against the [Tv] folds. *)
module Test_hooks : sig
  val set : t -> int -> good:Tv.v -> faulty:Tv.v -> unit
  (** Overwrite a node's stored values without propagating. *)

  val eval : t -> int -> Tv.v * Tv.v
  (** [(good, faulty)] of a node evaluated from its fanins' stored values,
      with the current fault's overrides, as {!assign} evaluates it;
      nothing is stored. *)
end
