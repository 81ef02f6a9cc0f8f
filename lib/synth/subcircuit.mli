(** Candidate subcircuit enumeration for resynthesis (Sec. 4.1).

    Candidates with output [root] are grown by repeatedly absorbing a gate
    that feeds the current input cut, as long as the cut stays within [k]
    inputs. Constant fanins never count as inputs (they are folded into the
    extracted function). Candidates are deduplicated by gate set and capped. *)

type t = {
  root : int;  (** the gate whose output the subcircuit drives *)
  gates : int list;  (** member gates, sorted ascending, [root] included *)
  inputs : int array;
      (** boundary nodes feeding the subcircuit from outside, sorted
          ascending; position [j] is truth-table variable [x_(j+1)] (MSB
          first) *)
}

type dedup
(** Reusable enumeration scratch for {!enumerate}: the breadth-first queue
    of gate sets, kept flat in int arrays, and their dedup table. *)

val dedup : unit -> dedup
(** Fresh, empty scratch. The engine keeps one per optimisation run and
    threads it through every enumeration, so its arrays grow once to the
    largest root's working set instead of being allocated per root. *)

val enumerate : ?dedup:dedup -> k:int -> max_candidates:int -> Circuit.t -> int -> t list
(** All candidates rooted at a gate, in breadth-first order from the
    single-gate subcircuit (always first when it fits in [k] inputs). A
    popped gate set within [k] inputs is a candidate and absorbs each
    gate on its cut, in ascending order; one within [k + 2] inputs only
    absorbs. At most [max 256 (20 * max_candidates)] sets are pushed; a
    set pushed before is skipped and uses none of that budget. Each set's
    cut is derived from its parent's when it is pushed (DESIGN.md §13.1).
    [dedup] is optional caller-owned scratch; it is cleared on entry, so
    results are identical with or without it (fresh scratch is used when
    absent). *)

val read_depth : dedup -> int
(** After {!enumerate} with this scratch: the largest member count of any
    gate set it pushed, minus one. Every member of a pushed set is reached
    from the root through members of that set, so no gate whose fanins the
    enumeration read lies further than this many fanin edges from the
    root. The engine's replay records use it to bound how far a rewired
    gate can invalidate them (DESIGN.md §13.2). *)

type scratch
(** Reusable kernel scratch for {!extract}, {!removable_cost},
    {!removable_gates} and {!of_cut}: a word buffer of 8 bytes per node id
    and a byte per node id of marks, which are zero between calls. Both
    grow to the circuit on entry, so one scratch serves a circuit that
    grows, and a circuit of any size. *)

val scratch : unit -> scratch
(** Fresh, empty scratch. The engine keeps one per optimisation run, so
    steady-state extraction allocates only the output table. *)

val extract : ?scratch:scratch -> Circuit.t -> t -> Truthtable.t
(** The function computed on [root] in terms of [inputs], by bit-parallel
    local simulation: each cut input is driven with its standard 64-bit
    pattern and the member gates the root reads are swept, in the order of
    a depth-first search from the root, once per 64 minterms — a single
    sweep when the cut has at most 6 inputs (the default K). Words live in
    [scratch] (fresh scratch when absent) and are never boxed. Emits the
    [extract.words] counter when {!Obs} is enabled. Raises
    [Invalid_argument] when the cut has more than 16 inputs or the members
    the root reads form a cycle. *)

val removable_gates : ?scratch:scratch -> Circuit.t -> t -> int list
(** Member gates that die if the subcircuit is replaced: everything except
    the backward closure of members that are primary outputs or still drive
    logic outside the subcircuit. The root is always removable. Ascending,
    like [gates]. *)

val removable_cost : ?scratch:scratch -> Circuit.t -> t -> int
(** Equivalent-2-input-gate count of {!removable_gates} — the paper's [N].
    Members are marked in the scratch's byte table; nothing is allocated
    per member. *)

val of_cut : ?scratch:scratch -> Circuit.t -> root:int -> inputs:int array -> t
(** The subcircuit of [root] whose cut is [inputs] (sorted ascending): its
    members are the gates reached from [root] through fanins without
    passing a cut input or a constant. For a cut that {!enumerate}
    returned, on an unchanged circuit, this is that candidate's member
    set. Raises [Invalid_argument] when [root] is not a gate or the walk
    reaches a primary input that is not on the cut. *)
