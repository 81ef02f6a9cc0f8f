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

val pp : Format.formatter -> t -> unit

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

val extract : ?scratch:int64 array -> Circuit.t -> t -> Truthtable.t
(** The function computed on [root] in terms of [inputs], by bit-parallel
    local simulation: each cut input is driven with its standard 64-bit
    pattern and the member gates the root reads are swept, in the order of
    a depth-first search from the root, once per 64 minterms — a single
    sweep when the cut has at most 6 inputs (the default K). [scratch] is
    an optional word buffer of at least [Circuit.size c] slots reused
    across calls (one is allocated when absent). Emits the [extract.words]
    counter when {!Obs} is enabled. Raises [Invalid_argument] when the
    members the root reads form a cycle. *)

val extract_scalar : Circuit.t -> t -> Truthtable.t
(** Reference implementation of {!extract}: one evaluation of the member
    gates per minterm, in the whole circuit's topological order (so it
    shares no member ordering with {!extract}). Kept for differential tests
    and the bench harness' kernel baseline; {!extract} is bit-identical and
    up to 64x faster. *)

val removable_gates : Circuit.t -> t -> int list
(** Member gates that die if the subcircuit is replaced: everything except
    the backward closure of members that are primary outputs or still drive
    logic outside the subcircuit. The root is always removable. *)

val removable_cost : Circuit.t -> t -> int
(** Equivalent-2-input-gate count of {!removable_gates} — the paper's [N]. *)
