(** PODEM test-pattern generation for single stuck-at faults.

    Classic PODEM: decisions are made only on primary inputs, objectives are
    derived from fault activation and the first D-frontier gate in
    topological order. Implication is event-driven ({!Imply}): each decision
    re-evaluates only the gates whose fanins changed, both machines at once
    in one packed byte per node. Detection, the D-frontier and the X-path
    test look only at the fault site's fanout cone, and read D and
    composite X straight from the bytes. The values, and so every verdict
    and vector, are those of a full dual three-valued forward simulation
    (DESIGN.md §18). A backtrack limit bounds the search; exceeding it
    yields [Aborted], exhausting it yields a proof of untestability.

    {!create} and {!run} mirror {!Sat_atpg.create} and {!Sat_atpg.run}: a
    fault list on an unchanged circuit ({!generate_all},
    [Redundancy.find_untestable]) compiles the circuit and settles its
    implication kernel once, resetting the kernel per fault, and
    {!generate} does both for each call. *)

type outcome =
  | Test of bool array
      (** A detecting input vector (don't-cares filled with 0). *)
  | Untestable
  | Aborted

val pp_outcome : Format.formatter -> outcome -> unit
(** [test] with the vector's bits, [untestable] or [aborted]. *)

type t
(** A per-circuit search context: the circuit compiled once ({!Compiled.t}),
    its implication kernel ({!Imply.t}), the backtrack limit and the X-path
    marks every search reuses.
    Single-owner mutable state; invalidated if the circuit is mutated after
    {!create}. *)

val create : ?backtrack_limit:int -> Circuit.t -> t
(** Compile the (unmodified) circuit for a run of faults. Default backtrack
    limit: {!Limits.default}.[podem_backtracks]. *)

val run : t -> Fault.t -> outcome
(** Decide one fault. The outcome, the vector and the decisions and
    backtracks made do not depend on which faults [run] decided before on
    the same [t].

    Observability (when enabled): counters [podem.decisions],
    [podem.backtracks], [podem.aborted]; span [podem.generate]. *)

val generate : ?backtrack_limit:int -> Circuit.t -> Fault.t -> outcome
(** [run (create ?backtrack_limit c) f]: the one-shot call, for callers
    that mutate the circuit between faults. *)

type stats = {
  tested : int;
  untestable : int;
  aborted : int;
  tests : (Fault.t * bool array) list;
  aborted_faults : Fault.t list;
      (** the faults behind [aborted], most recent first — the worklist for
          SAT escalation (see {!Sat_atpg.escalate}). *)
}

val generate_all : ?backtrack_limit:int -> Circuit.t -> Fault.t list -> stats
(** {!run} every fault on one {!t}. *)
