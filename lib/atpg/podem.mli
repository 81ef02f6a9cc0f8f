(** PODEM test-pattern generation for single stuck-at faults.

    Classic PODEM: decisions are made only on primary inputs, objectives are
    derived from fault activation and the first D-frontier gate in
    topological order. Implication is event-driven ({!Imply}): each decision
    re-evaluates only the gates whose fanins changed, the good machine on
    every node and the faulty machine only on the fault site's fanout cone,
    where detection, the D-frontier and the X-path test also look. The
    values, and so every verdict and vector, are those of a full dual
    three-valued forward simulation (DESIGN.md §18). A backtrack limit
    bounds the search; exceeding it yields [Aborted], exhausting it yields a
    proof of untestability. *)

type outcome =
  | Test of bool array
      (** A detecting input vector (don't-cares filled with 0). *)
  | Untestable
  | Aborted

val pp_outcome : Format.formatter -> outcome -> unit

val generate : ?backtrack_limit:int -> Circuit.t -> Fault.t -> outcome
(** Default backtrack limit: {!Limits.default}.[podem_backtracks].

    Observability (when enabled): counters [podem.decisions],
    [podem.backtracks], [podem.aborted]; span [podem.generate]. *)

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
