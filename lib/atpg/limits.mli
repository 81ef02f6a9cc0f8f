(** Shared search budgets for the bounded test-generation engines.

    Every bounded search in the ATPG layer draws its default effort from
    this one record instead of scattering magic numbers per module, so the
    relative sizing is documented and tunable in one place:

    - [justify_backtracks] ([200]) — {!Justify.run} runs inside tight
      inner loops (don't-care extraction, PDF two-frame justification)
      where many calls are made and each answer is advisory.
    - [podem_backtracks] ([1000]) — {!Podem.run} decides a single
      fault; an abort is escalated (see {!Sat_atpg}) rather than retried.
    - [sat_conflicts] ([100_000]) — conflict budget per fault for the SAT
      escalation path, matching [Cec.default_budget].

    [default] is the record every engine falls back to when its caller
    passes nothing. *)

type t = {
  justify_backtracks : int;
  podem_backtracks : int;
  sat_conflicts : int;
}

val default : t
(** [{ justify_backtracks = 200; podem_backtracks = 1000;
       sat_conflicts = 100_000 }]. *)
