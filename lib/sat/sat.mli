(** Incremental CDCL SAT solver shared by equivalence checking and ATPG.

    A self-contained conflict-driven clause-learning solver in the MiniSat
    lineage: two-watched-literal propagation, first-UIP conflict analysis
    with non-chronological backjumping, VSIDS-style decaying variable
    activities (binary max-heap), phase saving and Luby-sequence restarts.
    No preprocessing and no learned-clause deletion — the CNFs produced by
    {!Cnf} for miters are small and heavily structurally shared, every
    query gets a fresh or {!clear}ed solver, and the conflict budget bounds
    memory growth.

    The solver is {e incremental} only in the plain sense: after every
    {!solve} call the trail is rolled back to decision level 0 while learned
    clauses, variable activities and saved phases are retained, so clauses
    may be added between calls and a later call starts from what earlier
    ones learned. There are no assumptions: a query that must be retired
    belongs in its own solver. Satisfying assignments are copied into a
    separate model the rollback does not disturb; read them with {!value}.

    Variables are dense non-negative integers handed out by {!new_var}.
    Literals are integers [2*v] (positive) and [2*v + 1] (negated); use
    {!lit}, {!neg} and {!var_of} instead of relying on the
    encoding. A [t] is single-owner mutable state: never share one across
    domains. *)

type t

(** Per-call search configuration, in the same config-record style as
    [Campaign.config] and [Engine.options]. *)
module Options : sig
  type t = {
    budget : int option;
        (** Conflict budget for this call; [None] is unlimited. Exhausting
            it yields {!Unknown}. Counted per call, not cumulatively. *)
    restart_base : int;
        (** Conflicts per Luby restart unit (MiniSat's 100). *)
    seed : int64;
        (** [0L] keeps the deterministic all-false initial phases; any other
            value randomises the {e initial} phase of each variable once
            (phase saving still takes over afterwards), which decorrelates
            repeated searches on hard instances. *)
  }

  val default : t
  (** [{ budget = None; restart_base = 100; seed = 0L }]. *)
end

val create : unit -> t
(** A fresh, empty instance: no variables, no clauses, decision level 0. *)

val clear : t -> unit
(** Put the solver back in the state of [create ()]: no variables, no
    clauses, no learned clauses, decision level 0, zeroed statistics. The
    arrays and the per-literal watch lists stay allocated, and everything
    the search reads is rewritten as variables and clauses are added again,
    so the same calls after [clear] make the same search as on a fresh
    instance. For callers that decide many small formulas in turn. *)

val new_var : t -> int
(** Allocate a fresh variable and return its index. *)

val lit : int -> int
(** Positive literal of a variable. *)

val neg : int -> int
(** Negation of a literal (involutive). *)

val var_of : int -> int
(** Variable underlying a literal. *)

val add_clause : t -> int array -> unit
(** Add a clause (a disjunction of literals). The literals are sorted
    ascending and duplicates merged; a clause with a complementary pair or
    a literal already true at decision level 0 is dropped, and literals
    false at level 0 are left out. What remains is stored in that order
    (its first two literals are watched), or, for one literal, asserted at
    level 0; an empty remainder (an empty clause, or one whose literals are
    all false) makes the instance trivially unsatisfiable. The array is
    copied, never kept. Clauses may be added at creation time or between
    solver calls — the solver is always at decision level 0 outside
    {!solve}. *)

type outcome =
  | Sat  (** A satisfying assignment exists; read it with {!value}. *)
  | Unsat  (** Proved unsatisfiable. *)
  | Unknown  (** Conflict budget exhausted before a verdict. *)

val solve : ?options:Options.t -> t -> outcome
(** Run the CDCL loop. [Unsat] is permanent: a conflict at decision level 0
    leaves the instance unsatisfiable for every later call. On return (any
    outcome) the solver is back at decision level 0 with learned clauses
    retained; a [Sat] model is saved for {!value} before the rollback. *)

val value : t -> int -> bool
(** Model value of a variable, from the most recent call that returned
    [Sat]. Meaningless if no call has returned [Sat] yet. *)

val num_vars : t -> int
(** Variables allocated so far with {!new_var}. *)

val num_clauses : t -> int
(** Problem clauses added so far (learned clauses excluded). *)

val num_learnt : t -> int
(** Learned clauses currently retained. *)

val decisions : t -> int
(** Cumulative decisions across all solver calls on this [t] since it was
    created or last {!clear}ed. *)

val conflicts : t -> int
(** Cumulative conflicts across all solver calls on this [t] since it was
    created or last {!clear}ed. *)

val propagations : t -> int
(** Cumulative unit propagations across all solver calls on this [t] since
    it was created or last {!clear}ed. *)
