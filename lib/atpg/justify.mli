(** Line justification: find a primary-input assignment producing required
    values on internal lines, or prove none exists.

    This is the PODEM search without a fault: decisions on primary inputs,
    objectives from unjustified targets, event-driven three-valued
    implication ({!Imply}, whose values equal a full forward pass). Used
    to prove input combinations of a subcircuit unreachable (controllability
    don't-cares) — the paper's first "remaining issue" (Sec. 6). *)

type verdict =
  | Sat of bool array  (** a primary-input vector achieving the targets *)
  | Unsat
  | Unknown  (** backtrack limit exceeded *)

val search :
  ?backtrack_limit:int ->
  ?rng:Rng.t ->
  ?prefer:bool array ->
  Circuit.t ->
  (int * bool) list ->
  verdict
(** [search c targets] with [targets] a list of (node id, required value).
    Default backtrack limit: {!Limits.default}.[justify_backtracks]. With
    [rng], backtrace tie-breaks are
    randomised, so repeated calls explore different witnesses; completeness
    of the [Unsat] verdict is unaffected. [prefer] supplies values for
    primary inputs the search left unassigned (default all-false); the
    two-frame path-delay test generator passes the first vector so
    unconstrained inputs stay stable. Observability (when enabled): span
    [justify.search]. *)

val reachable_exhaustive : Circuit.t -> (int * bool) list -> bool
(** Ground truth by exhaustive simulation (<= 20 inputs); for testing. *)
