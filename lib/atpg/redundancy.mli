(** Redundancy identification and removal (the [15] stand-in).

    A stuck-at fault proved untestable lets the faulty line be tied to the
    stuck value without changing the circuit function; constant propagation
    then shrinks the logic. Removing one redundancy can change the status of
    others, so candidates are re-verified right before each removal and the
    whole analysis iterates to a fixpoint.

    Proofs come from two engines: PODEM within {!Limits.t}[.podem_backtracks]
    decides most faults, and every fault it aborts escalates to the exact
    {!Sat_atpg} decision procedure (unless [~sat:false]), so a fault only
    stays undecided when the SAT conflict budget also runs out. *)

type report = {
  removed : int;  (** redundant faults removed (lines tied off) *)
  proved_redundant_sat : int;
      (** subset of [removed] whose justifying proof came from the SAT
          escalation rather than PODEM *)
  aborted : int;
      (** faults left undecided in the final pass (kept): PODEM aborts the
          SAT escalation could not settle, plus candidates whose re-proof
          ended undecided *)
  passes : int;
}

val pp_report : Format.formatter -> report -> unit

type candidates = {
  untestable : Fault.t list;  (** proved untestable by PODEM *)
  sat_redundant : Fault.t list;
      (** PODEM-aborted faults proved redundant by {!Sat_atpg} *)
  unresolved : (Fault.t * int) list;
      (** still undecided, with the exhausted conflict (SAT) or backtrack
          (PODEM-only mode) budget *)
}

val find_untestable :
  ?limits:Limits.t ->
  ?sat:bool ->
  ?prefilter_patterns:int ->
  seed:int64 ->
  Circuit.t ->
  candidates
(** Classify the collapsed faults surviving a random-pattern prefilter.
    [sat] (default [true]) escalates PODEM aborts to {!Sat_atpg.escalate}
    on a shared incremental solver. *)

val remove :
  ?limits:Limits.t ->
  ?sat:bool ->
  ?prefilter_patterns:int ->
  seed:int64 ->
  Circuit.t ->
  report
(** Remove redundancies in place (the circuit is mutated and swept). Passes
    repeat until one removes nothing: after such a pass the circuit is
    unchanged, so another would find the same candidates again. *)

val make_irredundant :
  ?limits:Limits.t ->
  ?sat:bool ->
  ?prefilter_patterns:int ->
  seed:int64 ->
  Circuit.t ->
  Circuit.t * report
(** Non-destructive: returns a compacted irredundant copy. *)
