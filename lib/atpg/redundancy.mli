(** Redundancy identification and removal (the [15] stand-in).

    A stuck-at fault proved untestable lets the faulty line be tied to the
    stuck value without changing the circuit function; constant propagation
    then shrinks the logic. Removing one redundancy can change the status of
    others, so candidates are re-verified right before each removal and the
    whole analysis iterates to a fixpoint.

    Proofs come from two engines: PODEM within {!Limits.t}[.podem_backtracks]
    decides most faults, and every fault it aborts escalates to the exact
    {!Sat_atpg} decision procedure, so a fault only stays undecided when the
    SAT conflict budget also runs out. *)

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
(** One line: removed (SAT-proved), unresolved and passes. *)

type candidates = {
  untestable : Fault.t list;  (** proved untestable by PODEM *)
  sat_redundant : Fault.t list;
      (** PODEM-aborted faults proved redundant by {!Sat_atpg} *)
  unresolved : (Fault.t * int) list;
      (** still undecided, with the exhausted SAT conflict budget; with a
          store, only faults that no vector of it detects once the call
          returns *)
}

type tests
(** A store of test vectors carried from one classification to the next
    (DESIGN.md §19): every vector PODEM or SAT returned inside
    {!find_untestable}, for circuits with one fixed number of inputs. A
    vector that detects a fault when simulated on the current circuit
    proves that fault testable, whichever circuit version it was
    generated for, so a store may outlive the circuit it was filled on:
    RAR's rolled-back trials leave stale vectors in it, which stay sound.
    Single-owner mutable state. *)

val tests : Circuit.t -> tests
(** An empty store for circuits with as many inputs as the argument. *)

val keep : tests -> bool array -> unit
(** [keep store v] adds the vector [v], indexed like [Circuit.inputs], to
    the store's newest batch, or to a new batch when that one holds 64. *)

val iter_batches : tests -> (int64 array -> int64 -> unit) -> unit
(** [iter_batches store f] calls [f words mask] on every batch, oldest
    first: bit [k] of [words.(i)] is input [i] of the batch's [k]th vector
    (the input words {!Compiled.simulate_into} takes), and [mask] sets one
    bit per vector the batch holds. [f] must not mutate [words]. *)

val find_untestable :
  ?limits:Limits.t ->
  ?prefilter_patterns:int ->
  ?tests:tests ->
  seed:int64 ->
  Circuit.t ->
  candidates
(** Classify the collapsed faults surviving a random-pattern prefilter;
    PODEM aborts escalate to {!Sat_atpg.escalate}. With a store, in four
    steps:
    + fault-simulate the store's vectors on the circuit, 64 to a batch,
      and drop every fault they detect;
    + run the prefilter ({!Campaign.survivors}) on the rest;
    + decide the survivors with PODEM and SAT, adding every vector they
      return to the store;
    + drop every SAT-undecided fault that one of this call's own new
      vectors detects.

    PODEM and SAT verdicts depend only on the circuit and the fault, and
    the prefilter's survivors are those of a run without a store less the
    faults the store detects, so [untestable] and [sat_redundant] are the
    same lists, in the same order, whatever the store holds, and
    [unresolved] is a sub-list of the store-free one. Without a store
    nothing is carried in or out. Raises [Invalid_argument] when the
    store's input count differs from the circuit's. Observability (when
    enabled): span [redundancy.classify], around span
    [redundancy.carried] (step 1) when there is a store; counter
    [redundancy.carried_detected], the faults step 1 drops. *)

val remove :
  ?limits:Limits.t ->
  ?prefilter_patterns:int ->
  ?tests:tests ->
  seed:int64 ->
  Circuit.t ->
  report
(** Remove redundancies in place (the circuit is mutated and swept). Passes
    repeat until one removes nothing, each classifying with
    {!find_untestable} on one store ([tests], or a fresh one when absent)
    shared by every pass. Each candidate is re-proved on the current
    circuit before its tie-off, with the same PODEM budget and the same
    per-fault SAT formula that classified it, so a pass's first candidate
    is always removed and only a pass without candidates stops the loop.
    When [remove ~tests] returns, {!find_untestable} with the same
    arguments and the same store finds no untestable and no SAT-redundant
    fault, and leaves exactly [aborted] faults unresolved; without a store
    it still finds no untestable and no SAT-redundant fault, and leaves at
    least [aborted] unresolved. Whatever the store holds, [removed],
    [proved_redundant_sat], [passes] and the circuit are those of passes
    that carry nothing. Raises [Invalid_argument] as {!find_untestable}.
    Observability (when enabled): per pass, span [redundancy.classify]
    ({!find_untestable}) and, when it found candidates, span
    [redundancy.reprove] around their re-proofs and tie-offs. *)

val make_irredundant :
  ?limits:Limits.t ->
  ?prefilter_patterns:int ->
  seed:int64 ->
  Circuit.t ->
  Circuit.t * report
(** Non-destructive: returns a compacted irredundant copy. *)
