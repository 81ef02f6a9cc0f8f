(** Random-pattern stuck-at testing campaigns (Table 6 machinery). *)

type result = {
  total_faults : int;
  detected : int;
  remaining : int;
  last_effective_pattern : int;
      (** 1-based index of the last pattern that detected a new fault;
          0 if nothing was detected. *)
  patterns_applied : int;
}

val pp_result : Format.formatter -> result -> unit
(** One line: faults, detected, remaining, last effective pattern and
    patterns applied. *)

val lowest_bit : int64 -> int
(** 0-based index of the lowest set bit (constant-time de Bruijn lookup);
    the argument must be non-zero. Exposed for testing. *)

type config = {
  faults : Fault.t list option;
      (** fault list to target; [None] means {!Fault.collapsed}. *)
  max_patterns : int;  (** random-pattern budget (default 1_000_000). *)
  domains : int;
      (** domain-pool width, resolved by {!Pool.domains_of_flag}: [<= 0]
          picks the recommended width, [1] forces the serial path. The
          result is bit-identical for every value. *)
  seed : int64;
}

val default : config
(** [{ faults = None; max_patterns = 1_000_000; domains = 0; seed = 1L }] *)

val exec : config -> Circuit.t -> result
(** Apply uniform random patterns in 64-wide batches until every fault is
    detected or [config.max_patterns] is exhausted. Detected faults are
    dropped from simulation. Patterns inside a batch count as sequential,
    so [last_effective_pattern] is exact.

    With [config.domains <> 1] the fault list is sharded across a domain
    pool, each worker simulating with a private {!Fsim.t} over the shared
    compiled circuit; the result is bit-identical to the serial run.

    Observability (when enabled): counters [fsim.patterns],
    [fsim.batches], [fsim.faults_dropped], [fsim.fault_scans]; histogram
    [fsim.batch_drops]; span [fsim.campaign] (one per campaign; batches
    are counted, not timed). *)

val survivors : config -> Circuit.t -> Fault.t list
(** The faults left undetected by the same campaign as {!exec}. *)

val exec_survivors : config -> Circuit.t -> result * Fault.t list
(** {!exec} and {!survivors} from one simulation run — the form the
    SAT-escalating campaign driver needs, where the survivor list feeds
    deterministic ATPG and the result keeps the coverage accounting. *)
