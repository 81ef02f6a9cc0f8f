(** Random-pattern robust path-delay-fault campaigns (Table 7 machinery).

    Path faults are indexed without materialising path lists: paths are
    numbered in the DFS order of {!Paths.enumerate} using the Procedure-1
    labels, and each path contributes two faults (rising and falling at its
    primary input). Per test, the robustly-detected paths form the paths of
    the subgraph of robustly-propagating gate pins; they are marked by a
    backward DFS that touches only detected paths. *)

type result = {
  total_paths : int;
  total_faults : int;  (** [2 * total_paths] *)
  detected : int;
  last_effective_pattern : int;  (** 1-based pair index; 0 if none *)
  patterns_applied : int;  (** number of two-pattern tests *)
}

val pp_result : Format.formatter -> result -> unit

val count_robust : Compiled.t -> Wave.t array -> int
(** Number of path faults robustly detected by the loaded test (each path
    detected in exactly one direction), counted by dynamic programming in
    linear time. *)

type config = {
  max_pairs : int;  (** two-pattern test budget (default 2_000_000). *)
  stop_window : int;
      (** stop after this many consecutive ineffective pairs
          (default 20_000). *)
  domains : int;
      (** domain-pool width, resolved by {!Pool.domains_of_flag}: [<= 0]
          picks the recommended width, [1] runs on the calling domain
          alone. The result is bit-identical for every value. *)
  seed : int64;
}

val default : config
(** [{ max_pairs = 2_000_000; stop_window = 20_000; domains = 0; seed = 1L }] *)

val exec : config -> Circuit.t -> result
(** Apply random two-pattern tests until [config.stop_window] consecutive
    pairs detect nothing new, or [config.max_pairs] is reached, or path
    marking has visited 50 million detected paths in all (repeats
    included). Raises [Failure] if the circuit has more than 50 million
    paths.

    Pairs are drawn in blocks of four per domain; their wave simulations
    fan out over a domain pool opened for the campaign, while path
    marking stays serial in pair order, so the result is bit-identical at
    every width.

    Observability (when enabled): counters [pdf.pairs],
    [pdf.pairs_effective], [pdf.faults_detected]; histogram
    [pdf.effective_gap] (pairs elapsed since the previous effective pair,
    observed at each effective pair); span [pdf.campaign]. *)
