(** Construction of comparison units (Section 3 of the paper).

    A unit realises the interval function [L <= m <= U] with a [>= L] chain,
    a [<= U] chain and an output AND gate. Free variables (shared leading
    bits of L and U, Sec. 3.2.1) bypass the chains and drive the output AND
    directly; a trivial bound (Sec. 3.2.2) omits its chain entirely. Runs of
    same-kind 2-input chain gates are merged into k-input gates (Fig. 4)
    unless [merge:false]. All degenerate cases (single prime implicant,
    constant function, wire) are handled.

    The resulting structure has at most two paths from any input to the
    output, at most one for free variables or when a chain is omitted.
    {!cost} gives the unit's gate count and input paths without building
    it. *)

type built = {
  circuit : Circuit.t;
      (** Standalone circuit: one input per original variable (in original
          order), a single output. *)
  input_paths : int array;
      (** Paths from each input to the unit output (0, 1 or 2). *)
  gates2 : int;  (** Equivalent 2-input gate count of the unit. *)
  depth : int;  (** Logic depth (inverters free). *)
}

val build : ?merge:bool -> n:int -> Comparison_fn.spec -> built
(** Build the unit for a spec over [n] original variables. Input [j] of the
    returned circuit is original variable [y_(j+1)]; the spec's permutation
    is realised in the wiring. *)

val cost : n:int -> Comparison_fn.spec -> int * int array
(** [(gates2, input_paths)] of [build ~n spec], computed from the spec
    alone with either [merge] setting (merging keeps the 2-input gate
    count). A chain over positions [f..q], where [f] is the free variable
    count and [q] the last position whose bound bit selects the chain's
    gate kind, has [q - f] gates and one path per position; free variables
    have one path each; the output AND adds one gate fewer than it has
    terms; inverters are free. So no input has more than two paths. Raises
    [Invalid_argument] where {!build} does. *)

val build_interval : ?merge:bool -> lo:int -> hi:int -> int -> built
(** [build_interval ~lo ~hi n]: unit for the identity permutation and
    ON-interval [lo..hi] over [n] variables. *)

val free_variable_count : n:int -> lo:int -> hi:int -> int
(** Number of leading bit positions where [lo] and [hi] agree. *)

val verify : n:int -> Comparison_fn.spec -> built -> bool
(** Exhaustively check that the built unit computes the spec's function. *)

val input_paths_of : Circuit.t -> int array
(** Paths from each primary input to the (single) output of any
    single-output circuit — the unit-local [K_p] values of Sec. 2. *)

val of_circuit : Circuit.t -> built
(** Wrap an existing single-output circuit in a [built] record, computing its
    metadata (used by multi-unit covers). *)

val describe : built -> string
(** Multi-line structural dump (used by the figure reproductions). *)
