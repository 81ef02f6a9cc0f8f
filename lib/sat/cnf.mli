(** Tseitin CNF encoding of netlists, with structural hashing.

    Translates {!Circuit.t} logic into clauses over a {!Sat} solver, one
    definitional variable per distinct gate. Encoding is literal-based, so
    inverting kinds are free: [Not]/[Nand]/[Nor]/[Xnor] return the negation
    of the underlying [Buf]/[And]/[Or]/[Xor] literal without extra variables
    or clauses. [Or] is canonicalised to [And] by De Morgan.

    Structural hashing keys every [And]/[Xor] node on its (sorted, constant-
    folded, deduplicated) fanin literals, hashed and compared as ints:
    encoding two circuits into the same environment collapses their shared
    logic to shared variables. This is what makes per-replacement miters in
    the resynthesis engine cheap, and what lets {!Sat_atpg} encode a faulty
    cone against the good circuit — logic the fault cannot change maps to
    the {e same} literals in both copies.

    Fanins are normalised on an [int array] scratch buffer owned by the
    environment, so encoding a gate allocates only its hash key and the
    clauses the solver stores. *)

type env
(** An encoding environment: a solver plus the structural-hash table and the
    designated constant-true literal. *)

val create : Sat.t -> env
(** Fresh environment over [sat]; allocates the constant-true variable and
    asserts it with a unit clause. *)

val clear : env -> unit
(** {!Sat.clear} the solver, empty the structural-hash table and assert the
    constant-true variable again: the environment is then in the state
    [create] leaves on a fresh solver, and the same encoding calls give the
    same variables, clauses and literals. *)

val solver : env -> Sat.t
(** The solver this environment encodes into. *)

val ltrue : env -> int
(** The literal that is true in every model of the environment. *)

val lfalse : env -> int
(** Negation of {!ltrue}. *)

val no_lit : int
(** Sentinel ([min_int]) for "no literal encoded": callers that keep a
    per-node literal map fill the nodes they did not encode with it. *)

val and_lits : env -> int array -> int
(** Conjunction of literals: folds constants, sorts, deduplicates,
    recognises complementary pairs, then hashes. A new node's variable gets
    the clauses [out → l] for each fanin [l] in ascending order, then
    [l_1 ∧ … ∧ l_k → out]. The empty conjunction is {!ltrue}. The array is
    not modified. *)

val or_lits : env -> int array -> int
(** Disjunction, via De Morgan on {!and_lits}; the empty disjunction is
    {!lfalse}. *)

val xor_lits : env -> int array -> int
(** Parity of the literals (the netlist semantics of k-ary [Xor]), folded
    left to right over two-input XOR nodes. *)

val encode_kind : env -> Gate.kind -> int array -> int
(** The literal of one gate of kind [kind] over the fanin literals [args]
    (in pin order): [Buf]/[Not] pass [args.(0)] through, [And]/[Or]/[Xor]
    and their inversions go through {!and_lits}/{!or_lits}/{!xor_lits},
    the constants return {!lfalse}/{!ltrue}. This is the one gate-kind
    encoder; every circuit encoding builds on it. Raises [Invalid_argument]
    on [Input], whose literal is the caller's choice. *)

val encode : env -> pi_lits:int array -> Circuit.t -> int array
(** Encode a whole circuit and return one literal per primary output
    (indexed like {!Circuit.outputs}). [pi_lits.(j)] is the literal driving
    primary input [j] (indexed like {!Circuit.inputs}). The circuit is not
    modified. Raises [Invalid_argument] if [pi_lits] is shorter than the
    circuit's input list. *)
