(** Flattened, topologically-ordered circuit view for fast simulation.

    Node ids are re-used from the source circuit (the source must not be
    mutated while the compiled view is alive). All arrays are indexed by
    node id unless stated otherwise. *)

type t

val of_circuit : Circuit.t -> t
(** Flatten a circuit: one topological sort, copies of every live node's
    kind, fanins and fanouts, and each node's level. *)

val circuit : t -> Circuit.t
(** The source circuit. *)

val size : t -> int
(** Upper bound on node ids ([Circuit.size] of the source). *)

val order : t -> int array
(** Topological order over live nodes. *)

val topo_index : t -> int array
(** Inverse of {!order}; dead nodes get [-1]. *)

val levels : t -> int array
(** Level of every node: [0] for inputs and constants, one more than the
    highest fanin level for a gate (as [Levelize.levels]); dead nodes get
    [-1]. A gate's level exceeds each of its fanins', so processing nodes
    in nondecreasing level is a topological order ({!Level_queue}). Do not
    mutate. *)

val kind : t -> int -> Gate.kind
(** Gate kind of a live node. *)

val fanins : t -> int -> int array
(** Fanin node ids of a live node, in pin order (do not mutate). *)

val fanouts : t -> int -> int array
(** Fanout node ids of a live node (do not mutate). *)

val inputs : t -> int array
(** Primary inputs in declaration order. *)

val outputs : t -> int array
(** Nodes designated as primary outputs, in declaration order. *)

val is_po : t -> int -> bool
(** The node is in {!outputs}. *)

val simulate_into : t -> int64 array -> Bytes.t -> unit
(** [simulate_into t pi_words buf] runs 64 parallel patterns, [pi_words]
    indexed like {!inputs}, and writes every live node's word into a
    caller-provided buffer of at least [8 * size t] bytes, 8 bytes per node
    id, read back with [Bytes.get_int64_ne buf (8 * id)]. Dead nodes' bytes
    are left as they were. Allocates nothing: no word is boxed. *)
