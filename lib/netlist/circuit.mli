(** Mutable gate-level netlist.

    A circuit is a DAG of nodes identified by dense integer ids. Primary
    inputs, constants and gates are all nodes; a primary output is a
    designated node id (several outputs may designate the same node). Fanout
    branches are implicit: branch [j] of node [u] is the [j]-th position of
    [u] in some gate's fanin array.

    Deletion leaves a tombstone so ids of live nodes never move; use
    {!compact} to renumber densely. All structural mutation invalidates the
    cached index (the fanout lists and the primary-output bitmap), which is
    rebuilt lazily. *)

type t

(** {1 Construction} *)

val create : ?name:string -> unit -> t
(** Empty circuit. [name] labels outputs such as .bench files. *)

val name : t -> string
val set_name : t -> string -> unit

val add_input : ?name:string -> t -> int
(** Append a primary input; returns its node id. *)

val add_const : ?name:string -> t -> bool -> int
(** Constant-0 or constant-1 node; returns its node id. *)

val add_gate : ?name:string -> t -> Gate.kind -> int array -> int
(** Fanins must be existing live node ids. Arity is checked. *)

val mark_output : ?name:string -> t -> int -> unit
(** Append a primary output designating node [id]. *)

(** {1 Observation} *)

val size : t -> int
(** Upper bound on node ids (tombstones included). *)

val is_alive : t -> int -> bool
(** False for tombstoned (deleted) ids. *)

val kind : t -> int -> Gate.kind
(** The node's gate kind ({!Gate.Input} and the constants included). *)

val fanins : t -> int -> int array
(** The returned array must not be mutated. *)

val fanin_count : t -> int -> int

val node_name : t -> int -> string option
(** The optional symbolic name the node was created with. *)

val inputs : t -> int array
(** Live primary inputs, in declaration order. Fresh array. *)

val outputs : t -> int array
(** Primary-output node ids, in declaration order. Fresh array. *)

val output_names : t -> string array
(** One entry per output, [""] where unnamed; same order as {!outputs}. *)

val num_inputs : t -> int
val num_outputs : t -> int

val num_live_nodes : t -> int
(** Inputs, constants and gates that are not tombstoned. *)

val num_gates : t -> int
(** Live nodes that are neither inputs nor constants. *)

val two_input_gate_count : t -> int
(** Equivalent 2-input gate count (k-input gate = k-1; inverters 0). *)

val fanouts : t -> int -> int list
(** Gate ids reading this node (each listed once per reading gate pin). *)

val fanout_degree : t -> int -> int
(** Number of gate pins reading this node (primary outputs not counted). *)

val is_output : t -> int -> bool
(** Does any primary output designate this node? False for ids out of
    range. O(1): reads a bitmap built with the fanout index. *)

val iter_live : t -> (int -> unit) -> unit
(** Apply to every live node id in increasing id order. *)

val topo_order : t -> int array
(** Live nodes sorted inputs-to-outputs (fanins before fanouts). Raises
    [Failure] on a combinational cycle. *)

(** {1 Mutation} *)

val set_kind : t -> int -> Gate.kind -> unit
(** Change a gate's kind; the new kind must accept the current arity. *)

val set_fanins : t -> int -> int array -> unit
(** Rewire a gate's fanins; the new arity must suit the current kind. *)

val replace_node : t -> int -> Gate.kind -> int array -> unit
(** Atomically rewrite a node's kind and fanins (arity checked against the
    new kind). The node keeps its id, name and fanouts. *)

val retarget : t -> from_:int -> to_:int -> unit
(** Replace every use of node [from_] (gate fanins and primary outputs) by
    [to_]. [from_] itself is left in place (possibly dangling). *)

val delete : t -> int -> unit
(** Tombstone a node. Raises [Invalid_argument] if it still has fanouts or is
    a primary output. *)

val sweep : t -> int
(** Delete gates (not inputs) unreachable backwards from the outputs; returns
    the number of nodes removed. *)

val sweep_report : t -> int * int list
(** {!sweep}, also returning its boundary: every node that survives the
    sweep and was a fanin of a node it removed, each listed once. These
    are the survivors whose fanouts the sweep changed. *)

(** {1 Copying} *)

val copy : t -> t
(** Deep copy; node ids are preserved (tombstones included). *)

val overwrite : t -> with_:t -> unit
(** Replace the whole contents of a circuit with (a copy of) another's.
    Existing references to the first circuit observe the new state. Used to
    commit or roll back speculative rewrites. *)

val compact : t -> t * int array
(** Fresh circuit with dense ids in topological order. The returned array maps
    old ids to new ids ([-1] for dead nodes). *)
