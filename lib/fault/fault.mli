(** Single stuck-at fault model on stems and fanout branches.

    A {e stem} fault sits on a node's output line and is seen by every
    reader; a {e branch} fault sits on one fanin pin of one gate. Branch
    faults are only distinct fault sites when the stem fans out to more than
    one pin, so fanout-free pins are represented by their stem fault. *)

type site =
  | Stem of int  (** node id *)
  | Branch of int * int  (** gate id, pin index *)

type t = { site : site; stuck : bool }

val pp : Circuit.t -> Format.formatter -> t -> unit
(** The fault with the circuit's node names. *)

val to_string : Circuit.t -> t -> string
(** {!pp} to a string. *)

val journal_fields : t -> (string * Obs_json.t) list
(** The fault as {!Obs.Journal} event fields: [site] (["stem"] with [node],
    or ["branch"] with [gate]/[pin]) and [stuck] (0/1). Purely structural —
    no circuit needed, so it is stable across journal consumers. *)

val all : Circuit.t -> t list
(** Uncollapsed fault list: two faults per stem of every live non-constant
    node, plus two per branch pin of multi-fanout stems (constant fanins
    excluded). Deterministic order. *)

val collapsed : Circuit.t -> t list
(** Equivalence-collapsed list: for And/Nand (resp. Or/Nor) gates, the
    stuck-at-controlling fault on each fanout-free fanin pin is equivalent to
    the corresponding output fault and is dropped; Buf/Not input faults
    collapse onto output faults likewise. *)
