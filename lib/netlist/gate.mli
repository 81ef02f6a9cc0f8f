(** Gate kinds for gate-level combinational netlists.

    Arities: [Input], [Const0], [Const1] take no fanins; [Buf] and [Not] take
    exactly one; the remaining kinds take one or more (k-input gates are
    allowed everywhere and cost k-1 equivalent 2-input gates). *)

type kind =
  | Input
  | Const0
  | Const1
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor

val to_string : kind -> string
(** Upper-case mnemonic, e.g. ["NAND"]; also used by the [.bench] writer. *)

val of_string : string -> kind option
(** Case-insensitive parse of [to_string] mnemonics ([BUFF] accepted). *)

val min_arity : kind -> int
(** Smallest legal fanin count ([0] for inputs and constants). *)

val max_arity : kind -> int option
(** [None] means unbounded. *)

val controlling : kind -> bool option
(** Controlling input value of the gate, if it has one ([And]/[Nand] -> 0,
    [Or]/[Nor] -> 1, others [None]). *)

val inverting : kind -> bool
(** Whether the output inverts the dominant phase ([Not], [Nand], [Nor],
    [Xnor]). For [Xor]/[Xnor] this is the parity contribution of the gate. *)

val eval : kind -> bool array -> bool
(** Evaluate on concrete inputs. Raises [Invalid_argument] on arity
    violations. *)

val eval_word : kind -> int64 array -> int64
(** Bit-parallel evaluation over 64 patterns at once. *)

val two_input_equivalents : kind -> int -> int
(** [two_input_equivalents k arity] is the equivalent 2-input gate count of a
    gate of kind [k] with [arity] fanins: [arity - 1] for logic gates, [0] for
    inverters, buffers, constants and inputs. *)
