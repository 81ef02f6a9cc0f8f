(** Bit-packed truth tables for single-output functions of up to 16 inputs.

    Minterm indexing follows the paper: input [x_1] is the {e most} significant
    bit and [x_n] the least significant, so the minterm [x_1 x_2 ... x_n] has
    decimal value [sum x_i * 2^(n-i)]. Internally bit [m land 63] of 64-bit
    word [m lsr 6] is the function value on minterm [m]; every combinator
    below works a word (64 minterms) at a time (DESIGN.md §12). *)

type t

val max_arity : int
(** The widest table: 16 inputs. *)

val arity : t -> int
(** Number of input variables [n]. *)

val create : int -> (int -> bool) -> t
(** [create n f] tabulates [f] over minterms [0 .. 2^n - 1]. *)

val const : int -> bool -> t
(** [const n v] is the [n]-input constant-[v] function. *)

val var : int -> int -> t
(** [var n i] is the projection on variable [x_i] (1-based, MSB-first) as a
    function of [n] inputs. *)

val get : t -> int -> bool
(** Function value on a minterm. *)

val set : t -> int -> bool -> t
(** Functional update of one minterm (tables are immutable values). *)

val equal : t -> t -> bool
val compare : t -> t -> int
(** Total order on same-arity tables, for use in sorted containers. *)

val hash : t -> int

val of_minterms : int -> int list -> t
(** [of_minterms n ms] is the [n]-input function whose ON-set is [ms]. *)

val of_words : int -> int64 array -> t
(** [of_words n ws] is the [n]-input function whose value on minterm [m] is
    bit [m land 63] of [ws.(m lsr 6)] — the packed-word layout produced by
    64-way bit-parallel simulation. [ws] must hold exactly
    [max 1 (2^n / 64)] words (it is copied; padding bits above [2^n] are
    ignored). *)

val words : t -> int64 array
(** The packed words (copied), [max 1 (2^n / 64)] of them — the inverse of
    {!of_words}, for serialising tables. *)

val sim_pattern : int -> int64
(** [sim_pattern p] (for [0 <= p <= 5]) is the standard bit-parallel
    simulation word for index bit [p]: bit [j] is bit [p] of [j]. Within
    every 64-minterm block, variable [x_i] of an [n]-input table takes the
    values [sim_pattern (n - i)] when [n - i < 6] (higher variables are
    constant across a block). *)

val minterms : t -> int list
(** Increasing order. *)

val popcount : t -> int
(** ON-set size. *)

val is_const : t -> bool option
(** [Some v] when the function is the constant [v]. *)

(** {1 Bitwise combinators} — operands must have equal arity. *)

val lnot : t -> t
val land_ : t -> t -> t
val lor_ : t -> t -> t
val lxor_ : t -> t -> t

val cofactor : t -> var:int -> bool -> t
(** [cofactor f ~var:i v] is the (n-1)-input function f with [x_i] fixed to
    [v]; remaining variables keep their relative order. *)

val literal_factors : t -> bool -> int
(** [literal_factors f v]: the variables on which every minterm with
    [f = v] takes the same value — the literals that divide [f] ([v] true)
    or its complement — as a mask with bit [i - 1] for [x_i]. Every
    variable when no minterm has [f = v]. Reads the packed words in place
    and allocates nothing. *)

val unate_splits : t -> var:int -> positive:bool -> int
(** [unate_splits f ~var:y ~positive:true]: the variables [x <> y] (bit
    [i - 1] for [x_i]) such that [f] restricted to [x = 0] is positive
    unate in [y] and [f] restricted to [x = 1] is negative unate in [y];
    with [~positive:false], negative at [x = 0] and positive at [x = 1].
    A word-parallel pass over the table, like {!cofactor} in both index-bit
    regimes, that allocates nothing. *)

val depends_on : t -> int -> bool
(** Does the function depend on variable [x_i]? *)

val support : t -> int list
(** Variables the function depends on, 1-based, increasing. *)

val permute : t -> int array -> t
(** [permute f pi] renames variables: position [j] (0-based) of the new
    variable order is the old variable [pi.(j)] (1-based). I.e. the new
    function [g(x_1..x_n) = f(y_1..y_n)] where new variable [x_(j+1)] feeds
    old variable slot [pi.(j)]. *)

val interval : int -> lo:int -> hi:int -> t
(** Function that is 1 exactly on minterms in [lo..hi] (requires
    [0 <= lo <= hi < 2^n]). *)

val as_interval : t -> (int * int) option
(** [Some (l, u)] iff the ON-set is exactly the non-empty contiguous range
    [l..u] under the identity variable order. *)

val eval : t -> bool array -> bool
(** [eval f inputs] with [inputs.(0)] = [x_1] (MSB). *)

val to_string : t -> string
(** Hex string, MSB minterm first; for debugging and hashing. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)
