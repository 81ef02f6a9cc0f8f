(** ISCAS-style [.bench] netlist format.

    Grammar (comments start with [#]):
    {v
    INPUT(name)
    OUTPUT(name)
    name = KIND(name, name, ...)
    v}
    Supported kinds: AND, OR, NAND, NOR, NOT/INV, BUF/BUFF, XOR, XNOR,
    CONST0/GND, CONST1/VDD. Definitions may appear in any order. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

type error = {
  line : int;  (** 1-based line number; 0 for file-level (IO) errors. *)
  message : string;
}

val pp_error : Format.formatter -> error -> unit
(** ["line N: message"], or just the message when [line = 0]. *)

val error_to_string : error -> string

val parse : ?name:string -> string -> (Circuit.t, error) result
(** Never raises on malformed input: syntax errors, duplicate or undefined
    signals and combinational cycles all come back as [Error]. *)

val parse_file : string -> (Circuit.t, error) result
(** {!parse} on a file's contents; IO failures become [Error] with
    [line = 0]. The circuit is named after the file's basename. *)

val of_string : ?name:string -> string -> Circuit.t
(** Raising variant of {!parse}: raises {!Parse_error}. *)

val to_string : Circuit.t -> string
(** The circuit as [.bench] text, which {!of_string} reads back. *)

val read_file : string -> Circuit.t
(** Raising variant of {!parse_file}: raises {!Parse_error} or
    [Sys_error]. *)

val write_file : string -> Circuit.t -> unit
(** [write_file path c] writes the {!to_string} text of [c] to [path],
    replacing any existing file. Raises [Sys_error] when [path] cannot be
    written. *)
