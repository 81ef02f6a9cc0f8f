(** Plain-text table rendering for the bench harness and CLI. *)

type t

val create : title:string -> columns:string list -> t
val add_row : t -> string list -> unit
val int : int -> string
(** Thousands-separated rendering, e.g. [1_192_971] -> "1,192,971". *)

val render : t -> string
(** An [== title] line, the header, a line of dashes under each column
    and the rows in insertion order: each column padded to its widest
    cell, columns two spaces apart, trailing spaces trimmed, every line
    ending in a newline. *)

val print : t -> unit
(** [print t] writes [render t] to standard output. *)
