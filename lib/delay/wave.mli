(** Two-pattern (v1, v2) simulation with hazard tracking.

    Every line gets a wave [(init, final, hf)]: its settled value under the
    first and second vector, and whether the waveform is guaranteed
    glitch-free under arbitrary gate delays ([hf] = hazard-free). Primary
    inputs switch cleanly, so their waves are always hazard-free. The [hf]
    rules are conservative: a line marked hazard-free truly cannot glitch. *)

type t = { init : bool; final : bool; hf : bool }

val stable : bool -> t
val rising : t
val falling : t
val has_transition : t -> bool

val eval : Gate.kind -> t array -> t

val simulate : Compiled.t -> v1:bool array -> v2:bool array -> t array
(** Per-node waves (indexed by node id). *)
