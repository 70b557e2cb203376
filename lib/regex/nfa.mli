(** Thompson construction: non-deterministic finite automata with
    ε-transitions, built compositionally from {!Syntax.t} in O(|e|)
    states.  Membership by on-the-fly subset simulation is
    O(|e| · |w|), the bound used in the proof of Proposition 3 for
    pre-marking tree edges with the expressions they match. *)

type t

type state = int

val of_syntax : Syntax.t -> t
val state_count : t -> int
val start : t -> state
val accepting : t -> state -> bool

val char_transitions : t -> state -> (Charset.t * state) list

val eps_closure : t -> state list -> state list
(** Sorted, deduplicated ε-closure of a set of states. *)

val step : t -> state list -> char -> state list
(** One simulation step: closure of the successors on a character. *)

val accepts : t -> string -> bool
(** O(|e| · |w|) membership test. *)
