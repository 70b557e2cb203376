(** Dense sets of tree nodes.

    Formula evaluation manipulates sets of node identifiers
    [0 .. n-1]; this fixed-capacity bitset gives O(n/63) boolean
    connectives and O(1) membership, which keeps the evaluation
    algorithms of Propositions 1, 3 and 6 within their stated
    bounds. *)

type t

val create : int -> t
(** [create n] is the empty set of capacity [n]. *)

val full : int -> t
(** [full n] is [{0, …, n-1}]. *)

val capacity : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit

val add_new : t -> int -> bool
(** [add_new t i] adds [i]; [true] when it was not a member, so a loop
    can count what it adds instead of a {!cardinal} pass after. *)

val remove : t -> int -> unit
val copy : t -> t

val union_into : t -> into:t -> bool
(** [union_into s ~into] adds [s] to [into]; returns [true] when [into]
    changed (for fixpoint loops). *)

val inter_into : t -> into:t -> bool
(** [inter_into s ~into] restricts [into] to [into ∧ s] in place;
    returns [true] when [into] changed.  Used by the label-indexed
    evaluation core to intersect a precomputed per-label set with a
    target set without allocating a third set. *)

val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t
val complement : t -> t
val is_empty : t -> bool
val equal : t -> t -> bool
val cardinal : t -> int
val iter : (int -> unit) -> t -> unit

val next : t -> int -> int
(** [next t i] is the least member at or above [i] ([i >= 0]), or
    [capacity t] when there is none: a closure-free walk of the set,
    [let c = ref (next t 0) in while !c < capacity t do … c := next t (!c + 1) done]. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val elements : t -> int list
val of_list : int -> int list -> t
val pp : Format.formatter -> t -> unit
