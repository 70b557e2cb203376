(** Datalog with stratified negation — the target formalism of the
    proof of Proposition 1, which evaluates JNL by translation to a
    (non-recursive, monadic) datalog program with stratified negation
    over a relational encoding of the JSON tree, "in the style of
    [Gottlob, Koch, Schulz; JACM'06] for XML trees".

    The engine itself is more general than the proof needs (it supports
    recursion and non-monadic IDB predicates, evaluated semi-naively by
    stratum): the deterministic JNL fragment compiles to the
    non-recursive monadic class of the proof, while the [Star]
    extension compiles to recursive rules — see {!Compile}. *)

type term =
  | Var of string
  | Const of int  (** constants are tree-node identifiers *)

type atom = { pred : string; args : term list }

type literal =
  | Pos of atom
  | Neg of atom  (** stratified: must not be mutually recursive *)

type rule = { head : atom; body : literal list }
(** Safety requirement (checked by the engine): every variable of the
    head and of every negated or external atom occurs in some positive,
    non-external body atom. *)

type program = { rules : rule list; goal : string }
(** [goal] names the predicate whose extension answers the query. *)

val v : string -> term
val c : int -> term
val atom : string -> term list -> atom
val ( <-- ) : atom -> literal list -> rule
(** Rule constructor: [head <-- body]. *)

val check_safety : rule -> (unit, string) result

val is_monadic : program -> bool
(** All IDB predicates unary (the class of the Proposition 1 proof). *)

val is_recursive : program -> bool
(** Some IDB predicate depends on itself (through any chain). *)

val idb_predicates : program -> string list
(** Predicates defined by some rule head. *)

val pp_rule : Format.formatter -> rule -> unit
val pp_program : Format.formatter -> program -> unit
