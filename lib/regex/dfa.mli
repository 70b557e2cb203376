(** Deterministic finite automata over the byte alphabet, with the
    boolean-algebra operations the logics need:

    - complements, for JSON Schema's [additionalProperties] (the values
      under keys matching {e none} of the listed expressions) and the
      [□_C] construction in the proof of Theorem 1;
    - products (intersection / union / difference), for deciding joint
      satisfiability of key constraints during satisfiability search;
    - emptiness, universality and shortest-witness extraction, used by
      the satisfiability algorithms (Propositions 5, 7, 10) to realize
      keys and string values.

    The transition table is complete (a dead state is materialized) and
    indexed by an {e alphabet partition}: bytes that no charset of the
    source expression distinguishes share a class, keeping tables small. *)

type t

val of_syntax : Syntax.t -> t
(** Subset construction over the Thompson NFA of the expression. *)

val state_count : t -> int
val accepts : t -> string -> bool

val complement : t -> t
val inter : t -> t -> t
val union : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
(** Is the language empty? *)

val is_universal : t -> bool
(** Does the automaton accept every word? *)

val equiv : t -> t -> bool
(** Language equivalence. *)

val subset : t -> t -> bool
(** [subset a b] iff L(a) ⊆ L(b). *)

val shortest_word : t -> string option
(** A length-lexicographically minimal accepted word, if any — the
    witness extractor for key/value realization. *)

val sample_words : ?limit:int -> t -> string list
(** Up to [limit] (default 5) distinct short accepted words, in
    BFS order.  Used to enumerate distinct keys/strings when a model
    needs several different witnesses (e.g. under [Unique]). *)

val minimize : t -> t
(** Moore minimization (also prunes unreachable states). *)

val to_syntax : t -> Syntax.t
(** Kleene's state-elimination construction: a regular expression
    denoting the automaton's language.  Needed to express {e computed}
    languages — complements of key sets for JSON Schema's
    [additionalProperties] — as expressions that JSL modalities and
    schema keywords can carry.  The result can be large; the input is
    minimized first to keep it manageable. *)

(** {1 Alphabet partitions}

    The alphabets {!of_syntax} and the products build their tables
    over.  A partition is [(class_of, class_count, reps)]: [class_of]
    maps each byte to its class, and [reps.(c)] is class [c]'s
    representative.  Classes are numbered by their first byte in a
    fixed witness-friendly order (letters, digits, [_-. ], then every
    other byte by code), and that first byte is the representative, so
    witnesses read off [reps] are printable where the language allows
    it. *)

val partition_of_sets : Charset.t list -> int array * int * char array
(** The coarsest partition in which each of the charsets is a union of
    classes: two bytes share a class iff they belong to the same
    charsets.  Built by splitting the alphabet one charset at a time. *)

val refine : int array -> int array -> int array * int * char array
(** [refine a b] is the common refinement of the two byte-to-class maps
    [a] and [b]: two bytes share a class iff they share one in both.
    Each map numbers its classes [0 .. n-1] with none empty, as every
    partition built here does. *)
