(** Abstract syntax of the regular expressions over Σ* used throughout
    the logics: the non-deterministic axes [X_e] of JNL (§4.3), the
    [Pattern(e)] node test and the [◇_e]/[□_e] modalities of JSL (§5.2),
    and the [pattern] / [patternProperties] keywords of JSON Schema.

    Values are kept in a lightly normalized form by the smart
    constructors ([cat], [alt], [star] …): ∅ and ε are absorbed, nested
    alternations are deduplicated, and [star] is idempotent.  This keeps
    Brzozowski derivative sets finite and small. *)

type t = private
  | Empty  (** ∅ — the empty language *)
  | Epsilon  (** ε — the singleton empty word *)
  | Chars of Charset.t  (** one character from a non-empty set *)
  | Cat of t * t
  | Alt of t * t
  | Star of t

val empty : t
val epsilon : t
val chars : Charset.t -> t
(** [chars cs] is [Empty] when [cs] is empty. *)

val char : char -> t
val any_char : t
(** One arbitrary character: [Chars full]. *)

val cat : t -> t -> t
val alt : t -> t -> t
val star : t -> t
val plus : t -> t
val opt : t -> t

val cat_list : t list -> t

val repeat : int -> int option -> t -> t
(** [repeat m n r] is [r{m,n}]; [None] means unbounded. *)

val literal : string -> t
(** The singleton language of one word. *)

val all : t
(** Σ* — every word.  Used pervasively ([X_{Σ*}], [□_{Σ*}] …). *)

val nullable : t -> bool
(** Does the language contain ε? *)

val as_word : t -> string option
(** [Some w] when the expression is syntactically a single word
    (concatenation of singleton character classes) — the shape produced
    by {!literal}.  Distinguishes the deterministic fragments of the
    logics (single-word keys) from the non-deterministic ones. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val size : t -> int
(** Number of AST nodes, the measure |e| in complexity statements. *)

val pp : Format.formatter -> t -> unit
(** Round-trippable concrete syntax (parsable by {!Parse}). *)

val to_string : t -> string
