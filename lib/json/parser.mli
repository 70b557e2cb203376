(** Recursive-descent parser producing {!Value.t}.

    Two modes control how full-JSON literals outside the paper's model
    (Section 2 restricts values to objects, arrays, strings and natural
    numbers) are treated:

    - [`Strict] (default): [true], [false], [null], floats and negative
      integers are rejected with a descriptive error.
    - [`Lenient]: [true]/[false]/[null] are encoded as the strings
      ["true"]/["false"]/["null"]; floats that are exact non-negative
      integers are narrowed; anything else is still rejected.

    Duplicate object keys are always rejected, as mandated by the JSON
    tree model (condition 2 of Definition in Section 3.1).  Detection
    goes through one {!Keyset} per parse, the set {!skip_value} and the
    streaming validator use too, so every reader checks a key in
    constant expected time and reading an object is linear in its
    keys. *)

type error = { position : Lexer.position; message : string }

val pp_error : Format.formatter -> error -> unit
(** Renders ["line L, column C: message"]. *)

exception Parse_error of error

val parse : ?mode:[ `Strict | `Lenient ] -> ?budget:Obs.Budget.t -> string
  -> (Value.t, error) result
(** [parse input] parses a single JSON document followed only by
    whitespace.  [budget] bounds nesting (default: depth
    {!Obs.Budget.default_max_depth}, i.e. [10_000], and nothing else)
    to keep the parser total on adversarial inputs, and enforces its
    fuel allowance (one unit per parsed value) and wall-clock
    deadline; exhaustion surfaces as a positioned [Error], never as an
    exception escaping [parse]. *)

val parse_exn : ?mode:[ `Strict | `Lenient ] -> ?budget:Obs.Budget.t
  -> string -> Value.t
(** Like {!parse}.  @raise Parse_error on failure (including budget
    exhaustion). *)

val parse_prefix :
  ?budget:Obs.Budget.t -> string -> int -> (Value.t * int, error) result
(** [parse_prefix input start] parses one [`Strict] JSON document
    beginning at byte offset [start] of [input] and returns it together
    with the offset of the first byte after it, lexing [input] in place
    (so a formula with many embedded documents parses in linear time).
    An error's offset is one of [input]; its line and column count
    from [start].  Lets other parsers (the JNL and JSL concrete
    syntaxes) embed JSON documents. *)

(** {1 Internals shared with the direct ingestion path}

    {!Tree.of_string} fuses lexing, parsing and tree construction into
    one pass; it reuses the helpers below so that its positions,
    messages and budget behavior are {e identical} to this parser's —
    the property the differential tests pin down. *)

val fail : Lexer.position -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Parse_error} at the given position. *)

val fail_at : Lexer.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail] at the position of the lexer's current token. *)

val unexpected : Lexer.position -> Lexer.token -> string -> 'a
(** [unexpected pos tok expectation] fails with the parser's uniform
    "unexpected …, expected …" message. *)

val unexpected_at : Lexer.t -> string -> 'a
(** [unexpected] of the lexer's current token, at its position. *)

type atom = Int of int | Str of string
(** A leaf admitted into the model. *)

val literal_atom : [ `Strict | `Lenient ] -> Lexer.t -> Lexer.kind -> atom
(** Classify the current literal token, of the given kind, under the
    given mode; fails exactly like the parser on literals outside the
    model.  Must only be applied to literal kinds ([K_string]/[K_nat]/
    [K_neg_int]/[K_float]/[K_true]/[K_false]/[K_null]). *)

val guard : units:int -> Obs.Budget.t -> Lexer.t -> int -> unit
(** One budget check per parsed value — depth against the ceiling and
    [units] units of fuel — with exhaustion reported as a
    parse error positioned at the lexer's current token (the value's
    first token, scanned or peeked). *)

val expect_colon : Lexer.t -> unit
(** Consume a [':'], or fail as the parser does. *)

val expect_eof : Lexer.t -> unit
(** Consume the end of input, or fail as the parser does on trailing
    input. *)

val skip_value : Obs.Budget.t -> Keyset.t -> Lexer.t -> int -> unit
(** [skip_value budget keys lx depth] consumes one complete JSON value
    starting at depth [depth] without building it, in memory
    proportional to its nesting depth plus the keys of open objects,
    which duplicate detection must retain (in [keys], a set the caller
    may share with the objects enclosing the value).  Every check the
    strict building routes apply still applies — syntax, duplicate
    object keys, [`Strict] literal admission, and the budget guard (one
    fuel unit per value) — with byte-identical errors, so skipping
    never weakens validation.  String {e values} are validated
    without being decoded. *)

val budget_of : Obs.Budget.t option -> Obs.Budget.t
(** The budget an entry point runs under: the explicit one if given,
    otherwise depth-limited to {!Obs.Budget.default_max_depth}. *)

val wrap : (unit -> 'a) -> ('a, error) result
(** Run a parsing computation, catching {!Parse_error} and
    {!Lexer.Error} into [Error]. *)
