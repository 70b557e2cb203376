(** A from-scratch JSON lexer with a resumable feed core.

    Tokenizes the full RFC 8259 grammar (including [true]/[false]/[null]
    and fractional/exponent numbers); the {!Parser} decides which of
    those are admitted into the paper's restricted data model.

    Strings are decoded: the eight single-character escapes and
    [\uXXXX] (including UTF-16 surrogate pairs) are resolved and the
    result is stored as UTF-8 bytes.

    The lexer has two front doors over one scanning core:

    - {!create} for one-shot lexing of an in-memory string;
    - {!create_feed} for incremental lexing of a byte stream delivered
      in arbitrary chunks via {!feed}/{!close}, drained with {!pull} or
      through a [refill] callback.

    and two ways to read tokens:

    - the {{!cursor}cursor} ({!next_kind}, {!peek_kind} and the
      accessors), which leaves the current token on the lexer and
      allocates nothing for structural tokens, integers, literals or
      escape-free strings — what {!Parser}, {!Tree} and the streaming
      validator read;
    - token values ({!next}, {!pull}, {!tokenize}), thin
      wrappers that build a {!position} and a {!token} from the cursor.

    A token split at {e any} byte offset by a chunk boundary lexes
    identically (token, position, error, everything) to the one-shot
    path: a scan that runs out of buffered bytes suspends, and once
    more bytes arrive it rescans the pending token from its first byte
    with the same code the one-shot path runs.  Consumed bytes are
    compacted away on {!feed}, so memory follows the largest in-flight
    token plus one chunk, not the stream. *)

type position = { line : int; col : int; offset : int }
(** 1-based line and column of the {e start} of a token, plus byte
    offset into the input. *)

type token =
  | Lbrace  (** [{] *)
  | Rbrace  (** [}] *)
  | Lbracket  (** [\[] *)
  | Rbracket  (** [\]] *)
  | Colon  (** [:] *)
  | Comma  (** [,] *)
  | String of string  (** a decoded string literal *)
  | Nat of int  (** a non-negative integer literal *)
  | Neg_int of int
      (** a negatively-signed integer literal (outside the model).
          [-0] lexes as [Neg_int 0]: the sign is classified as written,
          so the natural-number model rejects it uniformly (lenient
          parsing narrows it to the natural [0]). *)
  | Float of float
      (** a literal with fraction or exponent.  Literals whose value
          overflows the double range (e.g. [1e999]) are a lexical
          error, not an infinity: infinities cannot be re-serialized
          as JSON. *)
  | True
  | False
  | Null
  | Eof

(** The kind of the cursor's current token: {!token} without its
    payload, an immediate. *)
type kind =
  | K_lbrace
  | K_rbrace
  | K_lbracket
  | K_rbracket
  | K_colon
  | K_comma
  | K_string
  | K_nat
  | K_neg_int
  | K_float
  | K_true
  | K_false
  | K_null
  | K_eof

exception Error of position * string
(** Lexical error with the position at which it occurred.  After an
    [Error] the lexer is stuck mid-token; further pulls are
    unspecified. *)

type t
(** A lexer state: a byte window over the input plus the scan cursor. *)

val create : string -> t
(** [create input] is a one-shot lexer over all of [input] (a feed
    lexer born with the whole stream already fed and closed).  The
    input string is aliased, not copied, and is never mutated.  Never
    produces [`Await]. *)

val create_at : string -> int -> t
(** [create_at input pos] is {!create} with the cursor at byte [pos]:
    offsets are still those of [input], while lines and columns count
    from [pos]. *)

(** {1 Feed mode} *)

val create_feed : ?refill:(t -> unit) -> unit -> t
(** [create_feed ()] is a lexer over a stream of bytes yet to arrive.

    Without [refill], drive it with {!pull}: feed chunks whenever it
    answers [`Await], and {!close} at end of stream.

    With [refill], the blocking API (the cursor and {!next}) also
    works on a feed lexer: whenever a scan needs more bytes the
    callback is invoked and must either {!feed} at least one byte or
    {!close} the lexer (anything else raises [Invalid_argument], as
    the pull could never complete).  This is
    how chunked file/stdin readers drive the [Parser]/[Tree]/validator
    machinery. *)

val feed : t -> bytes -> int -> int -> unit
(** [feed lx bytes off len] appends [len] bytes of input starting at
    [bytes.[off]].  The chunk is copied; the caller may reuse [bytes].
    @raise Invalid_argument if the lexer is closed or the range is
    invalid. *)

val feed_string : t -> string -> unit
(** [feed_string lx s] is [feed] of all of [s]. *)

val close : t -> unit
(** [close lx] marks end of stream: no more bytes will arrive.  Pulls
    can then answer end-of-input questions (a dangling token becomes
    the same error the one-shot lexer reports).  Idempotent. *)

val pull : t -> [ `Token of position * token | `Await | `End ]
(** [pull lx] is the next token, or [`Await] if the buffered bytes do
    not suffice to decide it (feed more, or {!close}, then pull
    again), or [`End] after the final token of a closed stream.
    [`Await] consumes nothing: the pending token's bytes stay buffered
    and are rescanned from the token start on the next pull.
    @raise Error on malformed input, exactly as one-shot lexing. *)

(** {1:cursor The cursor}

    [next_kind] and [peek_kind] scan a token and leave it on the lexer
    as the {e current token}; the accessors below read it.

    {b Contract.} The accessors describe the token the last scan
    produced and stay valid until the next scan.  A scan happens in
    {!next_kind}/{!next_kind_skip} unless a token is peeked, in
    {!peek_kind} unless one already is, and in every token-value entry
    point ({!next}, {!pull}, {!tokenize}).  A {!next_kind} that
    consumes a peeked token does not scan, so the token read after
    [peek_kind] stays readable after the [next_kind] that consumes it.
    An escape-free string's body is read straight out of the input
    window.  {!feed} compacts the window only up to the current token's
    first byte, so a feed made while a token is current (a caller that
    peeks, then feeds the next chunk before consuming it) keeps the
    token readable; a [refill] runs inside a scan, when no token is
    current.

    Nothing is allocated per token except for strings with escapes
    (decoded once, at the scan), floats (boxed) and integer literals
    longer than 18 digits (parsed by [int_of_string_opt], so [min_int]
    and the out-of-range error are those of the token-value API).
    Positions are built only when asked for ({!token_position}). *)

val next_kind : t -> kind
(** [next_kind lx] consumes the next token and returns its kind.  After
    [K_eof] it keeps returning [K_eof].  @raise Error on malformed
    input.  On a feed lexer it blocks on the [refill] callback when
    bytes run short; without one, needing more bytes raises
    [Invalid_argument]. *)

val next_kind_skip : t -> kind
(** Like {!next_kind}, but a string literal is {e validated without
    being decoded}: escapes, surrogate pairing and control characters
    are still checked, positions and errors are identical, but its
    {!string_value} is [""]. *)

val peek_kind : t -> kind
(** [peek_kind lx] scans the next token without consuming it: it
    becomes the current token, and the next {!next_kind} (or
    {!next_kind_skip}) returns it without scanning. *)

val token_position : t -> position
(** Position of the current token's first byte. *)

val int_value : t -> int
(** The value of a [K_nat] or [K_neg_int] current token ([0] for
    [-0]). *)

val float_value : t -> float
(** The value of a [K_float] current token. *)

val string_value : t -> string
(** The decoded body of a [K_string] current token, as a fresh string
    for an escape-free literal. *)

val string_hash : t -> int
(** [hash_string (string_value lx)], computed in place. *)

val string_equal : t -> string -> bool
(** [String.equal (string_value lx) s], compared in place. *)

val hash_string : string -> int
(** The non-negative hash {!string_hash} computes: one hash a key
    table can share between keys it holds as strings and keys read off
    the cursor. *)

val token : t -> token
(** The current token as a value. *)

(** {1 Token values} *)

val next : t -> position * token
(** [next lx] is {!next_kind} with the token and its position as
    values.  After [Eof] it keeps returning [Eof].  @raise Error on
    malformed input. *)

val offset : t -> int
(** Byte offset of the first unconsumed byte (the peeked token's start
    when a lookahead is pending). *)

val pp_token : Format.formatter -> token -> unit
(** Render a token for error messages. *)

val tokenize : string -> (position * token) list
(** [tokenize input] is the full token stream, ending with [Eof].
    @raise Error on malformed input. *)
