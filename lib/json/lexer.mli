(** A from-scratch JSON lexer with a resumable feed core.

    Tokenizes the full RFC 8259 grammar (including [true]/[false]/[null]
    and fractional/exponent numbers); the {!Parser} decides which of
    those are admitted into the paper's restricted data model.

    Strings are decoded: the eight single-character escapes and
    [\uXXXX] (including UTF-16 surrogate pairs) are resolved and the
    result is stored as UTF-8 bytes.

    The lexer has two front doors over one scanning core:

    - {!create} for one-shot lexing of an in-memory string — the
      historical API, used by {!Parser}, {!Tree} and the streaming
      validator;
    - {!create_feed} for incremental lexing of a byte stream delivered
      in arbitrary chunks via {!feed}/{!close} and drained with
      {!pull}.

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

(** {1 Feed mode} *)

val create_feed : ?refill:(t -> unit) -> unit -> t
(** [create_feed ()] is a lexer over a stream of bytes yet to arrive.

    Without [refill], drive it with {!pull}: feed chunks whenever it
    answers [`Await], and {!close} at end of stream.

    With [refill], the blocking API ({!next}, {!next_skip}, {!peek})
    also works on a feed lexer: whenever a scan needs more bytes the
    callback is invoked and must either {!feed} at least one byte or
    {!close} the lexer (anything else raises [Invalid_argument], as
    the pull could never complete).  This is how chunked file/stdin
    readers drive the unchanged [Parser]/[Tree]/validator machinery. *)

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

(** {1 Pulling tokens} *)

val next : t -> position * token
(** [next lx] consumes and returns the next token.  After [Eof] it keeps
    returning [Eof].  @raise Error on malformed input.

    String literals are decoded through a scratch buffer shared across
    the lexer's lifetime (escape-free literals are cut directly out of
    the input without touching it).

    On a feed lexer this blocks on the [refill] callback when bytes run
    short; without one, needing more bytes raises [Invalid_argument]. *)

val next_skip : t -> position * token
(** Like {!next}, but string literals are {e validated without being
    decoded}: escapes, surrogate pairing and control characters are
    still checked, positions and errors are identical to {!next}, but
    the returned [String] token carries [""].  For skip paths that
    discard the value (e.g. the streaming validator fast-forwarding
    over irrelevant subtrees). *)

val peek : t -> position * token
(** [peek lx] is the next token without consuming it. *)

val offset : t -> int
(** Byte offset of the first unconsumed byte (the peeked token's start
    when a lookahead is pending). *)

val pp_token : Format.formatter -> token -> unit
(** Render a token for error messages. *)

val tokenize : string -> (position * token) list
(** [tokenize input] is the full token stream, ending with [Eof].
    @raise Error on malformed input. *)
