type position = { line : int; col : int; offset : int }

type token =
  | Lbrace
  | Rbrace
  | Lbracket
  | Rbracket
  | Colon
  | Comma
  | String of string
  | Nat of int
  | Neg_int of int
  | Float of float
  | True
  | False
  | Null
  | Eof

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

(* The resumable feed core.  One [t] serves both modes:

   - one-shot ([create]): the whole input is the window and the lexer
     is born closed, so every scan below behaves exactly like the
     historical string lexer — no [`Await] is ever produced;
   - feed ([create_feed]): bytes arrive in chunks via [feed].  A scan
     that runs off the window while the lexer is still open raises the
     internal [Need_input]; the entry points roll the cursor back to
     the token start and either report [`Await] or refill, and the next
     attempt rescans the token from its first byte once more input is
     present.  The retained state across a chunk boundary is therefore
     exactly the pending token's bytes (partial escapes, a lone high
     surrogate, an unterminated number, split UTF-8 sequences — all of
     it), which is what makes a token split at any byte offset lex
     identically to the one-shot path: the same code scans the same
     byte run either way.

   A successful scan leaves the token on the lexer (the [t_*] fields)
   instead of returning it: its kind, start, line, integer value and,
   for an escape-free string, its body as a slice of the window.  Only
   escaped strings and floats are materialized by the scan itself.

   The window is compacted on [feed]: everything before the current
   token's first byte has been consumed (an [`Await] rolls the cursor
   back first), so memory follows the largest in-flight token plus one
   chunk, never the stream, and the current token's slice survives a
   feed. *)
type t = {
  mutable buf : Bytes.t;  (* window [base, base + len) of the input *)
  mutable base : int;  (* global byte offset of buf.[0] *)
  mutable len : int;  (* valid bytes in [buf] *)
  mutable pos : int;  (* global cursor *)
  mutable line : int;
  mutable bol : int;  (* global offset of the beginning of the current line *)
  mutable closed : bool;
  refill : (t -> unit) option;
  scratch : Buffer.t;  (* shared decode buffer for escaped string literals *)
  mutable peeked : bool;  (* the current token is a lookahead not yet consumed *)
  mutable t_kind : kind;
  mutable t_start : int;  (* global offset of the current token's first byte *)
  mutable t_line : int;
  mutable t_bol : int;
  mutable t_int : int;  (* [K_nat]/[K_neg_int] value *)
  mutable t_float : float;  (* [K_float] value *)
  mutable t_slen : int;  (* escape-free string body: [t_start + 1, + t_slen) *)
  mutable t_esc : bool;  (* the string body is [t_dec], not a window slice *)
  mutable t_dec : string;
}

(* Internal: the window ran dry mid-scan and the lexer is still open.
   Never escapes the entry points. *)
exception Need_input

let make buf len closed refill pos =
  { buf;
    base = 0;
    len;
    pos;
    line = 1;
    bol = pos;
    closed;
    refill;
    scratch = Buffer.create 64;
    peeked = false;
    t_kind = K_eof;
    t_start = 0;
    t_line = 1;
    t_bol = 0;
    t_int = 0;
    t_float = 0.;
    t_slen = 0;
    t_esc = false;
    t_dec = "" }

(* The one-shot window aliases the input string without copying: the
   buffer is only ever written by [feed], which a closed lexer
   rejects. *)
let create_at input pos =
  make (Bytes.unsafe_of_string input) (String.length input) true None pos

let create input = create_at input 0

let create_feed ?refill () = make (Bytes.create 256) 0 false refill 0

(* global offset one past the last byte currently in the window *)
let limit lx = lx.base + lx.len
let get lx i = Bytes.get lx.buf (i - lx.base)

let position lx = { line = lx.line; col = lx.pos - lx.bol + 1; offset = lx.pos }

let error lx fmt =
  Format.kasprintf (fun s -> raise (Error (position lx, s))) fmt

(* "Is the cursor at end of input?" is unanswerable in feed mode until
   [close]: with the window dry and the stream open the scan must
   suspend, which is exactly the [Need_input] raise — every EOF-probing
   call site below inherits resumability from this one function. *)
let is_eof lx =
  if lx.pos < limit lx then false
  else if lx.closed then true
  else raise Need_input

let cur lx = get lx lx.pos

let advance lx =
  if not (is_eof lx) then begin
    if cur lx = '\n' then begin
      lx.line <- lx.line + 1;
      lx.bol <- lx.pos + 1
    end;
    lx.pos <- lx.pos + 1
  end

let skip_ws lx =
  let lim = limit lx in
  let i = ref lx.pos in
  while
    !i < lim
    &&
    match get lx !i with
    | ' ' | '\t' | '\r' -> true
    | '\n' ->
      lx.line <- lx.line + 1;
      lx.bol <- !i + 1;
      true
    | _ -> false
  do
    incr i
  done;
  lx.pos <- !i;
  ignore (is_eof lx)

(* Do the [n] bytes of the window from global offset [at] equal [s]
   from [i] on?  The caller checks that they are in the window. *)
let rec window_equal lx at s i n =
  i >= n
  || Bytes.unsafe_get lx.buf (at - lx.base + i) = String.unsafe_get s i
     && window_equal lx at s (i + 1) n

let expect_word lx word kind =
  let n = String.length word in
  (* fewer than [n] bytes in an open window could still complete the
     word; fewer in a closed one (or a mismatch) is the same error the
     one-shot lexer reports on the full input *)
  if lx.pos + n > limit lx && not lx.closed then raise Need_input;
  if lx.pos + n <= limit lx && window_equal lx lx.pos word 0 n then begin
    lx.pos <- lx.pos + n;
    kind
  end
  else error lx "expected literal %S" word

let hex_digit lx c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> error lx "invalid hex digit %C in \\u escape" c

let read_u16 lx =
  let code = ref 0 in
  for _ = 1 to 4 do
    if is_eof lx then error lx "unterminated \\u escape";
    code := (!code * 16) + hex_digit lx (cur lx);
    advance lx
  done;
  !code

(* Encode a unicode scalar value as UTF-8 into [buf]. *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* [decode = false] validates the literal (escapes, surrogate pairing,
   control characters) without materializing its contents — the
   streaming validator's skip path and anything else that discards the
   value use it to avoid the decode work; the token then reads as
   [""]. *)
let read_string ~decode lx =
  lx.pos <- lx.pos + 1 (* opening quote *);
  let lim = limit lx in
  (* Plain-segment fast path: most literals contain no escapes, so scan
     for the closing quote with direct index arithmetic and leave the
     body in the window.  String bodies cannot contain raw newlines
     (control characters are rejected), so line accounting is
     unaffected. *)
  let i = ref lx.pos in
  while
    !i < lim
    &&
    let c = get lx !i in
    c <> '"' && c <> '\\' && Char.code c >= 0x20
  do
    incr i
  done;
  if !i < lim && get lx !i = '"' then begin
    if decode then begin
      lx.t_esc <- false;
      lx.t_slen <- !i - lx.pos
    end
    else begin
      lx.t_esc <- true;
      lx.t_dec <- ""
    end;
    lx.pos <- !i + 1
  end
  else begin
    (* an escape, a control character or the window's edge ahead:
       general path, decoding into the lexer's shared scratch buffer
       (one allocation per lexer, not per literal) *)
    let buf = lx.scratch in
    Buffer.clear buf;
    if decode then
      Buffer.add_subbytes buf lx.buf (lx.pos - lx.base) (!i - lx.pos);
    lx.pos <- !i;
    let rec go () =
      if is_eof lx then error lx "unterminated string literal";
      match cur lx with
      | '"' ->
        advance lx;
        lx.t_esc <- true;
        lx.t_dec <- (if decode then Buffer.contents buf else "")
      | '\\' ->
        advance lx;
        if is_eof lx then error lx "unterminated escape sequence";
        let c = cur lx in
        advance lx;
        let put ch = if decode then Buffer.add_char buf ch in
        (match c with
        | '"' -> put '"'
        | '\\' -> put '\\'
        | '/' -> put '/'
        | 'b' -> put '\b'
        | 'f' -> put '\012'
        | 'n' -> put '\n'
        | 'r' -> put '\r'
        | 't' -> put '\t'
        | 'u' ->
          let hi = read_u16 lx in
          if hi >= 0xD800 && hi <= 0xDBFF then begin
            (* high surrogate: a \uXXXX low surrogate must follow *)
            if is_eof lx || cur lx <> '\\' then
              error lx "high surrogate not followed by \\u escape";
            if lx.pos + 1 >= limit lx && not lx.closed then raise Need_input;
            if lx.pos + 1 >= limit lx || get lx (lx.pos + 1) <> 'u' then
              error lx "high surrogate not followed by \\u escape";
            advance lx;
            advance lx;
            let lo = read_u16 lx in
            if lo < 0xDC00 || lo > 0xDFFF then
              error lx "invalid low surrogate %04x" lo;
            if decode then
              add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
          end
          else if hi >= 0xDC00 && hi <= 0xDFFF then
            error lx "unpaired low surrogate %04x" hi
          else if decode then add_utf8 buf hi
        | c -> error lx "invalid escape character %C" c);
        go ()
      | c when Char.code c < 0x20 ->
        error lx "unescaped control character %#x in string" (Char.code c)
      | c ->
        if decode then Buffer.add_char buf c;
        advance lx;
        go ()
    in
    go ()
  end

let is_digit c = c >= '0' && c <= '9'

(* Advance over a run of digits.  Digits hold no newline, so line
   accounting is unaffected; a run reaching the edge of an open window
   may continue in the next chunk. *)
let skip_digits lx =
  let lim = limit lx in
  let i = ref lx.pos in
  while !i < lim && is_digit (get lx !i) do
    incr i
  done;
  lx.pos <- !i;
  ignore (is_eof lx)

(* At most 18 decimal digits always fit in an OCaml int: those are
   accumulated in place; longer literals go through [int_of_string_opt],
   which decides [min_int] and the out-of-range error. *)
let max_inplace_digits = 18

let literal_text lx start =
  Bytes.sub_string lx.buf (start - lx.base) (lx.pos - start)

let read_number lx =
  let start = lx.pos in
  if cur lx = '-' then lx.pos <- lx.pos + 1;
  if is_eof lx then error lx "truncated number";
  let first = lx.pos in
  let n = ref 0 in
  (match cur lx with
  | '0' -> lx.pos <- lx.pos + 1
  | '1' .. '9' ->
    let lim = limit lx in
    let i = ref lx.pos in
    while
      !i < lim
      &&
      let c = get lx !i in
      is_digit c
      && begin
           n := (!n * 10) + (Char.code c - Char.code '0');
           true
         end
    do
      incr i
    done;
    lx.pos <- !i;
    ignore (is_eof lx)
  | c -> error lx "invalid number start %C" c);
  let digits = lx.pos - first in
  let is_float = ref false in
  if (not (is_eof lx)) && cur lx = '.' then begin
    is_float := true;
    lx.pos <- lx.pos + 1;
    if is_eof lx || not (is_digit (cur lx)) then
      error lx "missing digits after decimal point";
    skip_digits lx
  end;
  if (not (is_eof lx)) && (cur lx = 'e' || cur lx = 'E') then begin
    is_float := true;
    lx.pos <- lx.pos + 1;
    if (not (is_eof lx)) && (cur lx = '+' || cur lx = '-') then
      lx.pos <- lx.pos + 1;
    if is_eof lx || not (is_digit (cur lx)) then
      error lx "missing exponent digits";
    skip_digits lx
  end;
  if !is_float then begin
    let text = literal_text lx start in
    let f = float_of_string text in
    (* [1e999] overflows to [infinity] (and [-1e999] to its negative),
       which nothing downstream can represent or re-serialize as JSON —
       reject it here, uniformly across the tree, stream and schema
       paths, like an integer literal out of range *)
    if Float.is_finite f then begin
      lx.t_float <- f;
      K_float
    end
    else error lx "number literal %s out of range" text
  end
  else
    (* [-0] is signed, not a natural: classify by the written sign, so
       the model layer (naturals only) rejects it like any negative *)
    let negative = first > start in
    if digits <= max_inplace_digits then begin
      lx.t_int <- (if negative then - !n else !n);
      if negative then K_neg_int else K_nat
    end
    else
      let text = literal_text lx start in
      match int_of_string_opt text with
      | Some n ->
        lx.t_int <- n;
        if negative then K_neg_int else K_nat
      | None -> error lx "integer literal %s out of range" text

let scan_token ~decode lx =
  skip_ws lx;
  lx.t_start <- lx.pos;
  lx.t_line <- lx.line;
  lx.t_bol <- lx.bol;
  if is_eof lx then K_eof
  else
    match cur lx with
    | '{' ->
      lx.pos <- lx.pos + 1;
      K_lbrace
    | '}' ->
      lx.pos <- lx.pos + 1;
      K_rbrace
    | '[' ->
      lx.pos <- lx.pos + 1;
      K_lbracket
    | ']' ->
      lx.pos <- lx.pos + 1;
      K_rbracket
    | ':' ->
      lx.pos <- lx.pos + 1;
      K_colon
    | ',' ->
      lx.pos <- lx.pos + 1;
      K_comma
    | '"' ->
      read_string ~decode lx;
      K_string
    | 't' -> expect_word lx "true" K_true
    | 'f' -> expect_word lx "false" K_false
    | 'n' -> expect_word lx "null" K_null
    | '-' | '0' .. '9' -> read_number lx
    | c -> error lx "unexpected character %C" c

(* Scan one token onto the cursor, rolling back to the token start when
   the window ran dry: after more bytes are fed the retry rescans the
   token from its first byte, so its full byte run is lexed exactly as
   the one-shot path lexes it. *)
let scan ~decode lx =
  let pos = lx.pos and line = lx.line and bol = lx.bol in
  match scan_token ~decode lx with
  | k ->
    lx.t_kind <- k;
    true
  | exception Need_input ->
    lx.pos <- pos;
    lx.line <- line;
    lx.bol <- bol;
    false

let feed lx bytes off n =
  if lx.closed then invalid_arg "Jsont.Lexer.feed: the lexer is closed";
  if off < 0 || n < 0 || off + n > Bytes.length bytes then
    invalid_arg "Jsont.Lexer.feed: invalid byte range";
  (* compact: everything before the current token has been consumed (a
     suspended scan rolled the cursor back to its token start) *)
  let consumed = min lx.pos lx.t_start - lx.base in
  if consumed > 0 then begin
    Bytes.blit lx.buf consumed lx.buf 0 (lx.len - consumed);
    lx.base <- lx.base + consumed;
    lx.len <- lx.len - consumed
  end;
  let need = lx.len + n in
  if need > Bytes.length lx.buf then begin
    let cap = ref (max 256 (Bytes.length lx.buf)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let grown = Bytes.create !cap in
    Bytes.blit lx.buf 0 grown 0 lx.len;
    lx.buf <- grown
  end;
  Bytes.blit bytes off lx.buf lx.len n;
  lx.len <- need

let feed_string lx s = feed lx (Bytes.unsafe_of_string s) 0 (String.length s)

let close lx = lx.closed <- true

(* ---- the cursor ---------------------------------------------------------- *)

let rec next_with ~decode lx =
  if lx.peeked then begin
    lx.peeked <- false;
    lx.t_kind
  end
  else if scan ~decode lx then lx.t_kind
  else begin
    (match lx.refill with
    | None ->
      invalid_arg
        "Jsont.Lexer: token stream awaiting input (feed more bytes or close)"
    | Some f ->
      let lim = limit lx in
      f lx;
      if limit lx = lim && not lx.closed then
        invalid_arg "Jsont.Lexer: refill fed no bytes and did not close");
    next_with ~decode lx
  end

let next_kind lx = next_with ~decode:true lx
let next_kind_skip lx = next_with ~decode:false lx

let peek_kind lx =
  if lx.peeked then lx.t_kind
  else begin
    let k = next_kind lx in
    lx.peeked <- true;
    k
  end

let token_position lx =
  { line = lx.t_line; col = lx.t_start - lx.t_bol + 1; offset = lx.t_start }

let int_value lx = lx.t_int
let float_value lx = lx.t_float

let string_value lx =
  if lx.t_esc then lx.t_dec
  else Bytes.sub_string lx.buf (lx.t_start + 1 - lx.base) lx.t_slen

(* FNV-1a over the bytes, folded so the low bits a power-of-two table
   masks with see the whole key. *)
let hash_bytes b off len =
  let h = ref 0x2545F4914F6CDD1D in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * 0x100000001b3
  done;
  let h = !h in
  (h lxor (h lsr 29)) land max_int

let hash_string s = hash_bytes (Bytes.unsafe_of_string s) 0 (String.length s)

let string_hash lx =
  if lx.t_esc then hash_string lx.t_dec
  else hash_bytes lx.buf (lx.t_start + 1 - lx.base) lx.t_slen

let string_equal lx s =
  if lx.t_esc then String.equal lx.t_dec s
  else
    String.length s = lx.t_slen
    && window_equal lx (lx.t_start + 1) s 0 lx.t_slen

(* ---- token values: thin wrappers over the cursor ------------------------ *)

let token lx =
  match lx.t_kind with
  | K_lbrace -> Lbrace
  | K_rbrace -> Rbrace
  | K_lbracket -> Lbracket
  | K_rbracket -> Rbracket
  | K_colon -> Colon
  | K_comma -> Comma
  | K_string -> String (string_value lx)
  | K_nat -> Nat lx.t_int
  | K_neg_int -> Neg_int lx.t_int
  | K_float -> Float lx.t_float
  | K_true -> True
  | K_false -> False
  | K_null -> Null
  | K_eof -> Eof

let current lx = (token_position lx, token lx)

let pull lx =
  let ready = lx.peeked || scan ~decode:true lx in
  lx.peeked <- false;
  if not ready then `Await
  else match lx.t_kind with K_eof -> `End | _ -> `Token (current lx)

let next lx =
  ignore (next_kind lx);
  current lx

let offset lx = if lx.peeked then lx.t_start else lx.pos

let pp_token fmt = function
  | Lbrace -> Format.pp_print_string fmt "'{'"
  | Rbrace -> Format.pp_print_string fmt "'}'"
  | Lbracket -> Format.pp_print_string fmt "'['"
  | Rbracket -> Format.pp_print_string fmt "']'"
  | Colon -> Format.pp_print_string fmt "':'"
  | Comma -> Format.pp_print_string fmt "','"
  | String s -> Format.fprintf fmt "string %S" s
  | Nat n -> Format.fprintf fmt "number %d" n
  | Neg_int n -> Format.fprintf fmt "number %d" n
  | Float f -> Format.fprintf fmt "number %g" f
  | True -> Format.pp_print_string fmt "'true'"
  | False -> Format.pp_print_string fmt "'false'"
  | Null -> Format.pp_print_string fmt "'null'"
  | Eof -> Format.pp_print_string fmt "end of input"

let tokenize input =
  let lx = create input in
  let rec go acc =
    match next_kind lx with
    | K_eof -> List.rev (current lx :: acc)
    | _ -> go (current lx :: acc)
  in
  go []
