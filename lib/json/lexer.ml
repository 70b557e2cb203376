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

exception Error of position * string

(* The resumable feed core.  One [t] serves both modes:

   - one-shot ([create]): the whole input is the window and the lexer
     is born closed, so every scan below behaves exactly like the
     historical string lexer — no [`Await] is ever produced;
   - feed ([create_feed]): bytes arrive in chunks via [feed].  A scan
     that runs off the window while the lexer is still open raises the
     internal [Need_input]; the pull entry points roll the cursor back
     to the token start and report [`Await], and the next attempt
     rescans the token from its first byte once more input is present.
     The retained state across a chunk boundary is therefore exactly
     the pending token's bytes (partial escapes, a lone high surrogate,
     an unterminated number, split UTF-8 sequences — all of it), which
     is what makes a token split at any byte offset lex identically to
     the one-shot path: the same code scans the same byte run either
     way.

   The window is compacted on [feed]: everything before the cursor has
   been consumed (an [`Await] rolls the cursor back first), so memory
   follows the largest in-flight token plus one chunk, never the
   stream. *)
type t = {
  mutable buf : Bytes.t;  (* window [base, base + len) of the input *)
  mutable base : int;  (* global byte offset of buf.[0] *)
  mutable len : int;  (* valid bytes in [buf] *)
  mutable pos : int;  (* global cursor *)
  mutable line : int;
  mutable bol : int;  (* global offset of the beginning of the current line *)
  mutable closed : bool;
  mutable lookahead : (position * token) option;
  refill : (t -> unit) option;
  scratch : Buffer.t;  (* shared decode buffer for string literals *)
}

(* Internal: the window ran dry mid-scan and the lexer is still open.
   Never escapes the pull entry points. *)
exception Need_input

let create input =
  (* The one-shot window aliases the input string without copying:
     the buffer is only ever written by [feed], which a closed lexer
     rejects. *)
  { buf = Bytes.unsafe_of_string input;
    base = 0;
    len = String.length input;
    pos = 0;
    line = 1;
    bol = 0;
    closed = true;
    lookahead = None;
    refill = None;
    scratch = Buffer.create 64 }

let create_feed ?refill () =
  { buf = Bytes.create 256;
    base = 0;
    len = 0;
    pos = 0;
    line = 1;
    bol = 0;
    closed = false;
    lookahead = None;
    refill;
    scratch = Buffer.create 64 }

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

let rec skip_ws lx =
  if not (is_eof lx) then
    match cur lx with
    | ' ' | '\t' | '\n' | '\r' ->
      advance lx;
      skip_ws lx
    | _ -> ()

let expect_word lx word token =
  let n = String.length word in
  (* fewer than [n] bytes in an open window could still complete the
     word; fewer in a closed one (or a mismatch) is the same error the
     one-shot lexer reports on the full input *)
  if lx.pos + n > limit lx && not lx.closed then raise Need_input;
  if
    lx.pos + n <= limit lx
    && Bytes.sub_string lx.buf (lx.pos - lx.base) n = word
  then begin
    for _ = 1 to n do
      advance lx
    done;
    token
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
   value use it to avoid the decode work. *)
let read_string ?(decode = true) lx =
  advance lx (* opening quote *);
  let lim = limit lx in
  (* Plain-segment fast path: most literals contain no escapes, so scan
     for the closing quote with direct index arithmetic and cut a single
     substring.  String bodies cannot contain raw newlines (control
     characters are rejected), so line accounting is unaffected. *)
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
    let s =
      if decode then Bytes.sub_string lx.buf (lx.pos - lx.base) (!i - lx.pos)
      else ""
    in
    lx.pos <- !i + 1;
    s
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
        if decode then Buffer.contents buf else ""
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

let read_number lx =
  let start = lx.pos in
  if cur lx = '-' then advance lx;
  if is_eof lx then error lx "truncated number";
  (match cur lx with
  | '0' -> advance lx
  | '1' .. '9' ->
    while (not (is_eof lx)) && cur lx >= '0' && cur lx <= '9' do
      advance lx
    done
  | c -> error lx "invalid number start %C" c);
  let is_float = ref false in
  if (not (is_eof lx)) && cur lx = '.' then begin
    is_float := true;
    advance lx;
    if is_eof lx || not (cur lx >= '0' && cur lx <= '9') then
      error lx "missing digits after decimal point";
    while (not (is_eof lx)) && cur lx >= '0' && cur lx <= '9' do
      advance lx
    done
  end;
  if (not (is_eof lx)) && (cur lx = 'e' || cur lx = 'E') then begin
    is_float := true;
    advance lx;
    if (not (is_eof lx)) && (cur lx = '+' || cur lx = '-') then advance lx;
    if is_eof lx || not (cur lx >= '0' && cur lx <= '9') then
      error lx "missing exponent digits";
    while (not (is_eof lx)) && cur lx >= '0' && cur lx <= '9' do
      advance lx
    done
  end;
  let text = Bytes.sub_string lx.buf (start - lx.base) (lx.pos - start) in
  if !is_float then begin
    let f = float_of_string text in
    (* [1e999] overflows to [infinity] (and [-1e999] to its negative),
       which nothing downstream can represent or re-serialize as JSON —
       reject it here, uniformly across the tree, stream and schema
       paths, like an integer literal out of range *)
    if Float.is_finite f then Float f
    else error lx "number literal %s out of range" text
  end
  else
    match int_of_string_opt text with
    (* [-0] is signed, not a natural: classify by the written sign, so
       the model layer (naturals only) rejects it like any negative *)
    | Some 0 when text.[0] = '-' -> Neg_int 0
    | Some n when n >= 0 -> Nat n
    | Some n -> Neg_int n
    | None -> error lx "integer literal %s out of range" text

let next_token ?(decode_strings = true) lx =
  skip_ws lx;
  let pos = position lx in
  if is_eof lx then (pos, Eof)
  else
    let tok =
      match cur lx with
      | '{' ->
        advance lx;
        Lbrace
      | '}' ->
        advance lx;
        Rbrace
      | '[' ->
        advance lx;
        Lbracket
      | ']' ->
        advance lx;
        Rbracket
      | ':' ->
        advance lx;
        Colon
      | ',' ->
        advance lx;
        Comma
      | '"' -> String (read_string ~decode:decode_strings lx)
      | 't' -> expect_word lx "true" True
      | 'f' -> expect_word lx "false" False
      | 'n' -> expect_word lx "null" Null
      | '-' | '0' .. '9' -> read_number lx
      | c -> error lx "unexpected character %C" c
    in
    (pos, tok)

(* Scan one token, rolling the cursor back to the token start when the
   window ran dry: after more bytes are fed the retry rescans the token
   from its first byte, so its full byte run is lexed exactly as the
   one-shot path lexes it. *)
let scan ?decode_strings lx =
  let pos = lx.pos and line = lx.line and bol = lx.bol in
  match next_token ?decode_strings lx with
  | tok -> Some tok
  | exception Need_input ->
    lx.pos <- pos;
    lx.line <- line;
    lx.bol <- bol;
    None

let feed lx bytes off n =
  if lx.closed then invalid_arg "Jsont.Lexer.feed: the lexer is closed";
  if off < 0 || n < 0 || off + n > Bytes.length bytes then
    invalid_arg "Jsont.Lexer.feed: invalid byte range";
  (* compact: everything before the cursor has been consumed (a
     suspended scan rolled the cursor back to its token start) *)
  let consumed = lx.pos - lx.base in
  if consumed > 0 then begin
    Bytes.blit lx.buf consumed lx.buf 0 (lx.len - consumed);
    lx.base <- lx.pos;
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

let pull lx =
  match lx.lookahead with
  | Some (_, Eof) ->
    lx.lookahead <- None;
    `End
  | Some tok ->
    lx.lookahead <- None;
    `Token tok
  | None -> (
    match scan lx with
    | None -> `Await
    | Some (_, Eof) -> `End
    | Some tok -> `Token tok)

let rec next_with ~decode lx =
  match lx.lookahead with
  | Some tok ->
    lx.lookahead <- None;
    tok
  | None -> (
    match scan ~decode_strings:decode lx with
    | Some tok -> tok
    | None ->
      (match lx.refill with
      | None ->
        invalid_arg
          "Jsont.Lexer: token stream awaiting input (feed more bytes or close)"
      | Some f ->
        let lim = limit lx in
        f lx;
        if limit lx = lim && not lx.closed then
          invalid_arg "Jsont.Lexer: refill fed no bytes and did not close");
      next_with ~decode lx)

let next lx = next_with ~decode:true lx
let next_skip lx = next_with ~decode:false lx

let peek lx =
  match lx.lookahead with
  | Some tok -> tok
  | None ->
    let tok = next lx in
    lx.lookahead <- Some tok;
    tok

let offset lx =
  match lx.lookahead with
  | Some (pos, _) -> pos.offset
  | None -> lx.pos

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
    let ((_, tok) as t) = next lx in
    if tok = Eof then List.rev (t :: acc) else go (t :: acc)
  in
  go []
