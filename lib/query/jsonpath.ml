module Jnl = Jlogic.Jnl

let any_child : Jnl.path = Jnl.Alt (Jnl.Keys Rexp.Syntax.all, Jnl.Range (0, None))
let descendant_or_self : Jnl.path = Jnl.Star any_child

exception Bad of string

type st = { input : string; mutable pos : int }

let bad st fmt =
  Format.kasprintf
    (fun s -> raise (Bad (Printf.sprintf "at offset %d: %s" st.pos s)))
    fmt

let peek st = if st.pos < String.length st.input then Some st.input.[st.pos] else None
let peek2 st =
  if st.pos + 1 < String.length st.input then Some st.input.[st.pos + 1] else None

let advance st = st.pos <- st.pos + 1

let bare_name st =
  let start = st.pos in
  while
    match peek st with
    | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-') -> true
    | _ -> false
  do
    advance st
  done;
  if st.pos = start then bad st "expected a name";
  String.sub st.input start (st.pos - start)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> bad st "invalid hex digit %C in \\u escape" c

let hex4 st =
  let v = ref 0 in
  for _ = 1 to 4 do
    match peek st with
    | Some c ->
      v := (!v * 16) + hex_digit st c;
      advance st
    | None -> bad st "truncated \\u escape"
  done;
  !v

(* RFC 9535 name-selector strings: the escapables are the quotes,
   backslash, slash, b f n r t, and \uXXXX (with surrogate pairs);
   anything else after a backslash is an error. *)
let quoted_name st =
  let quote = Option.get (peek st) in
  advance st;
  let buf = Buffer.create 8 in
  let unicode_escape () =
    let u = hex4 st in
    if u >= 0xD800 && u <= 0xDBFF then begin
      (* high surrogate: a \u low surrogate must follow *)
      (match (peek st, peek2 st) with
      | Some '\\', Some 'u' ->
        advance st;
        advance st
      | _ -> bad st "unpaired surrogate in \\u escape");
      let lo = hex4 st in
      if lo < 0xDC00 || lo > 0xDFFF then
        bad st "unpaired surrogate in \\u escape";
      let cp = 0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00) in
      Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
    end
    else if u >= 0xDC00 && u <= 0xDFFF then
      bad st "unpaired surrogate in \\u escape"
    else Buffer.add_utf_8_uchar buf (Uchar.of_int u)
  in
  let escape () =
    advance st (* '\\' *);
    match peek st with
    | None -> bad st "dangling backslash"
    | Some (('\'' | '"' | '\\' | '/') as c) ->
      advance st;
      Buffer.add_char buf c
    | Some 'b' ->
      advance st;
      Buffer.add_char buf '\b'
    | Some 'f' ->
      advance st;
      Buffer.add_char buf '\012'
    | Some 'n' ->
      advance st;
      Buffer.add_char buf '\n'
    | Some 'r' ->
      advance st;
      Buffer.add_char buf '\r'
    | Some 't' ->
      advance st;
      Buffer.add_char buf '\t'
    | Some 'u' ->
      advance st;
      unicode_escape ()
    | Some c -> bad st "invalid escape \\%c in quoted name" c
  in
  let rec go () =
    match peek st with
    | None -> bad st "unterminated quoted name"
    | Some c when c = quote -> advance st
    | Some '\\' ->
      escape ();
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

(* RFC 9535 §2.3.3/§2.3.4: indices and slice bounds are I-JSON exact
   integers, i.e. within [-(2^53)+1, 2^53-1].  Anything outside —
   including literals too large for [int_of_string] — is a positioned
   parse error, never an escaping [Failure]. *)
let ijson_max = (1 lsl 53) - 1

let int_opt st =
  let start = st.pos in
  if peek st = Some '-' then advance st;
  while match peek st with Some ('0' .. '9') -> true | _ -> false do
    advance st
  done;
  if st.pos = start || (st.pos = start + 1 && st.input.[start] = '-') then begin
    st.pos <- start;
    None
  end
  else
    let text = String.sub st.input start (st.pos - start) in
    match int_of_string_opt text with
    | Some i when i >= -ijson_max && i <= ijson_max -> Some i
    | Some _ | None -> bad st "index %s outside the I-JSON range ±(2^53-1)" text

(* A slice [i:j) RFC 9535-style: the end is exclusive, and negative
   bounds are offset by the array's arity at evaluation time.  Encoded
   as an inclusive JNL [Range]; a statically empty slice — one that
   selects nothing whatever the arity — is the never-matching test
   rather than a parse error. *)
let empty_step : Jnl.path = Jnl.Test Jnl.ff

let slice i j : Jnl.path =
  match j with
  | None -> Jnl.Range (i, None)
  | Some j ->
    let statically_empty =
      (* same sign ⇒ both bounds anchor to the same end of the array,
         so j ≤ i is empty for every arity; j = 0 is always empty *)
      j = 0 || (i >= 0 && j >= 0 && j <= i) || (i < 0 && j < 0 && j <= i)
    in
    if statically_empty then empty_step else Jnl.Range (i, Some (j - 1))

(* the contents of a bracket selector, after '[' *)
let bracket st : Jnl.path =
  let item () : Jnl.path =
    match peek st with
    | Some '*' ->
      advance st;
      any_child
    | Some ('\'' | '"') -> Jnl.Key (quoted_name st)
    | Some '?' ->
      advance st;
      if peek st <> Some '(' then bad st "expected '(' after '?'";
      advance st;
      (* find the matching ')' to hand the inside to the JNL parser,
         skipping string and regex literals so a quoted paren does not
         unbalance the scan *)
      let start = st.pos in
      let depth = ref 1 in
      let skip_string () =
        advance st (* opening '"' *);
        let rec go () =
          match peek st with
          | None -> bad st "unterminated string in filter"
          | Some '"' -> advance st
          | Some '\\' ->
            advance st;
            if peek st = None then bad st "unterminated string in filter";
            advance st;
            go ()
          | Some _ ->
            advance st;
            go ()
        in
        go ()
      in
      let skip_regex () =
        advance st (* opening '/' *);
        let rec go () =
          match peek st with
          | None -> bad st "unterminated regex in filter"
          | Some '/' -> advance st
          | Some '\\' when peek2 st = Some '/' ->
            advance st;
            advance st;
            go ()
          | Some _ ->
            advance st;
            go ()
        in
        go ()
      in
      while !depth > 0 do
        match peek st with
        | None -> bad st "unterminated filter"
        | Some '(' ->
          incr depth;
          advance st
        | Some ')' ->
          decr depth;
          if !depth > 0 then advance st
        | Some '"' -> skip_string ()
        | Some '~' ->
          (* a regex literal may follow: ~ [ws] /…/ *)
          advance st;
          while
            match peek st with
            | Some (' ' | '\t' | '\n' | '\r') -> true
            | _ -> false
          do
            advance st
          done;
          if peek st = Some '/' then skip_regex ()
        | Some _ -> advance st
      done;
      let inner = String.sub st.input start (st.pos - start) in
      advance st (* closing ')' *);
      (match Jnl.parse inner with
      | Ok f -> Jnl.Test f
      | Error m -> bad st "bad filter: %s" m)
    | Some ('0' .. '9' | '-') -> (
      let i =
        match int_opt st with
        | Some i -> i
        | None -> bad st "expected digits after '-'"
      in
      match peek st with
      | Some ':' ->
        advance st;
        slice i (int_opt st)
      | _ -> Jnl.Idx i)
    | Some ':' ->
      advance st;
      slice 0 (int_opt st)
    | Some c -> bad st "unexpected %C in brackets" c
    | None -> bad st "unterminated brackets"
  in
  let rec items acc =
    let it = item () in
    let acc = match acc with None -> Some it | Some p -> Some (Jnl.Alt (p, it)) in
    match peek st with
    | Some ',' ->
      advance st;
      items acc
    | Some ']' ->
      advance st;
      Option.get acc
    | Some c -> bad st "expected ',' or ']', found %C" c
    | None -> bad st "unterminated brackets"
  in
  items None

let parse_exn_inner input =
  let st = { input; pos = 0 } in
  if peek st = Some '$' then advance st;
  let steps = ref [] in
  let push p = steps := p :: !steps in
  let rec go () =
    match peek st with
    | None -> ()
    | Some '.' when peek2 st = Some '.' ->
      advance st;
      advance st;
      push descendant_or_self;
      (match peek st with
      | Some '*' ->
        advance st;
        push any_child
      | Some '[' ->
        advance st;
        push (bracket st)
      | Some _ -> push (Jnl.Key (bare_name st))
      | None -> bad st "dangling '..'");
      go ()
    | Some '.' ->
      advance st;
      (match peek st with
      | Some '*' ->
        advance st;
        push any_child
      | _ -> push (Jnl.Key (bare_name st)));
      go ()
    | Some '[' ->
      advance st;
      push (bracket st);
      go ()
    | Some c -> bad st "unexpected %C" c
  in
  go ();
  match List.rev !steps with
  | [] -> Jnl.Self
  | first :: rest -> List.fold_left (fun acc p -> Jnl.Seq (acc, p)) first rest

let parse input =
  match parse_exn_inner input with p -> Ok p | exception Bad m -> Error m

let parse_exn input =
  match parse input with
  | Ok p -> p
  | Error m -> invalid_arg ("Jquery.Jsonpath.parse_exn: " ^ m)

let select_nodes tree path =
  let ctx = Jlogic.Jnl_eval.context tree in
  Jlogic.Jnl_eval.succs ctx path Jsont.Tree.root

let select doc path_str =
  match parse path_str with
  | Error _ as e -> e
  | Ok path ->
    let tree = Jsont.Tree.of_value doc in
    Ok (List.map (Jsont.Tree.value_at tree) (select_nodes tree path))

let select_exn doc path_str =
  match select doc path_str with
  | Ok vs -> vs
  | Error m -> invalid_arg ("Jquery.Jsonpath.select_exn: " ^ m)

(* the pointer of a node: its edges from the root *)
let pointer_of_node tree node =
  let rec go n acc =
    match Jsont.Tree.edge_from_parent tree n with
    | Jsont.Tree.Root -> acc
    | Jsont.Tree.Key k ->
      go (Option.get (Jsont.Tree.parent tree n)) (Jsont.Pointer.Key k :: acc)
    | Jsont.Tree.Pos i ->
      go (Option.get (Jsont.Tree.parent tree n)) (Jsont.Pointer.Index i :: acc)
  in
  go node []

let select_with_paths doc path_str =
  match parse path_str with
  | Error _ as e -> e
  | Ok path ->
    let tree = Jsont.Tree.of_value doc in
    Ok
      (List.map
         (fun n -> (pointer_of_node tree n, Jsont.Tree.value_at tree n))
         (select_nodes tree path))
