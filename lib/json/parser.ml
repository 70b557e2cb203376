type error = { position : Lexer.position; message : string }

let pp_error fmt { position; message } =
  Format.fprintf fmt "line %d, column %d: %s" position.Lexer.line
    position.Lexer.col message

exception Parse_error of error

let fail position fmt =
  Format.kasprintf (fun message -> raise (Parse_error { position; message })) fmt

let unexpected pos tok expectation =
  fail pos "unexpected %a, expected %s" Lexer.pp_token tok expectation

(* The cursor forms below build a position, and render the token, only
   on the failure path. *)
let fail_at lx fmt = fail (Lexer.token_position lx) fmt

let unexpected_at lx expectation =
  unexpected (Lexer.token_position lx) (Lexer.token lx) expectation

type atom = Int of int | Str of string

(* Classify the current literal token under [mode] without committing
   to a value representation — shared by the {!Value.t}-producing
   route below, the direct string→{!Tree.t} ingestion path and the
   streaming validator, so all reject exactly the same literals with
   exactly the same messages. *)
let literal_atom mode lx (k : Lexer.kind) : atom =
  match (k, mode) with
  | Lexer.K_nat, _ -> Int (Lexer.int_value lx)
  | Lexer.K_string, _ -> Str (Lexer.string_value lx)
  | Lexer.K_true, `Lenient -> Str "true"
  | Lexer.K_false, `Lenient -> Str "false"
  | Lexer.K_null, `Lenient -> Str "null"
  | Lexer.K_float, `Lenient
    when Float.is_integer (Lexer.float_value lx) && Lexer.float_value lx >= 0.
    ->
    (* only narrow floats whose integral value round-trips through the
       native int: [int_of_float] on anything >= 2^62 is undefined (it
       produced 0 for [1e30], silently corrupting the literal) *)
    let f = Lexer.float_value lx in
    if f < 0x1p62 then Int (int_of_float f)
    else fail_at lx "integer literal %.0f out of range" f
  (* [-0] normalizes to the natural 0, like [-0.0] above *)
  | Lexer.K_neg_int, `Lenient when Lexer.int_value lx = 0 -> Int 0
  | Lexer.K_true, `Strict | Lexer.K_false, `Strict ->
    fail_at lx "boolean literals are outside the model (use `Lenient mode)"
  | Lexer.K_null, `Strict ->
    fail_at lx "null is outside the model (use `Lenient mode)"
  | Lexer.K_float, _ -> fail_at lx "non-integer numbers are outside the model"
  | Lexer.K_neg_int, _ -> fail_at lx "negative numbers are outside the model"
  | _, _ -> assert false

(* Convert a literal outside the paper's model according to [mode]. *)
let literal mode lx k : Value.t =
  match literal_atom mode lx k with
  | Int n -> Value.Num n
  | Str s -> Value.Str s

(* One budget check per parsed value: depth against the ceiling, [units]
   units of fuel, and (periodically) the wall-clock deadline.  Budget
   exhaustion is reported as a parse error positioned at the current
   token.  The direct ingestion path passes [~units:2] to also account
   the tree-construction unit in the same check. *)
let guard ~units budget lx depth =
  match
    Obs.Budget.check_depth budget depth;
    Obs.Budget.burn budget units
  with
  | () -> ()
  | exception Obs.Budget.Exhausted Obs.Budget.Depth ->
    fail_at lx "maximum nesting depth %d exceeded" (Obs.Budget.max_depth budget)
  | exception Obs.Budget.Exhausted r -> fail_at lx "%s" (Obs.Budget.describe r)

let expect_colon lx =
  match Lexer.next_kind lx with
  | Lexer.K_colon -> ()
  | _ -> unexpected_at lx "':'"

let parse_value mode budget lx =
  let keys = Keyset.create () in
  let rec value depth =
    ignore (Lexer.peek_kind lx);
    guard ~units:1 budget lx depth;
    Obs.Metrics.incr "parse.values";
    match Lexer.next_kind lx with
    | Lexer.K_lbrace -> obj depth
    | Lexer.K_lbracket -> array depth
    | ( Lexer.K_string | Lexer.K_nat | Lexer.K_neg_int | Lexer.K_float
      | Lexer.K_true | Lexer.K_false | Lexer.K_null ) as k ->
      literal mode lx k
    | Lexer.K_rbrace | Lexer.K_rbracket | Lexer.K_colon | Lexer.K_comma
    | Lexer.K_eof ->
      unexpected_at lx "a JSON value"
  and obj depth =
    let mark = Keyset.mark keys in
    let rec members acc =
      match Lexer.next_kind lx with
      | Lexer.K_string ->
        let key = Lexer.string_value lx in
        if not (Keyset.add keys mark (Lexer.hash_string key) key) then
          fail_at lx "duplicate object key %S" key;
        expect_colon lx;
        let v = value (depth + 1) in
        let acc = (key, v) :: acc in
        (match Lexer.next_kind lx with
        | Lexer.K_comma -> members acc
        | Lexer.K_rbrace ->
          Keyset.release keys mark;
          Value.Obj (List.rev acc)
        | _ -> unexpected_at lx "',' or '}'")
      | _ -> unexpected_at lx "a string key"
    in
    match Lexer.peek_kind lx with
    | Lexer.K_rbrace ->
      ignore (Lexer.next_kind lx);
      Value.Obj []
    | _ -> members []
  and array depth =
    let rec elements acc =
      let v = value (depth + 1) in
      match Lexer.next_kind lx with
      | Lexer.K_comma -> elements (v :: acc)
      | Lexer.K_rbracket -> Value.Arr (List.rev (v :: acc))
      | _ -> unexpected_at lx "',' or ']'"
    in
    match Lexer.peek_kind lx with
    | Lexer.K_rbracket ->
      ignore (Lexer.next_kind lx);
      Value.Arr []
    | _ -> elements []
  in
  value 0

(* Consume one complete JSON value without building anything, applying
   exactly the checks the strict building routes apply: syntax,
   duplicate object keys, literal admission, and the budget guard per
   value (one fuel unit each, depth against the ceiling).  String
   {e values} are validated but not decoded ({!Lexer.next_kind_skip});
   object keys are decoded because duplicate detection compares them.
   Errors are byte-identical to {!parse_value} / [Tree.of_string] on
   the same input, which is what lets the streaming validator
   fast-forward over unconstrained subtrees without weakening any
   check. *)
let skip_value budget keys lx depth =
  let rec value depth =
    let k = Lexer.next_kind_skip lx in
    guard ~units:1 budget lx depth;
    match k with
    | Lexer.K_lbrace -> obj depth
    | Lexer.K_lbracket -> arr depth
    | Lexer.K_string | Lexer.K_nat -> ()
    | Lexer.K_neg_int | Lexer.K_float | Lexer.K_true | Lexer.K_false
    | Lexer.K_null ->
      ignore (literal_atom `Strict lx k)
    | Lexer.K_rbrace | Lexer.K_rbracket | Lexer.K_colon | Lexer.K_comma
    | Lexer.K_eof ->
      unexpected_at lx "a JSON value"
  and obj depth =
    let mark = Keyset.mark keys in
    let rec members () =
      match Lexer.next_kind lx with
      | Lexer.K_string ->
        let key = Lexer.string_value lx in
        if not (Keyset.add keys mark (Lexer.hash_string key) key) then
          fail_at lx "duplicate object key %S" key;
        expect_colon lx;
        value (depth + 1);
        (match Lexer.next_kind lx with
        | Lexer.K_comma -> members ()
        | Lexer.K_rbrace -> ()
        | _ -> unexpected_at lx "',' or '}'")
      | _ -> unexpected_at lx "a string key"
    in
    (match Lexer.peek_kind lx with
    | Lexer.K_rbrace -> ignore (Lexer.next_kind lx)
    | _ -> members ());
    Keyset.release keys mark
  and arr depth =
    let rec elements () =
      value (depth + 1);
      match Lexer.next_kind lx with
      | Lexer.K_comma -> elements ()
      | Lexer.K_rbracket -> ()
      | _ -> unexpected_at lx "',' or ']'"
    in
    match Lexer.peek_kind lx with
    | Lexer.K_rbracket -> ignore (Lexer.next_kind lx)
    | _ -> elements ()
  in
  value depth

let budget_of = function
  | Some b -> b
  | None -> Obs.Budget.depth_limited Obs.Budget.default_max_depth

let expect_eof lx =
  match Lexer.next_kind lx with
  | Lexer.K_eof -> ()
  | _ -> unexpected_at lx "end of input"

let parse_exn ?(mode = `Strict) ?budget input =
  let budget = budget_of budget in
  let lx = Lexer.create input in
  let v = parse_value mode budget lx in
  expect_eof lx;
  v

let wrap f =
  match f () with
  | v -> Ok v
  | exception Parse_error e -> Error e
  | exception Lexer.Error (position, message) -> Error { position; message }

let parse ?mode ?budget input = wrap (fun () -> parse_exn ?mode ?budget input)

let parse_prefix ?budget input start =
  wrap (fun () ->
      let budget = budget_of budget in
      let lx = Lexer.create_at input start in
      let v = parse_value `Strict budget lx in
      (v, Lexer.offset lx))
