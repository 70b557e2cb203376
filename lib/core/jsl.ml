module Tree = Jsont.Tree

type node_test =
  | Is_obj
  | Is_arr
  | Is_str
  | Is_int
  | Unique
  | Pattern of Rexp.Syntax.t
  | Min of int
  | Max of int
  | Mult_of of int
  | Min_ch of int
  | Max_ch of int
  | Eq_doc of Jsont.Value.t

type t =
  | True
  | Not of t
  | And of t * t
  | Or of t * t
  | Test of node_test
  | Dia_keys of Rexp.Syntax.t * t
  | Dia_range of int * int option * t
  | Box_keys of Rexp.Syntax.t * t
  | Box_range of int * int option * t
  | Var of string

let ff = Not True

let conj = function
  | [] -> True
  | f :: fs -> List.fold_left (fun acc f -> And (acc, f)) f fs

let disj = function
  | [] -> ff
  | f :: fs -> List.fold_left (fun acc f -> Or (acc, f)) f fs

let dia_key w f = Dia_keys (Rexp.Syntax.literal w, f)
let box_key w f = Box_keys (Rexp.Syntax.literal w, f)
let dia_idx i f = Dia_range (i, Some i, f)
let box_idx i f = Box_range (i, Some i, f)

let test_size = function
  | Is_obj | Is_arr | Is_str | Is_int | Unique | Min _ | Max _ | Mult_of _
  | Min_ch _ | Max_ch _ ->
    1
  | Pattern e -> Rexp.Syntax.size e
  | Eq_doc v -> Jsont.Value.size v

let rec size = function
  | True | Var _ -> 1
  | Not f -> 1 + size f
  | And (a, b) | Or (a, b) -> 1 + size a + size b
  | Test nt -> 1 + test_size nt
  | Dia_keys (e, f) | Box_keys (e, f) -> 1 + Rexp.Syntax.size e + size f
  | Dia_range (_, _, f) | Box_range (_, _, f) -> 1 + size f

let equal (a : t) (b : t) = Stdlib.compare a b = 0

let rec uses_unique = function
  | True | Var _ -> false
  | Test Unique -> true
  | Test _ -> false
  | Not f | Dia_keys (_, f) | Box_keys (_, f) | Dia_range (_, _, f)
  | Box_range (_, _, f) ->
    uses_unique f
  | And (a, b) | Or (a, b) -> uses_unique a || uses_unique b

(* A modality is deterministic when its key expression is a single word
   or its range a single index. *)
let is_word e =
  let rec go = function
    | Rexp.Syntax.Epsilon -> true
    | Rexp.Syntax.Chars cs -> Rexp.Charset.cardinal cs = 1
    | Rexp.Syntax.Cat (a, b) -> go a && go b
    | Rexp.Syntax.Empty | Rexp.Syntax.Alt _ | Rexp.Syntax.Star _ -> false
  in
  go e

let rec is_deterministic = function
  | True | Test _ | Var _ -> true
  | Not f -> is_deterministic f
  | And (a, b) | Or (a, b) -> is_deterministic a && is_deterministic b
  | Dia_keys (e, f) | Box_keys (e, f) -> is_word e && is_deterministic f
  | Dia_range (i, Some j, f) | Box_range (i, Some j, f) ->
    i = j && is_deterministic f
  | Dia_range (_, None, f) | Box_range (_, None, f) ->
    ignore f;
    false

let free_vars f =
  let seen = Hashtbl.create 16 in
  let rec go acc = function
    | True | Test _ -> acc
    | Var v ->
      if Hashtbl.mem seen v then acc
      else begin
        Hashtbl.add seen v ();
        v :: acc
      end
    | Not f | Dia_keys (_, f) | Box_keys (_, f) | Dia_range (_, _, f)
    | Box_range (_, _, f) ->
      go acc f
    | And (a, b) | Or (a, b) -> go (go acc a) b
  in
  List.rev (go [] f)

let rec modal_depth = function
  | True | Test _ | Var _ -> 0
  | Not f -> modal_depth f
  | And (a, b) | Or (a, b) -> max (modal_depth a) (modal_depth b)
  | Dia_keys (_, f) | Box_keys (_, f) | Dia_range (_, _, f)
  | Box_range (_, _, f) ->
    1 + modal_depth f

(* ---- pretty printing --------------------------------------------------- *)

let pp_test fmt = function
  | Is_obj -> Format.pp_print_string fmt "Obj"
  | Is_arr -> Format.pp_print_string fmt "Arr"
  | Is_str -> Format.pp_print_string fmt "Str"
  | Is_int -> Format.pp_print_string fmt "Int"
  | Unique -> Format.pp_print_string fmt "Unique"
  | Pattern e -> Format.fprintf fmt "Pattern(/%s/)" (Rexp.Syntax.to_string e)
  | Min i -> Format.fprintf fmt "Min(%d)" i
  | Max i -> Format.fprintf fmt "Max(%d)" i
  | Mult_of i -> Format.fprintf fmt "MultOf(%d)" i
  | Min_ch i -> Format.fprintf fmt "MinCh(%d)" i
  | Max_ch i -> Format.fprintf fmt "MaxCh(%d)" i
  | Eq_doc v -> Format.fprintf fmt "~(%s)" (Jsont.Value.to_string v)

let pp_range fmt (i, j) =
  match j with
  | None -> Format.fprintf fmt "%d:*" i
  | Some j when i = j -> Format.fprintf fmt "%d" i
  | Some j -> Format.fprintf fmt "%d:%d" i j

let rec pp fmt = function
  | Or (a, b) -> Format.fprintf fmt "%a | %a" pp_and a pp b
  | f -> pp_and fmt f

and pp_and fmt = function
  | And (a, b) -> Format.fprintf fmt "%a & %a" pp_atom a pp_and b
  | f -> pp_atom fmt f

and pp_atom fmt = function
  | True -> Format.pp_print_string fmt "true"
  | Not True -> Format.pp_print_string fmt "false"
  | Not f -> Format.fprintf fmt "!%a" pp_atom f
  | Test nt -> pp_test fmt nt
  | Var v -> Format.fprintf fmt "$%s" v
  | Dia_keys (e, f) -> Format.fprintf fmt "dia(/%s/)%a" (Rexp.Syntax.to_string e) pp_atom f
  | Box_keys (e, f) -> Format.fprintf fmt "box(/%s/)%a" (Rexp.Syntax.to_string e) pp_atom f
  | Dia_range (i, j, f) -> Format.fprintf fmt "dia[%a]%a" pp_range (i, j) pp_atom f
  | Box_range (i, j, f) -> Format.fprintf fmt "box[%a]%a" pp_range (i, j) pp_atom f
  | (And _ | Or _) as f -> Format.fprintf fmt "(%a)" pp f

let to_string f = Format.asprintf "%a" pp f

(* ---- evaluation --------------------------------------------------------- *)

type ctx = {
  t : Tree.t;
  budget : Obs.Budget.t;
  memo : (t, Bitset.t) Hashtbl.t;
  langs : (Rexp.Syntax.t, Rexp.Lang.t) Hashtbl.t;
  unique_memo : (Tree.node, bool) Hashtbl.t;
}

let context ?(budget = Obs.Budget.unlimited) t =
  { t;
    budget;
    memo = Hashtbl.create 16;
    langs = Hashtbl.create 8;
    unique_memo = Hashtbl.create 16 }

let lang ctx e =
  match Hashtbl.find_opt ctx.langs e with
  | Some l -> l
  | None ->
    let l = Rexp.Lang.of_syntax e in
    Hashtbl.add ctx.langs e l;
    l

(* Unique: group array children by subtree hash; only hash-equal pairs
   are compared structurally. *)
let check_unique t n =
  match Tree.kind t n with
  | Tree.Karr ->
    let kids = Tree.arr_children t n in
    let buckets = Hashtbl.create (Array.length kids) in
    (try
       Array.iter
         (fun c ->
           let h = Tree.subtree_hash t c in
           List.iter
             (fun c' ->
               if Tree.equal_subtrees t c c' then raise Exit)
             (Hashtbl.find_all buckets h);
           Hashtbl.add buckets h c)
         kids;
       true
     with Exit -> false)
  | Tree.Kobj | Tree.Kstr _ | Tree.Kint _ -> false

let holds_test ctx n = function
  | Is_obj -> Tree.is_obj ctx.t n
  | Is_arr -> Tree.is_arr ctx.t n
  | Is_str -> Tree.is_str ctx.t n
  | Is_int -> Tree.is_int ctx.t n
  | Unique -> (
    Obs.Metrics.incr "jsl.test.unique";
    match Hashtbl.find_opt ctx.unique_memo n with
    | Some b -> b
    | None ->
      let b = check_unique ctx.t n in
      Hashtbl.add ctx.unique_memo n b;
      b)
  | Pattern e -> (
    match Tree.str_value ctx.t n with
    | Some s -> Rexp.Lang.matches (lang ctx e) s
    | None -> false)
  | Min i -> ( match Tree.int_value ctx.t n with Some v -> v >= i | None -> false)
  | Max i -> ( match Tree.int_value ctx.t n with Some v -> v <= i | None -> false)
  | Mult_of i -> (
    match Tree.int_value ctx.t n with
    | Some v -> i <> 0 && v mod i = 0
    | None -> false)
  | Min_ch i -> Tree.arity ctx.t n >= i
  | Max_ch i -> Tree.arity ctx.t n <= i
  | Eq_doc v ->
    Obs.Metrics.incr "jsl.test.eq_doc";
    Tree.equal_to_value ctx.t n v

let n_nodes ctx = Tree.node_count ctx.t

(* Children of [n] selected by a key expression / range — range
   semantics shared with the JNL engines through {!Jnl_step}. *)
let selected_by_keys ctx l n =
  List.filter_map
    (fun (k, c) -> if Rexp.Lang.matches l k then Some c else None)
    (Tree.obj_children ctx.t n)

let selected_by_range ctx i j n = Jnl_step.range_succs ctx.t n i j

(* Set-at-a-time evaluation: one fuel burn of [n_nodes] per formula
   node (each sweeps the whole node set), depth checked against the
   budget so adversarially deep formulas cannot overflow the stack. *)
let rec eval_at ctx depth (f : t) =
  match Hashtbl.find_opt ctx.memo f with
  | Some s -> s
  | None ->
    Obs.Budget.check_depth ctx.budget depth;
    Obs.Budget.burn ctx.budget (n_nodes ctx);
    let eval ctx g = eval_at ctx (depth + 1) g in
    let result =
      match f with
      | True -> Bitset.full (n_nodes ctx)
      | Not g -> Bitset.complement (eval ctx g)
      | And (a, b) -> Bitset.inter (eval ctx a) (eval ctx b)
      | Or (a, b) -> Bitset.union (eval ctx a) (eval ctx b)
      | Test nt ->
        let out = Bitset.create (n_nodes ctx) in
        Seq.iter
          (fun n -> if holds_test ctx n nt then Bitset.add out n)
          (Tree.nodes ctx.t);
        out
      | Dia_keys (e, g) ->
        let l = lang ctx e in
        let sat = eval ctx g in
        let out = Bitset.create (n_nodes ctx) in
        Seq.iter
          (fun n ->
            if List.exists (Bitset.mem sat) (selected_by_keys ctx l n) then
              Bitset.add out n)
          (Tree.nodes ctx.t);
        out
      | Box_keys (e, g) ->
        let l = lang ctx e in
        let sat = eval ctx g in
        let out = Bitset.create (n_nodes ctx) in
        Seq.iter
          (fun n ->
            if List.for_all (Bitset.mem sat) (selected_by_keys ctx l n) then
              Bitset.add out n)
          (Tree.nodes ctx.t);
        out
      | Dia_range (i, j, g) ->
        let sat = eval ctx g in
        let out = Bitset.create (n_nodes ctx) in
        Seq.iter
          (fun n ->
            if List.exists (Bitset.mem sat) (selected_by_range ctx i j n) then
              Bitset.add out n)
          (Tree.nodes ctx.t);
        out
      | Box_range (i, j, g) ->
        let sat = eval ctx g in
        let out = Bitset.create (n_nodes ctx) in
        Seq.iter
          (fun n ->
            if List.for_all (Bitset.mem sat) (selected_by_range ctx i j n) then
              Bitset.add out n)
          (Tree.nodes ctx.t);
        out
      | Var v ->
        invalid_arg
          (Printf.sprintf
             "Jsl.eval: free recursion symbol $%s (use Jsl_rec.validates)" v)
    in
    Hashtbl.replace ctx.memo f result;
    result

let eval ctx f = eval_at ctx 0 f
let holds ctx n f = Bitset.mem (eval ctx f) n

(* Per-node evaluation: one fuel unit per (node, formula-node) visit,
   depth follows the simultaneous descent into formula and tree. *)
let rec node_eval_at ctx ~env depth n (f : t) =
  Obs.Budget.check_depth ctx.budget depth;
  Obs.Budget.burn ctx.budget 1;
  let node_eval c g = node_eval_at ctx ~env (depth + 1) c g in
  match f with
  | True -> true
  | Not g -> not (node_eval n g)
  | And (a, b) -> node_eval n a && node_eval n b
  | Or (a, b) -> node_eval n a || node_eval n b
  | Test nt -> holds_test ctx n nt
  | Var v -> env v n
  | Dia_keys (e, g) ->
    List.exists (fun c -> node_eval c g)
      (selected_by_keys ctx (lang ctx e) n)
  | Box_keys (e, g) ->
    List.for_all (fun c -> node_eval c g)
      (selected_by_keys ctx (lang ctx e) n)
  | Dia_range (i, j, g) ->
    List.exists (fun c -> node_eval c g) (selected_by_range ctx i j n)
  | Box_range (i, j, g) ->
    List.for_all (fun c -> node_eval c g) (selected_by_range ctx i j n)

let node_eval ctx ~env n f = node_eval_at ctx ~env 0 n f

let validates ?budget v f =
  let ctx = context ?budget (Tree.of_value ?budget v) in
  holds ctx Tree.root f

let validates_bounded ?budget v f =
  match validates ?budget v f with
  | b -> Ok b
  | exception Obs.Budget.Exhausted r -> Error (Obs.Budget.describe r)

(* ---- parser (inverse of pp) ---------------------------------------------- *)

exception Bad of string

type pstate = { input : string; mutable pos : int }

let fail st fmt =
  Format.kasprintf
    (fun s -> raise (Bad (Printf.sprintf "at offset %d: %s" st.pos s)))
    fmt

let peek_char st =
  if st.pos < String.length st.input then Some st.input.[st.pos] else None

let rec skip_ws st =
  match peek_char st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    st.pos <- st.pos + 1;
    skip_ws st
  | _ -> ()

let eat st ch =
  skip_ws st;
  match peek_char st with
  | Some c when c = ch -> st.pos <- st.pos + 1
  | Some c -> fail st "expected %C, found %C" ch c
  | None -> fail st "expected %C, found end of input" ch

let looking_at st s =
  skip_ws st;
  st.pos + String.length s <= String.length st.input
  && String.sub st.input st.pos (String.length s) = s

let parse_nat st =
  skip_ws st;
  let start = st.pos in
  while match peek_char st with Some ('0' .. '9') -> true | _ -> false do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail st "expected a number";
  let text = String.sub st.input start (st.pos - start) in
  match int_of_string_opt text with
  | Some i -> i
  | None -> fail st "number %s out of range" text

let parse_ident st =
  skip_ws st;
  let start = st.pos in
  while
    match peek_char st with
    | Some ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_') -> true
    | _ -> false
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail st "expected an identifier";
  String.sub st.input start (st.pos - start)

let parse_regex_literal st =
  eat st '/';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char st with
    | None -> fail st "unterminated /regex/"
    | Some '/' -> st.pos <- st.pos + 1
    | Some '\\'
      when st.pos + 1 < String.length st.input && st.input.[st.pos + 1] = '/' ->
      Buffer.add_char buf '/';
      st.pos <- st.pos + 2;
      go ()
    | Some c ->
      Buffer.add_char buf c;
      st.pos <- st.pos + 1;
      go ()
  in
  go ();
  match Rexp.Parse.parse (Buffer.contents buf) with
  | Ok e -> e
  | Error m -> fail st "bad regex: %s" m

let int_arg st =
  eat st '(';
  let i = parse_nat st in
  eat st ')';
  i

let rec parse_form st =
  let left = parse_and_level st in
  skip_ws st;
  match peek_char st with
  | Some '|' ->
    st.pos <- st.pos + 1;
    Or (left, parse_form st)
  | _ -> left

and parse_and_level st =
  let left = parse_atom_level st in
  skip_ws st;
  match peek_char st with
  | Some '&' ->
    st.pos <- st.pos + 1;
    And (left, parse_and_level st)
  | _ -> left

and parse_atom_level st =
  skip_ws st;
  match peek_char st with
  | Some '!' ->
    st.pos <- st.pos + 1;
    Not (parse_atom_level st)
  | Some '(' ->
    st.pos <- st.pos + 1;
    let f = parse_form st in
    eat st ')';
    f
  | Some '$' ->
    st.pos <- st.pos + 1;
    Var (parse_ident st)
  | Some '~' ->
    st.pos <- st.pos + 1;
    eat st '(';
    skip_ws st;
    (match Jsont.Parser.parse_prefix st.input st.pos with
    | Ok (v, next) ->
      st.pos <- next;
      eat st ')';
      Test (Eq_doc v)
    | Error e -> fail st "bad document: %s" e.Jsont.Parser.message)
  | Some ('d' | 'b') when looking_at st "dia" || looking_at st "box" ->
    let dia = looking_at st "dia" in
    st.pos <- st.pos + 3;
    skip_ws st;
    (match peek_char st with
    | Some '(' ->
      st.pos <- st.pos + 1;
      let e = parse_regex_literal st in
      eat st ')';
      let inner = parse_atom_level st in
      if dia then Dia_keys (e, inner) else Box_keys (e, inner)
    | Some '[' ->
      st.pos <- st.pos + 1;
      let i = parse_nat st in
      skip_ws st;
      let j =
        match peek_char st with
        | Some ':' ->
          st.pos <- st.pos + 1;
          skip_ws st;
          (match peek_char st with
          | Some '*' ->
            st.pos <- st.pos + 1;
            None
          | _ -> Some (parse_nat st))
        | _ -> Some i
      in
      eat st ']';
      let inner = parse_atom_level st in
      if dia then Dia_range (i, j, inner) else Box_range (i, j, inner)
    | _ -> fail st "expected '(' or '[' after %s" (if dia then "dia" else "box"))
  | Some _ -> (
    let ident = parse_ident st in
    match ident with
    | "true" -> True
    | "false" -> ff
    | "Obj" -> Test Is_obj
    | "Arr" -> Test Is_arr
    | "Str" -> Test Is_str
    | "Int" -> Test Is_int
    | "Unique" -> Test Unique
    | "Min" -> Test (Min (int_arg st))
    | "Max" -> Test (Max (int_arg st))
    | "MultOf" -> Test (Mult_of (int_arg st))
    | "MinCh" -> Test (Min_ch (int_arg st))
    | "MaxCh" -> Test (Max_ch (int_arg st))
    | "Pattern" ->
      eat st '(';
      let e = parse_regex_literal st in
      eat st ')';
      Test (Pattern e)
    | other -> fail st "unknown form %S" other)
  | None -> fail st "unexpected end of formula"

let parse input =
  let st = { input; pos = 0 } in
  match
    let f = parse_form st in
    skip_ws st;
    (match peek_char st with
    | None -> ()
    | Some ch -> fail st "trailing %C" ch);
    f
  with
  | f -> Ok f
  | exception Bad m -> Error m

let parse_exn input =
  match parse input with
  | Ok f -> f
  | Error m -> invalid_arg ("Jsl.parse_exn: " ^ m)
