type t =
  | Empty
  | Epsilon
  | Chars of Charset.t
  | Cat of t * t
  | Alt of t * t
  | Star of t

let empty = Empty
let epsilon = Epsilon
let chars cs = if Charset.is_empty cs then Empty else Chars cs
let char c = Chars (Charset.singleton c)
let any_char = Chars Charset.full

let rec compare a b =
  match (a, b) with
  | Empty, Empty -> 0
  | Empty, _ -> -1
  | _, Empty -> 1
  | Epsilon, Epsilon -> 0
  | Epsilon, _ -> -1
  | _, Epsilon -> 1
  | Chars c1, Chars c2 -> Charset.compare c1 c2
  | Chars _, _ -> -1
  | _, Chars _ -> 1
  | Cat (a1, a2), Cat (b1, b2) ->
    let c = compare a1 b1 in
    if c <> 0 then c else compare a2 b2
  | Cat _, _ -> -1
  | _, Cat _ -> 1
  | Alt (a1, a2), Alt (b1, b2) ->
    let c = compare a1 b1 in
    if c <> 0 then c else compare a2 b2
  | Alt _, _ -> -1
  | _, Alt _ -> 1
  | Star a, Star b -> compare a b

let equal a b = compare a b = 0

(* Smart constructors performing the usual similarity-preserving
   rewrites (Brzozowski's "similar" regexes): identities for ∅/ε,
   right-association and duplicate removal in alternations, idempotent
   star.  These keep derivative sets finite. *)

let cat a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Epsilon, r | r, Epsilon -> r
  | Cat (a1, a2), b -> (
    (* re-associate to the right, preserving order *)
    let rec reassoc a b =
      match a with
      | Cat (x, y) -> Cat (x, reassoc y b)
      | _ -> Cat (a, b)
    in
    match reassoc (Cat (a1, a2)) b with r -> r)
  | a, b -> Cat (a, b)

let alt a b =
  (* flatten into a sorted, deduplicated list, then rebuild *)
  let rec collect acc = function
    | Alt (x, y) -> collect (collect acc x) y
    | Empty -> acc
    | r -> r :: acc
  in
  let items = collect (collect [] a) b in
  let items = List.sort_uniq compare items in
  (* merge adjacent character classes *)
  let classes, rest =
    List.partition_map
      (function Chars cs -> Left cs | r -> Right r)
      items
  in
  let rest =
    match classes with
    | [] -> rest
    | cs ->
      let merged = List.fold_left Charset.union Charset.empty cs in
      chars merged :: rest
  in
  match rest with
  | [] -> Empty
  | [ r ] -> r
  | r :: rs -> List.fold_left (fun acc r -> Alt (acc, r)) r rs

let star = function
  | Empty | Epsilon -> Epsilon
  | Star r -> Star r
  | r -> Star r

let plus r = cat r (star r)
let opt r = alt Epsilon r

let cat_list rs = List.fold_right cat rs Epsilon

let repeat m n r =
  let rec pow k = if k <= 0 then Epsilon else cat r (pow (k - 1)) in
  match n with
  | None -> cat (pow m) (star r)
  | Some n ->
    if n < m then Empty
    else
      let rec opts k = if k <= 0 then Epsilon else opt (cat r (opts (k - 1))) in
      cat (pow m) (opts (n - m))

let literal s = cat_list (List.init (String.length s) (fun i -> char s.[i]))

let all = star any_char

let as_word e =
  let buf = Buffer.create 8 in
  let rec go = function
    | Epsilon -> true
    | Chars cs -> (
      match (Charset.cardinal cs, Charset.choose cs) with
      | 1, Some c ->
        Buffer.add_char buf c;
        true
      | _ -> false)
    | Cat (a, b) -> go a && go b
    | Empty | Alt _ | Star _ -> false
  in
  if go e then Some (Buffer.contents buf) else None

let rec nullable = function
  | Empty | Chars _ -> false
  | Epsilon | Star _ -> true
  | Cat (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b

let rec size = function
  | Empty | Epsilon | Chars _ -> 1
  | Star a -> 1 + size a
  | Cat (a, b) | Alt (a, b) -> 1 + size a + size b

(* Concrete syntax matching the {!Parse} grammar. *)
let rec pp fmt r =
  pp_alt fmt r

and pp_alt fmt = function
  | Alt (a, b) ->
    pp_alt fmt a;
    Format.pp_print_char fmt '|';
    pp_cat fmt b
  | r -> pp_cat fmt r

and pp_cat fmt = function
  | Cat (a, b) ->
    pp_cat fmt a;
    pp_post fmt b
  | r -> pp_post fmt r

and pp_post fmt = function
  | Star a ->
    pp_atom fmt a;
    Format.pp_print_char fmt '*'
  | r -> pp_atom fmt r

and pp_atom fmt = function
  | Empty -> Format.pp_print_string fmt "[]"
  | Epsilon -> Format.pp_print_string fmt "()"
  | Chars cs ->
    if Charset.equal cs Charset.full then Format.pp_print_char fmt '.'
    else if Charset.cardinal cs = 1 then begin
      match Charset.choose cs with
      | Some c -> pp_char fmt c
      | None -> assert false
    end
    else Charset.pp fmt cs
  | (Cat _ | Alt _ | Star _) as r ->
    Format.pp_print_char fmt '(';
    pp fmt r;
    Format.pp_print_char fmt ')'

and pp_char fmt c =
  match c with
  | '.' | '*' | '+' | '?' | '|' | '(' | ')' | '[' | ']' | '{' | '}' | '\\'
  | '^' | '$' ->
    Format.fprintf fmt "\\%c" c
  | c when c >= ' ' && c <= '~' -> Format.pp_print_char fmt c
  | c -> Format.fprintf fmt "\\x%02x" (Char.code c)

let to_string r = Format.asprintf "%a" pp r
