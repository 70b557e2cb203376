type t =
  | Num of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Invalid of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid s)) fmt

let num n =
  if n < 0 then invalid "Value.num: %d is not a natural number" n;
  Num n

let str s = Str s
let arr vs = Arr vs

(* Short lists, as schema objects nearly always are, are checked
   pairwise without allocating; longer ones through a table.  Both
   report the key whose second binding comes first. *)
let duplicate_key kvs =
  if List.compare_length_with kvs 16 <= 0 then
    (* is [k] among the first [i] keys? *)
    let rec earlier k i = function
      | (k', _) :: rest when i > 0 -> String.equal k k' || earlier k (i - 1) rest
      | _ -> false
    in
    let rec go i = function
      | [] -> None
      | (k, _) :: rest -> if earlier k i kvs then Some k else go (i + 1) rest
    in
    go 0 kvs
  else
    let tbl = Hashtbl.create (List.length kvs) in
    let rec go = function
      | [] -> None
      | (k, _) :: rest ->
        if Hashtbl.mem tbl k then Some k
        else begin
          Hashtbl.add tbl k ();
          go rest
        end
    in
    go kvs

let obj kvs =
  match duplicate_key kvs with
  | Some k -> invalid "Value.obj: duplicate key %S" k
  | None -> Obj kvs

let empty_obj = Obj []

let rec check = function
  | Num n -> if n < 0 then Error (Printf.sprintf "negative number %d" n) else Ok ()
  | Str _ -> Ok ()
  | Arr vs ->
    let rec go = function
      | [] -> Ok ()
      | v :: rest -> ( match check v with Ok () -> go rest | Error _ as e -> e)
    in
    go vs
  | Obj kvs -> (
    match duplicate_key kvs with
    | Some k -> Error (Printf.sprintf "duplicate key %S" k)
    | None ->
      let rec go = function
        | [] -> Ok ()
        | (_, v) :: rest -> ( match check v with Ok () -> go rest | Error _ as e -> e)
      in
      go kvs)

let is_valid v = match check v with Ok () -> true | Error _ -> false

let sort_pairs kvs = List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) kvs

let rec sort_keys = function
  | (Num _ | Str _) as v -> v
  | Arr vs -> Arr (List.map sort_keys vs)
  | Obj kvs -> Obj (sort_pairs (List.map (fun (k, v) -> (k, sort_keys v)) kvs))

let rec compare v1 v2 =
  match (v1, v2) with
  | Num n1, Num n2 -> Int.compare n1 n2
  | Num _, _ -> -1
  | _, Num _ -> 1
  | Str s1, Str s2 -> String.compare s1 s2
  | Str _, _ -> -1
  | _, Str _ -> 1
  | Arr l1, Arr l2 -> compare_list l1 l2
  | Arr _, _ -> -1
  | _, Arr _ -> 1
  | Obj o1, Obj o2 -> compare_pairs (sort_pairs o1) (sort_pairs o2)

and compare_list l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | x :: xs, y :: ys ->
    let c = compare x y in
    if c <> 0 then c else compare_list xs ys

and compare_pairs l1 l2 =
  match (l1, l2) with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | (k1, x) :: xs, (k2, y) :: ys ->
    let c = String.compare k1 k2 in
    if c <> 0 then c
    else
      let c = compare x y in
      if c <> 0 then c else compare_pairs xs ys

let equal v1 v2 = compare v1 v2 = 0

(* A simple polynomial rolling hash over the canonical (key-sorted) form.
   Distinct tags per constructor keep [Num 0], [Str ""], [Arr []] and
   [Obj []] apart. *)
let hash v =
  let combine h x = (h * 0x01000193) lxor x land max_int in
  let rec go h = function
    | Num n -> combine (combine h 1) n
    | Str s -> combine (combine h 2) (Hashtbl.hash s)
    | Arr vs -> List.fold_left go (combine h 3) vs
    | Obj kvs ->
      List.fold_left
        (fun h (k, v) -> go (combine h (Hashtbl.hash k)) v)
        (combine h 4) (sort_pairs kvs)
  in
  go 0x811c9dc5 v

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | Num _ | Str _ | Arr _ -> None

let nth i = function
  | Arr vs ->
    let n = List.length vs in
    let i = if i < 0 then n + i else i in
    if i < 0 || i >= n then None else Some (List.nth vs i)
  | Num _ | Str _ | Obj _ -> None

let kind = function
  | Num _ -> `Num
  | Str _ -> `Str
  | Arr _ -> `Arr
  | Obj _ -> `Obj

let kind_name v =
  match kind v with
  | `Num -> "number"
  | `Str -> "string"
  | `Arr -> "array"
  | `Obj -> "object"

let rec size = function
  | Num _ | Str _ -> 1
  | Arr vs -> List.fold_left (fun acc v -> acc + size v) 1 vs
  | Obj kvs -> List.fold_left (fun acc (_, v) -> acc + size v) 1 kvs

let rec height = function
  | Num _ | Str _ -> 0
  | Arr [] | Obj [] -> 0
  | Arr vs -> 1 + List.fold_left (fun acc v -> max acc (height v)) 0 vs
  | Obj kvs -> 1 + List.fold_left (fun acc (_, v) -> max acc (height v)) 0 kvs

(* Escaping per RFC 8259: the two mandatory escapes plus control
   characters; everything else is passed through as UTF-8. *)
let escape_to_buffer buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write_compact buf = function
  | Num n -> Buffer.add_string buf (string_of_int n)
  | Str s -> escape_to_buffer buf s
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write_compact buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to_buffer buf k;
        Buffer.add_char buf ':';
        write_compact buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write_compact buf v;
  Buffer.contents buf

let pp fmt v = Format.pp_print_string fmt (to_string v)
