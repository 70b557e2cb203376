module Value = Jsont.Value
module Jsl = Jlogic.Jsl

type path = string list

type filter = cond list

and cond =
  | F_field of path * constr list
  | F_and of filter list
  | F_or of filter list
  | F_nor of filter list

and constr =
  | Q_eq of Value.t
  | Q_ne of Value.t
  | Q_gt of int
  | Q_gte of int
  | Q_lt of int
  | Q_lte of int
  | Q_exists of bool
  | Q_type of string
  | Q_size of int
  | Q_regex of Rexp.Syntax.t
  | Q_in of in_elt list
  | Q_nin of in_elt list
  | Q_elem_match of filter
  | Q_all of Value.t list
  | Q_not of constr list

and in_elt =
  | I_val of Value.t
  | I_re of Rexp.Syntax.t

(* ---- parsing -------------------------------------------------------------- *)

exception Bad of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

let split_path s = String.split_on_char '.' s

let as_int what = function
  | Value.Num n -> n
  | v -> bad "%s expects a number, got %s" what (Value.kind_name v)

let as_array what = function
  | Value.Arr vs -> vs
  | v -> bad "%s expects an array, got %s" what (Value.kind_name v)

let as_bool what = function
  | Value.Str "true" -> true
  | Value.Str "false" -> false
  | Value.Num 1 -> true
  | Value.Num 0 -> false
  | v -> bad "%s expects a boolean, got %s" what (Value.to_string v)

(* Mongo names types redundantly: BSON aliases and numeric codes both
   land on the model's four kinds.  Every numeric BSON type collapses
   onto "number" (the model has one atomic ordered type). *)
let type_name = function
  | Value.Str (("object" | "array" | "string" | "number") as ty) -> ty
  | Value.Str ("int" | "long" | "double" | "decimal") -> "number"
  | Value.Num 1 (* double *) | Value.Num 16 (* int *)
  | Value.Num 18 (* long *) | Value.Num 19 (* decimal128 *) -> "number"
  | Value.Num 2 -> "string"
  | Value.Num 3 -> "object"
  | Value.Num 4 -> "array"
  | v -> bad "$type expects a type name or code, got %s" (Value.to_string v)

let parse_regex what re =
  match Rexp.Parse.parse re with
  | Ok e -> e
  | Error m -> bad "%s: %s" what m

(* an $in / $nin element: a literal, or {"$regex": "..."} *)
let parse_in_elt what = function
  | Value.Obj [ ("$regex", Value.Str re) ] -> I_re (parse_regex what re)
  | Value.Obj kvs when List.mem_assoc "$regex" kvs ->
    bad "%s: a regex element must be exactly {\"$regex\": \"re\"}" what
  | literal -> I_val literal

let rec parse_filter (v : Value.t) : filter =
  match v with
  | Value.Obj kvs -> List.map parse_cond kvs
  | v -> bad "a filter must be an object, got %s" (Value.kind_name v)

and parse_cond (key, v) : cond =
  match key with
  | "$and" -> F_and (List.map parse_filter (as_array "$and" v))
  | "$or" -> F_or (List.map parse_filter (as_array "$or" v))
  | "$nor" -> F_nor (List.map parse_filter (as_array "$nor" v))
  | key when String.length key > 0 && key.[0] = '$' -> bad "unknown operator %s" key
  | field -> F_field (split_path field, parse_constraints v)

and parse_constraints (v : Value.t) : constr list =
  match v with
  | Value.Obj kvs
    when kvs <> [] && List.for_all (fun (k, _) -> String.length k > 0 && k.[0] = '$') kvs
    ->
    List.map parse_constr kvs
  | literal -> [ Q_eq literal ]

and parse_constr (op, v) : constr =
  match op with
  | "$eq" -> Q_eq v
  | "$ne" -> Q_ne v
  | "$gt" -> Q_gt (as_int "$gt" v)
  | "$gte" -> Q_gte (as_int "$gte" v)
  | "$lt" -> Q_lt (as_int "$lt" v)
  | "$lte" -> Q_lte (as_int "$lte" v)
  | "$exists" -> Q_exists (as_bool "$exists" v)
  | "$type" -> Q_type (type_name v)
  | "$size" -> Q_size (as_int "$size" v)
  | "$regex" -> (
    match v with
    | Value.Str re -> Q_regex (parse_regex "$regex" re)
    | v -> bad "$regex expects a string, got %s" (Value.kind_name v))
  | "$all" -> Q_all (as_array "$all" v)
  | "$in" -> Q_in (List.map (parse_in_elt "$in") (as_array "$in" v))
  | "$nin" -> Q_nin (List.map (parse_in_elt "$nin") (as_array "$nin" v))
  | "$elemMatch" -> (
    (* two Mongo forms: operators applied to the element itself, or a
       filter over the element's fields *)
    match v with
    | Value.Obj kvs
      when kvs <> []
           && List.for_all (fun (k, _) -> String.length k > 0 && k.[0] = '$') kvs
      ->
      Q_elem_match [ F_field ([], parse_constraints v) ]
    | _ -> Q_elem_match (parse_filter v))
  | "$not" -> Q_not (parse_constraints v)
  | op -> bad "unknown operator %s" op

let parse v =
  match parse_filter v with f -> Ok f | exception Bad m -> Error m

let parse_string s =
  match Jsont.Parser.parse ~mode:`Lenient s with
  | Error e -> Error (Format.asprintf "%a" Jsont.Parser.pp_error e)
  | Ok v -> parse v

let parse_string_exn s =
  match parse_string s with
  | Ok f -> f
  | Error m -> invalid_arg ("Jquery.Mongo.parse_string_exn: " ^ m)

(* ---- semantics: translation to JSL ---------------------------------------- *)

let all_digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

(* ◇ along a dotted path; digit segments address keys or positions.
   Each segment also traverses one array level implicitly, as in
   MongoDB: ["a.b"] reaches [b] inside every element of an array at
   [a].  The traversal is one level deep per segment (an array of
   arrays of objects is not searched two levels down), matching
   Mongo's path resolution. *)
let rec dia_path (p : path) (inner : Jsl.t) : Jsl.t =
  match p with
  | [] -> inner
  | seg :: rest ->
    let deeper = dia_path rest inner in
    let keyed =
      if all_digits seg then
        (* a digit run too large for [int] cannot be an array position,
           but it is still a perfectly good object key *)
        match int_of_string_opt seg with
        | Some i -> Jsl.Or (Jsl.dia_key seg deeper, Jsl.dia_idx i deeper)
        | None -> Jsl.dia_key seg deeper
      else Jsl.dia_key seg deeper
    in
    Jsl.Or (keyed, Jsl.Dia_range (0, None, Jsl.dia_key seg deeper))

let rec filter_to_jsl (f : filter) : Jsl.t = Jsl.conj (List.map cond_to_jsl f)

and cond_to_jsl = function
  | F_and fs -> Jsl.conj (List.map filter_to_jsl fs)
  | F_or fs -> Jsl.disj (List.map filter_to_jsl fs)
  | F_nor fs -> Jsl.Not (Jsl.disj (List.map filter_to_jsl fs))
  | F_field (p, cs) -> Jsl.conj (List.map (constr_to_jsl p) cs)

and in_elt_to_jsl = function
  | I_val v -> Jsl.Test (Jsl.Eq_doc v)
  | I_re e -> Jsl.Test (Jsl.Pattern (Rexp.Parse.search e))

and constr_to_jsl p (c : constr) : Jsl.t =
  let positive test = dia_path p test in
  match c with
  | Q_eq v -> positive (Jsl.Test (Jsl.Eq_doc v))
  | Q_ne v -> Jsl.Not (positive (Jsl.Test (Jsl.Eq_doc v)))
  | Q_gt n -> positive (Jsl.And (Jsl.Test Jsl.Is_int, Jsl.Test (Jsl.Min (n + 1))))
  | Q_gte n -> positive (Jsl.And (Jsl.Test Jsl.Is_int, Jsl.Test (Jsl.Min n)))
  | Q_lt n ->
    (* no natural number is below 0: [$lt 0] (and below) is satisfiable
       by nothing.  The old [max 0 (n - 1)] clamp turned it into
       [Max 0], wrongly matching 0 itself. *)
    if n <= 0 then positive Jsl.ff
    else positive (Jsl.And (Jsl.Test Jsl.Is_int, Jsl.Test (Jsl.Max (n - 1))))
  | Q_lte n -> positive (Jsl.And (Jsl.Test Jsl.Is_int, Jsl.Test (Jsl.Max n)))
  | Q_exists true -> positive Jsl.True
  | Q_exists false -> Jsl.Not (positive Jsl.True)
  | Q_type "object" -> positive (Jsl.Test Jsl.Is_obj)
  | Q_type "array" -> positive (Jsl.Test Jsl.Is_arr)
  | Q_type "string" -> positive (Jsl.Test Jsl.Is_str)
  | Q_type "number" -> positive (Jsl.Test Jsl.Is_int)
  | Q_type other -> invalid_arg ("Mongo: unknown type " ^ other)
  | Q_size n ->
    positive
      (Jsl.conj [ Jsl.Test Jsl.Is_arr; Jsl.Test (Jsl.Min_ch n); Jsl.Test (Jsl.Max_ch n) ])
  | Q_regex e ->
    positive (Jsl.Test (Jsl.Pattern (Rexp.Parse.search e)))
  | Q_in es -> positive (Jsl.disj (List.map in_elt_to_jsl es))
  | Q_nin es -> Jsl.Not (positive (Jsl.disj (List.map in_elt_to_jsl es)))
  | Q_elem_match f ->
    positive (Jsl.And (Jsl.Test Jsl.Is_arr, Jsl.Dia_range (0, None, filter_to_jsl f)))
  | Q_all [] ->
    (* Mongo pins [$all []] to match no document at all; the bare
       [conj [Is_arr]] this used to produce matched every array *)
    Jsl.ff
  | Q_all vs ->
    (* every listed value occurs among the array's elements *)
    positive
      (Jsl.conj
         (Jsl.Test Jsl.Is_arr
         :: List.map
              (fun v -> Jsl.Dia_range (0, None, Jsl.Test (Jsl.Eq_doc v)))
              vs))
  | Q_not cs -> Jsl.Not (Jsl.conj (List.map (constr_to_jsl p) cs))

let to_jsl = filter_to_jsl

let to_jnl f = Jlogic.Translate.jsl_to_jnl (to_jsl f)

let matches f =
  let plan = Jschema.Validate.Plan.of_jsl (to_jsl f) in
  fun v -> Jschema.Validate.Plan.run plan v

let find f docs = List.filter (matches f) docs

(* ---- projection (the §6 future-work transformation) ----------------------- *)

type projection =
  | Include of path list
  | Exclude of path list

let parse_projection (v : Value.t) =
  match v with
  | Value.Obj [] -> Ok (Exclude [])
  | Value.Obj kvs -> (
    let flag = function
      | Value.Num 1 | Value.Str "true" -> `Inc
      | Value.Num 0 | Value.Str "false" -> `Exc
      | v -> `Bad (Value.to_string v)
    in
    let incs, excs, bads =
      List.fold_left
        (fun (i, e, b) (k, v) ->
          match flag v with
          | `Inc -> (split_path k :: i, e, b)
          | `Exc -> (i, split_path k :: e, b)
          | `Bad s -> (i, e, s :: b))
        ([], [], []) kvs
    in
    match (bads, incs, excs) with
    | b :: _, _, _ -> Error (Printf.sprintf "bad projection value %s" b)
    | [], [], e -> Ok (Exclude (List.rev e))
    | [], i, [] -> Ok (Include (List.rev i))
    | [], _, _ -> Error "cannot mix inclusion and exclusion in a projection")
  | v -> Error (Printf.sprintf "a projection must be an object, got %s" (Value.kind_name v))

let rec project_include (paths : path list) (v : Value.t) : Value.t =
  match v with
  | Value.Obj kvs ->
    Value.Obj
      (List.filter_map
         (fun (k, v) ->
           let here = List.filter_map (function
             | [] -> None
             | seg :: rest when seg = k -> Some rest
             | _ -> None) paths
           in
           if here = [] then None
           else if List.exists (fun p -> p = []) here then Some (k, v)
           else Some (k, project_include here v))
         kvs)
  | Value.Arr vs ->
    (* inclusion descends into array elements uniformly *)
    Value.Arr (List.map (project_include paths) vs)
  | atom -> atom

let rec project_exclude (paths : path list) (v : Value.t) : Value.t =
  if paths = [] then v
  else
    match v with
    | Value.Obj kvs ->
      Value.Obj
        (List.filter_map
           (fun (k, v) ->
             let here = List.filter_map (function
               | [] -> None
               | seg :: rest when seg = k -> Some rest
               | _ -> None) paths
             in
             if List.exists (fun p -> p = []) here then None
             else Some (k, project_exclude here v))
           kvs)
    | Value.Arr vs -> Value.Arr (List.map (project_exclude paths) vs)
    | atom -> atom

let project p v =
  match p with
  | Include paths -> project_include paths v
  | Exclude paths -> project_exclude paths v
