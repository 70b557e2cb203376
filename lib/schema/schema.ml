module Value = Jsont.Value

type jtype = T_object | T_array | T_string | T_number

type t = conjunct list

and conjunct =
  | C_type of jtype
  | C_pattern of Rexp.Syntax.t
  | C_minimum of int
  | C_maximum of int
  | C_multiple_of of int
  | C_min_properties of int
  | C_max_properties of int
  | C_required of string list
  | C_properties of (string * t) list
  | C_pattern_properties of (Rexp.Syntax.t * t) list
  | C_additional_properties of t
  | C_items of t list
  | C_additional_items of t
  | C_unique_items
  | C_any_of of t list
  | C_all_of of t list
  | C_not of t
  | C_enum of Value.t list
  | C_ref of string

type document = { definitions : (string * t) list; root : t }

let plain root = { definitions = []; root }

let s_false = [ C_not [] ]

(* The first name, in order, given again later. *)
let first_given_twice definitions =
  let count = Hashtbl.create 16 in
  List.iter
    (fun (v, _) ->
      Hashtbl.replace count v (1 + Option.value ~default:0 (Hashtbl.find_opt count v)))
    definitions;
  fst (List.find (fun (v, _) -> Hashtbl.find count v > 1) definitions)

(* Definitions are looked up in one table and every schema is walked
   once for [multipleOf 0] and references together, so the cost is
   linear in the document.  Errors are the first in document order of
   the first failing check: duplicate names, then [multipleOf 0] (it
   describes no number, and the validator would have to decide [n mod
   0]), then unresolvable references, then a cycle. *)
let well_formed doc =
  let bodies = Hashtbl.create (List.length doc.definitions) in
  let twice = ref false in
  List.iter
    (fun (v, s) ->
      if Hashtbl.mem bodies v then twice := true else Hashtbl.add bodies v s)
    doc.definitions;
  let zero = ref false and unresolved = ref None in
  let rec walk s = List.iter conjunct s
  and member (_, s) = walk s
  and conjunct = function
    | C_multiple_of 0 -> zero := true
    | C_ref r -> (
      match !unresolved with
      | None when not (Hashtbl.mem bodies r) -> unresolved := Some r
      | _ -> ())
    | C_any_of ss | C_all_of ss | C_items ss -> List.iter walk ss
    | C_not s | C_additional_properties s | C_additional_items s -> walk s
    | C_properties kvs -> List.iter member kvs
    | C_pattern_properties kvs -> List.iter (fun (_, s) -> walk s) kvs
    | C_type _ | C_pattern _ | C_minimum _ | C_maximum _ | C_multiple_of _
    | C_min_properties _ | C_max_properties _ | C_required _ | C_unique_items
    | C_enum _ ->
      ()
  in
  (* acyclicity of the non-descending reference graph *)
  let exception Cycle of string in
  let color = Hashtbl.create (Hashtbl.length bodies) in
  let rec visit v =
    match Hashtbl.find_opt color v with
    | Some `Done -> ()
    | Some `Active -> raise (Cycle v)
    | None ->
      Hashtbl.replace color v `Active;
      nonmodal (Hashtbl.find bodies v);
      Hashtbl.replace color v `Done
  and nonmodal s = List.iter nonmodal_conjunct s
  and nonmodal_conjunct = function
    | C_ref r -> visit r
    | C_any_of ss | C_all_of ss -> List.iter nonmodal ss
    | C_not s -> nonmodal s
    | C_type _ | C_pattern _ | C_minimum _ | C_maximum _ | C_multiple_of _
    | C_min_properties _ | C_max_properties _ | C_required _ | C_properties _
    | C_pattern_properties _ | C_additional_properties _ | C_items _
    | C_additional_items _ | C_unique_items | C_enum _ ->
      ()
  in
  if !twice then
    Error (Printf.sprintf "definition %S given twice" (first_given_twice doc.definitions))
  else begin
    walk doc.root;
    List.iter member doc.definitions;
    match !unresolved with
    | _ when !zero -> Error "multipleOf 0 is satisfiable by no number"
    | Some r -> Error (Printf.sprintf "unresolvable $ref to %S" r)
    | None -> (
      match List.iter (fun (v, _) -> visit v) doc.definitions with
      | () -> Ok ()
      | exception Cycle v -> Error (Printf.sprintf "reference cycle through %S" v))
  end

let rec schema_size (s : t) =
  List.fold_left (fun acc c -> acc + conjunct_size c) 1 s

and conjunct_size = function
  | C_type _ | C_minimum _ | C_maximum _ | C_multiple_of _ | C_min_properties _
  | C_max_properties _ | C_unique_items | C_ref _ ->
    1
  | C_pattern e -> Rexp.Syntax.size e
  | C_required ks -> 1 + List.length ks
  | C_properties kvs -> List.fold_left (fun acc (_, s) -> acc + 1 + schema_size s) 1 kvs
  | C_pattern_properties kvs ->
    List.fold_left (fun acc (e, s) -> acc + Rexp.Syntax.size e + schema_size s) 1 kvs
  | C_additional_properties s | C_additional_items s | C_not s -> 1 + schema_size s
  | C_items ss | C_any_of ss | C_all_of ss ->
    List.fold_left (fun acc s -> acc + schema_size s) 1 ss
  | C_enum vs -> List.fold_left (fun acc v -> acc + Value.size v) 1 vs

let size doc =
  List.fold_left (fun acc (_, s) -> acc + 1 + schema_size s) (schema_size doc.root)
    doc.definitions

(* ---- rendering back to JSON ---------------------------------------------- *)

let type_name = function
  | T_object -> "object"
  | T_array -> "array"
  | T_string -> "string"
  | T_number -> "number"

let regex_str e = Rexp.Syntax.to_string e

let rec schema_to_value (s : t) : Value.t =
  (* gather the pairs of every conjunct; allOf is used when two
     conjuncts would produce the same key *)
  let pairs_of = function
    | C_type ty -> [ ("type", Value.Str (type_name ty)) ]
    | C_pattern e -> [ ("pattern", Value.Str (regex_str e)) ]
    | C_minimum i -> [ ("minimum", Value.Num i) ]
    | C_maximum i -> [ ("maximum", Value.Num i) ]
    | C_multiple_of i -> [ ("multipleOf", Value.Num i) ]
    | C_min_properties i -> [ ("minProperties", Value.Num i) ]
    | C_max_properties i -> [ ("maxProperties", Value.Num i) ]
    | C_required ks -> [ ("required", Value.Arr (List.map (fun k -> Value.Str k) ks)) ]
    | C_properties kvs ->
      [ ("properties", Value.Obj (List.map (fun (k, s) -> (k, schema_to_value s)) kvs)) ]
    | C_pattern_properties kvs ->
      [ ( "patternProperties",
          Value.Obj (List.map (fun (e, s) -> (regex_str e, schema_to_value s)) kvs) ) ]
    | C_additional_properties s -> [ ("additionalProperties", schema_to_value s) ]
    | C_items ss -> [ ("items", Value.Arr (List.map schema_to_value ss)) ]
    | C_additional_items s -> [ ("additionalItems", schema_to_value s) ]
    | C_unique_items -> [ ("uniqueItems", Value.Str "true") ]
    | C_any_of ss -> [ ("anyOf", Value.Arr (List.map schema_to_value ss)) ]
    | C_all_of ss -> [ ("allOf", Value.Arr (List.map schema_to_value ss)) ]
    | C_not s -> [ ("not", schema_to_value s) ]
    | C_enum vs -> [ ("enum", Value.Arr vs) ]
    | C_ref r -> [ ("$ref", Value.Str ("#/definitions/" ^ r)) ]
  in
  let rec assemble acc overflow = function
    | [] -> (List.rev acc, List.rev overflow)
    | c :: rest ->
      let pairs = pairs_of c in
      if List.exists (fun (k, _) -> List.mem_assoc k acc) pairs then
        assemble acc (schema_to_value [ c ] :: overflow) rest
      else assemble (List.rev_append pairs acc) overflow rest
  in
  let pairs, overflow = assemble [] [] s in
  match overflow with
  | [] -> Value.Obj pairs
  | _ ->
    Value.Obj [ ("allOf", Value.Arr (Value.Obj pairs :: overflow)) ]

let to_value doc =
  match doc.definitions with
  | [] -> schema_to_value doc.root
  | defs -> (
    let defs_value =
      ( "definitions",
        Value.Obj (List.map (fun (k, s) -> (k, schema_to_value s)) defs) )
    in
    match schema_to_value doc.root with
    | Value.Obj pairs when not (List.mem_assoc "definitions" pairs) ->
      Value.Obj (defs_value :: pairs)
    | other -> Value.Obj [ defs_value; ("allOf", Value.Arr [ other ]) ])

let pp fmt doc = Format.pp_print_string fmt (Jsont.Printer.pretty (to_value doc))
