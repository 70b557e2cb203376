module Value = Jsont.Value

exception Bad of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

let as_nat what = function
  | Value.Num n when n >= 0 -> n
  (* text parsing cannot produce a negative [Num], but [of_value]
     accepts programmatically built values — don't let a negative bound
     slip through as if it were a natural *)
  | Value.Num n -> bad "%s expects a natural number, got %d" what n
  | v -> bad "%s expects a natural number, got %s" what (Value.kind_name v)

let as_string what = function
  | Value.Str s -> s
  | v -> bad "%s expects a string, got %s" what (Value.kind_name v)

let as_array what = function
  | Value.Arr vs -> vs
  | v -> bad "%s expects an array, got %s" what (Value.kind_name v)

let as_object what = function
  | Value.Obj kvs -> kvs
  | v -> bad "%s expects an object, got %s" what (Value.kind_name v)

let as_bool what = function
  | Value.Str "true" -> true
  | Value.Str "false" -> false
  | v -> bad "%s expects true or false, got %s" what (Value.to_string v)

let parse_regex what s =
  match Rexp.Parse.parse s with
  | Ok e -> e
  | Error m -> bad "%s: bad regular expression %S (%s)" what s m

let parse_type = function
  | Value.Str "object" -> Schema.T_object
  | Value.Str "array" -> Schema.T_array
  | Value.Str "string" -> Schema.T_string
  | Value.Str ("number" | "integer") -> Schema.T_number
  | v -> bad "unknown type %s" (Value.to_string v)

let parse_ref s =
  let prefix = "#/definitions/" in
  let n = String.length prefix in
  if String.length s > n && String.sub s 0 n = prefix then
    String.sub s n (String.length s - n)
  else bad "$ref %S: only #/definitions/<name> references are supported" s

let rec parse_schema ~root (v : Value.t) : Schema.t =
  let kvs = as_object "a schema" v in
  (* the text route rejects duplicate keys at the JSON layer; values
     built programmatically must not smuggle a keyword in twice (the
     conjuncts would silently conjoin, e.g. two [type]s) *)
  (match Value.duplicate_key kvs with
  | Some k -> bad "schema keyword %S given twice in one object" k
  | None -> ());
  let sub v = parse_schema ~root:false v in
  List.filter_map
    (fun (key, v) ->
      match key with
      | "type" -> Some (Schema.C_type (parse_type v))
      | "pattern" -> Some (Schema.C_pattern (parse_regex "pattern" (as_string "pattern" v)))
      | "minimum" -> Some (Schema.C_minimum (as_nat "minimum" v))
      | "maximum" -> Some (Schema.C_maximum (as_nat "maximum" v))
      | "multipleOf" -> Some (Schema.C_multiple_of (as_nat "multipleOf" v))
      | "minProperties" -> Some (Schema.C_min_properties (as_nat "minProperties" v))
      | "maxProperties" -> Some (Schema.C_max_properties (as_nat "maxProperties" v))
      | "required" ->
        Some (Schema.C_required (List.map (as_string "required") (as_array "required" v)))
      | "properties" ->
        Some
          (Schema.C_properties
             (List.map (fun (k, s) -> (k, sub s)) (as_object "properties" v)))
      | "patternProperties" ->
        Some
          (Schema.C_pattern_properties
             (List.map
                (fun (k, s) -> (parse_regex "patternProperties" k, sub s))
                (as_object "patternProperties" v)))
      | "additionalProperties" -> (
        match v with
        | Value.Str ("true" | "false") ->
          if as_bool "additionalProperties" v then None
          else Some (Schema.C_additional_properties Schema.s_false)
        | v -> Some (Schema.C_additional_properties (sub v)))
      | "items" -> (
        match v with
        | Value.Arr ss -> Some (Schema.C_items (List.map sub ss))
        | Value.Obj _ ->
          (* draft-style single schema: applies to all elements *)
          Some (Schema.C_additional_items (sub v))
        | v -> bad "items expects an array or an object, got %s" (Value.kind_name v))
      | "additionalItems" -> (
        match v with
        | Value.Str ("true" | "false") ->
          if as_bool "additionalItems" v then None
          else Some (Schema.C_additional_items Schema.s_false)
        | v -> Some (Schema.C_additional_items (sub v)))
      | "uniqueItems" ->
        if as_bool "uniqueItems" v then Some Schema.C_unique_items else None
      | "anyOf" -> Some (Schema.C_any_of (List.map sub (as_array "anyOf" v)))
      | "allOf" -> Some (Schema.C_all_of (List.map sub (as_array "allOf" v)))
      | "not" -> Some (Schema.C_not (sub v))
      | "enum" -> Some (Schema.C_enum (as_array "enum" v))
      | "$ref" -> Some (Schema.C_ref (parse_ref (as_string "$ref" v)))
      | "definitions" ->
        if root then None (* handled separately *)
        else bad "definitions are only supported at the document root"
      | other -> bad "unknown schema keyword %S" other)
    kvs

let of_value v =
  match
    let defs =
      match v with
      | Value.Obj kvs -> (
        match List.assoc_opt "definitions" kvs with
        | Some (Value.Obj defs) ->
          List.map
            (fun (name, s) -> (name, parse_schema ~root:false s))
            defs
        | Some v -> bad "definitions expects an object, got %s" (Value.kind_name v)
        | None -> [])
      | _ -> bad "a schema must be an object, got %s" (Value.kind_name v)
    in
    let root = parse_schema ~root:true v in
    { Schema.definitions = defs; root }
  with
  | doc -> (
    match Schema.well_formed doc with
    | Ok () -> Ok doc
    | Error _ as e -> e)
  | exception Bad m -> Error m

let of_string s =
  match Jsont.Parser.parse ~mode:`Lenient s with
  | Error e -> Error (Format.asprintf "%a" Jsont.Parser.pp_error e)
  | Ok v -> of_value v

let of_string_exn s =
  match of_string s with
  | Ok doc -> doc
  | Error m -> invalid_arg ("Jschema.Parse.of_string_exn: " ^ m)
