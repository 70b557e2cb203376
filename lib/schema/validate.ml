module Value = Jsont.Value

(* The compiled-regex cache is process-global; batch evaluation runs
   validators on several domains at once, so guard it with a mutex.
   Compilation happens outside the critical section — losing the race
   only means compiling the same syntax twice. *)
let lang_cache : (Rexp.Syntax.t, Rexp.Lang.t) Hashtbl.t = Hashtbl.create 32
let lang_cache_mutex = Mutex.create ()

let lang e =
  let cached =
    Mutex.lock lang_cache_mutex;
    let c = Hashtbl.find_opt lang_cache e in
    Mutex.unlock lang_cache_mutex;
    c
  in
  match cached with
  | Some l -> l
  | None ->
    let l = Rexp.Lang.of_syntax e in
    Mutex.lock lang_cache_mutex;
    if not (Hashtbl.mem lang_cache e) then Hashtbl.add lang_cache e l;
    Mutex.unlock lang_cache_mutex;
    l

let matches e s = Rexp.Lang.matches (lang e) s

(* [items]/[additionalItems] interact with each other, and
   [additionalProperties] needs the keys named by its sibling
   [properties]/[patternProperties]; both are therefore resolved at the
   schema (conjunction) level rather than per conjunct.

   The budget burns one fuel unit per (schema, value) visit and checks
   the recursion depth at every nesting level (schema descent and value
   descent alike), so both adversarially deep documents and deeply
   shared [$ref]/[anyOf] blowups surface as structured
   {!Obs.Budget.Exhausted} errors. *)
let rec validate_schema b d defs (s : Schema.t) (v : Value.t) =
  Obs.Budget.check_depth b d;
  Obs.Budget.burn b 1;
  let d = d + 1 in
  items_ok b d defs s v
  && additional_properties_ok b d defs s v
  && List.for_all
       (fun c ->
         match c with
         | Schema.C_items _ | Schema.C_additional_items _
         | Schema.C_additional_properties _ ->
           true (* handled above *)
         | c -> validate_conjunct b d defs c v)
       s

and items_ok b d defs s v =
  let items = ref None and additional = ref None in
  List.iter
    (function
      | Schema.C_items ss -> items := Some ss
      | Schema.C_additional_items a -> additional := Some a
      | _ -> ())
    s;
  match (!items, !additional, v) with
  | None, None, _ -> true
  | _, _, (Value.Num _ | Value.Str _ | Value.Obj _) -> true (* type-guarded *)
  | None, Some a, Value.Arr vs -> List.for_all (validate_schema b d defs a) vs
  | Some ss, add, Value.Arr vs ->
    let rec go schemas elems =
      match (schemas, elems) with
      | [], [] -> true
      | [], rest -> (
        match add with
        | None -> false (* §5.1: the array has exactly n elements *)
        | Some a -> List.for_all (validate_schema b d defs a) rest)
      | _ :: _, [] -> false (* the n positions must exist *)
      | s :: schemas, e :: elems ->
        validate_schema b d defs s e && go schemas elems
    in
    go ss vs

and additional_properties_ok b d defs s v =
  match v with
  | Value.Num _ | Value.Str _ | Value.Arr _ -> true
  | Value.Obj kvs ->
    let additional =
      List.filter_map
        (function Schema.C_additional_properties a -> Some a | _ -> None)
        s
    in
    if additional = [] then true
    else begin
      (* keys covered by sibling properties / patternProperties *)
      let named k =
        List.exists
          (function
            | Schema.C_properties props -> List.mem_assoc k props
            | Schema.C_pattern_properties pats ->
              List.exists (fun (e, _) -> matches e k) pats
            | _ -> false)
          s
      in
      List.for_all
        (fun (k, v) ->
          named k
          || List.for_all (fun a -> validate_schema b d defs a v) additional)
        kvs
    end

and validate_conjunct b d defs (c : Schema.conjunct) (v : Value.t) =
  match (c, v) with
  | (Schema.C_items _ | Schema.C_additional_items _ | Schema.C_additional_properties _), _
    ->
    assert false (* handled in validate_schema *)
  | Schema.C_type Schema.T_object, _ -> Value.kind v = `Obj
  | Schema.C_type Schema.T_array, _ -> Value.kind v = `Arr
  | Schema.C_type Schema.T_string, _ -> Value.kind v = `Str
  | Schema.C_type Schema.T_number, _ -> Value.kind v = `Num
  | Schema.C_pattern e, Value.Str s -> matches e s
  | Schema.C_pattern _, _ -> true
  | Schema.C_minimum i, Value.Num n -> n >= i
  | Schema.C_minimum _, _ -> true
  | Schema.C_maximum i, Value.Num n -> n <= i
  | Schema.C_maximum _, _ -> true
  | Schema.C_multiple_of i, Value.Num n -> i <> 0 && n mod i = 0
  | Schema.C_multiple_of _, _ -> true
  | Schema.C_min_properties i, Value.Obj kvs -> List.length kvs >= i
  | Schema.C_min_properties _, _ -> true
  | Schema.C_max_properties i, Value.Obj kvs -> List.length kvs <= i
  | Schema.C_max_properties _, _ -> true
  | Schema.C_required ks, Value.Obj kvs ->
    List.for_all (fun k -> List.mem_assoc k kvs) ks
  | Schema.C_required _, _ -> true
  | Schema.C_properties props, Value.Obj kvs ->
    List.for_all
      (fun (k, s) ->
        match List.assoc_opt k kvs with
        | None -> true
        | Some v -> validate_schema b d defs s v)
      props
  | Schema.C_properties _, _ -> true
  | Schema.C_pattern_properties pats, Value.Obj kvs ->
    List.for_all
      (fun (k, v) ->
        List.for_all
          (fun (e, s) -> (not (matches e k)) || validate_schema b d defs s v)
          pats)
      kvs
  | Schema.C_pattern_properties _, _ -> true
  | Schema.C_unique_items, Value.Arr vs ->
    let sorted = List.sort Value.compare vs in
    let rec distinct = function
      | a :: (b :: _ as rest) -> Value.compare a b <> 0 && distinct rest
      | _ -> true
    in
    distinct sorted
  | Schema.C_unique_items, _ -> true
  | Schema.C_any_of ss, v ->
    List.exists (fun s -> validate_schema b d defs s v) ss
  | Schema.C_all_of ss, v ->
    List.for_all (fun s -> validate_schema b d defs s v) ss
  | Schema.C_not s, v -> not (validate_schema b d defs s v)
  | Schema.C_enum vs, v -> List.exists (Value.equal v) vs
  | Schema.C_ref r, v -> validate_schema b d defs (List.assoc r defs) v

let validates_schema ?(budget = Obs.Budget.unlimited) s v =
  validate_schema budget 0 [] s v

(* Well-formedness is a property of the schema, not of the document —
   check it once here and hand back a closure for the per-document
   work, so batch validation doesn't re-walk the schema every time. *)
let prepare (doc : Schema.document) =
  (match Schema.well_formed doc with
  | Ok () -> ()
  | Error m -> invalid_arg ("Jschema.Validate.validates: " ^ m));
  fun ?(budget = Obs.Budget.unlimited) v ->
    validate_schema budget 0 doc.definitions doc.root v

let validates ?budget (doc : Schema.document) v = prepare doc ?budget v

module Plan = Compile
