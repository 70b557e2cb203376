module Value = Jsont.Value

let not_f f = Jlogic.Jsl.Not f
let guard_not_type ty f = Jlogic.Jsl.Or (Jlogic.Jsl.Not (Jlogic.Jsl.Test ty), f)

(* the complement of all keys covered by properties/patternProperties *)
let uncovered_keys (siblings : Schema.t) =
  let covered =
    List.concat_map
      (function
        | Schema.C_properties props ->
          List.map (fun (k, _) -> Rexp.Lang.literal k) props
        | Schema.C_pattern_properties pats ->
          List.map (fun (e, _) -> Rexp.Lang.of_syntax e) pats
        | _ -> [])
      siblings
  in
  let union = List.fold_left Rexp.Lang.union (Rexp.Lang.complement Rexp.Lang.all) covered in
  Rexp.Lang.extract_syntax (Rexp.Lang.complement union)

let rec schema (s : Schema.t) : Jlogic.Jsl.t =
  (* items / additionalItems interact *)
  let items = List.filter_map (function Schema.C_items ss -> Some ss | _ -> None) s in
  let additional_items =
    List.filter_map (function Schema.C_additional_items a -> Some a | _ -> None) s
  in
  let items_formula =
    match (items, additional_items) with
    | [], [] -> []
    | [], adds ->
      (* all elements satisfy each a; vacuous on non-arrays *)
      List.map (fun a -> Jlogic.Jsl.Box_range (0, None, schema a)) adds
    | ss :: _, adds ->
      let n = List.length ss in
      let positions =
        List.mapi (fun i si -> Jlogic.Jsl.Dia_range (i, Some i, schema si)) ss
      in
      let beyond =
        match adds with
        | [] -> [ Jlogic.Jsl.Box_range (n, None, Jlogic.Jsl.ff) ] (* exactly n elements *)
        | adds -> List.map (fun a -> Jlogic.Jsl.Box_range (n, None, schema a)) adds
      in
      (* type-guarded: arrays only *)
      [ guard_not_type Jlogic.Jsl.Is_arr (Jlogic.Jsl.conj (positions @ beyond)) ]
  in
  let conjunct (c : Schema.conjunct) : Jlogic.Jsl.t option =
    match c with
    | Schema.C_items _ | Schema.C_additional_items _ -> None (* above *)
    | Schema.C_type Schema.T_object -> Some (Jlogic.Jsl.Test Jlogic.Jsl.Is_obj)
    | Schema.C_type Schema.T_array -> Some (Jlogic.Jsl.Test Jlogic.Jsl.Is_arr)
    | Schema.C_type Schema.T_string -> Some (Jlogic.Jsl.Test Jlogic.Jsl.Is_str)
    | Schema.C_type Schema.T_number -> Some (Jlogic.Jsl.Test Jlogic.Jsl.Is_int)
    | Schema.C_pattern e ->
      Some (guard_not_type Jlogic.Jsl.Is_str (Jlogic.Jsl.Test (Jlogic.Jsl.Pattern e)))
    | Schema.C_minimum i -> Some (guard_not_type Jlogic.Jsl.Is_int (Jlogic.Jsl.Test (Jlogic.Jsl.Min i)))
    | Schema.C_maximum i -> Some (guard_not_type Jlogic.Jsl.Is_int (Jlogic.Jsl.Test (Jlogic.Jsl.Max i)))
    | Schema.C_multiple_of i ->
      Some (guard_not_type Jlogic.Jsl.Is_int (Jlogic.Jsl.Test (Jlogic.Jsl.Mult_of i)))
    | Schema.C_min_properties i ->
      Some (guard_not_type Jlogic.Jsl.Is_obj (Jlogic.Jsl.Test (Jlogic.Jsl.Min_ch i)))
    | Schema.C_max_properties i ->
      Some (guard_not_type Jlogic.Jsl.Is_obj (Jlogic.Jsl.Test (Jlogic.Jsl.Max_ch i)))
    | Schema.C_required ks ->
      Some
        (guard_not_type Jlogic.Jsl.Is_obj
           (Jlogic.Jsl.conj (List.map (fun k -> Jlogic.Jsl.dia_key k Jlogic.Jsl.True) ks)))
    | Schema.C_properties props ->
      Some (Jlogic.Jsl.conj (List.map (fun (k, si) -> Jlogic.Jsl.box_key k (schema si)) props))
    | Schema.C_pattern_properties pats ->
      Some (Jlogic.Jsl.conj (List.map (fun (e, si) -> Jlogic.Jsl.Box_keys (e, schema si)) pats))
    | Schema.C_additional_properties a ->
      Some (Jlogic.Jsl.Box_keys (uncovered_keys s, schema a))
    | Schema.C_unique_items ->
      Some (guard_not_type Jlogic.Jsl.Is_arr (Jlogic.Jsl.Test Jlogic.Jsl.Unique))
    | Schema.C_any_of ss -> Some (Jlogic.Jsl.disj (List.map schema ss))
    | Schema.C_all_of ss -> Some (Jlogic.Jsl.conj (List.map schema ss))
    | Schema.C_not si -> Some (not_f (schema si))
    | Schema.C_enum vs ->
      Some (Jlogic.Jsl.disj (List.map (fun v -> Jlogic.Jsl.Test (Jlogic.Jsl.Eq_doc v)) vs))
    | Schema.C_ref r -> Some (Jlogic.Jsl.Var r)
  in
  Jlogic.Jsl.conj (items_formula @ List.filter_map conjunct s)

let document (doc : Schema.document) =
  let defs = List.map (fun (name, s) -> (name, schema s)) doc.definitions in
  match Jlogic.Jsl_rec.make ~defs ~base:(schema doc.root) with
  | Ok r -> r
  | Error m -> invalid_arg ("Jschema.To_jsl.document: " ^ m)
