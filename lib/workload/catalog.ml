module Value = Jsont.Value

(* ---- Table 1 keyword coverage cases -------------------------------------- *)

let keyword_cases =
  [ ("type(string)", {|{"type":"string"}|}, [ ({|"x"|}, true); ("3", false) ]);
    ("pattern", {|{"type":"string","pattern":"(01)+"}|},
     [ ({|"0101"|}, true); ({|"010"|}, false) ]);
    ("type(number)", {|{"type":"number"}|}, [ ("3", true); ({|"3"|}, false) ]);
    ("multipleOf", {|{"type":"number","multipleOf":4}|}, [ ("8", true); ("9", false) ]);
    ("minimum", {|{"type":"number","minimum":5}|}, [ ("5", true); ("4", false) ]);
    ("maximum", {|{"type":"number","maximum":12}|}, [ ("12", true); ("13", false) ]);
    ("type(object)", {|{"type":"object"}|}, [ ("{}", true); ("[]", false) ]);
    ("required", {|{"type":"object","required":["k"]}|},
     [ ({|{"k":1}|}, true); ({|{"j":1}|}, false) ]);
    ("minProperties", {|{"type":"object","minProperties":1}|},
     [ ({|{"a":1}|}, true); ("{}", false) ]);
    ("maxProperties", {|{"type":"object","maxProperties":1}|},
     [ ({|{"a":1}|}, true); ({|{"a":1,"b":2}|}, false) ]);
    ("properties", {|{"type":"object","properties":{"a":{"type":"number"}}}|},
     [ ({|{"a":1}|}, true); ({|{"a":"s"}|}, false) ]);
    ("patternProperties",
     {|{"type":"object","patternProperties":{"a(b|c)a":{"type":"number","multipleOf":2}}}|},
     [ ({|{"aba":4}|}, true); ({|{"aca":3}|}, false) ]);
    ("additionalProperties",
     {|{"type":"object","properties":{"name":{"type":"string"}},
        "additionalProperties":{"type":"number","minimum":1,"maximum":1}}|},
     [ ({|{"name":"x","extra":1}|}, true); ({|{"name":"x","extra":2}|}, false) ]);
    ("type(array)", {|{"type":"array"}|}, [ ("[]", true); ("{}", false) ]);
    ("items", {|{"type":"array","items":[{"type":"string"},{"type":"string"}]}|},
     [ ({|["a","b"]|}, true); ({|["a",1]|}, false) ]);
    ("additionalItems",
     {|{"type":"array","items":[{"type":"string"},{"type":"string"}],
        "additionalItems":{"type":"number"}}|},
     [ ({|["a","b",1,2]|}, true); ({|["a","b",1,"c"]|}, false); ({|["a","b",3]|}, true) ]);
    ("uniqueItems", {|{"type":"array","uniqueItems":true}|},
     [ ("[1,2]", true); ("[1,1]", false) ]);
    ("anyOf", {|{"anyOf":[{"type":"string"},{"type":"number"}]}|},
     [ ("1", true); ("[]", false) ]);
    ("allOf", {|{"allOf":[{"minimum":2},{"maximum":4}]}|},
     [ ("3", true); ("5", false) ]);
    ("not", {|{"not":{"type":"number","multipleOf":2}}|},
     [ ("3", true); ("4", false) ]);
    ("enum", {|{"enum":[1,"two",{"three":3}]}|},
     [ ({|{"three":3}|}, true); ("2", false) ]);
    ("definitions/$ref",
     {|{"definitions":{"email":{"type":"string","pattern":"[A-z]*@ciws.cl"}},
        "not":{"$ref":"#/definitions/email"}}|},
     [ ({|"a@gmail.com"|}, true); ({|"a@ciws.cl"|}, false) ]) ]

(* ---- the property-heavy catalog schema ----------------------------------- *)

(* Field specs are the single source of truth: the schema text and the
   document generator are derived from the same list, so they cannot
   drift apart. *)
type fspec = F_id | F_label | F_price | F_tags | F_dims | F_color | F_note

let field_count = 150

let fields =
  List.init field_count (fun i ->
      let spec =
        match i mod 7 with
        | 0 -> F_id
        | 1 -> F_label
        | 2 -> F_price
        | 3 -> F_tags
        | 4 -> F_dims
        | 5 -> F_color
        | _ -> F_note
      in
      (Printf.sprintf "f%02d" i, spec))

let required_fields = List.filteri (fun i _ -> i mod 5 = 0) fields

let spec_fragment = function
  | F_id -> {|{"$ref":"#/definitions/id"}|}
  | F_label -> {|{"$ref":"#/definitions/label"}|}
  | F_price -> {|{"$ref":"#/definitions/price"}|}
  | F_tags ->
    {|{"type":"array","items":[{"$ref":"#/definitions/tag"}],|}
    ^ {|"additionalItems":{"$ref":"#/definitions/tag"},"uniqueItems":true}|}
  | F_dims -> {|{"$ref":"#/definitions/dims"}|}
  | F_color -> {|{"enum":["red","green","blue",7]}|}
  | F_note -> {|{"type":"string"}|}

let catalog_schema =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    ({|{"definitions":{|}
    ^ {|"id":{"type":"number","minimum":1},|}
    ^ {|"label":{"type":"string","pattern":"[a-z][a-z0-9_]*"},|}
    ^ {|"price":{"type":"number","minimum":0,"maximum":100000},|}
    ^ {|"tag":{"type":"string","pattern":"[a-z]+"},|}
    ^ {|"dims":{"type":"object","required":["w","h"],|}
    ^ {|"properties":{"w":{"$ref":"#/definitions/id"},|}
    ^ {|"h":{"$ref":"#/definitions/id"},|}
    ^ {|"d":{"$ref":"#/definitions/id"}},|}
    ^ {|"additionalProperties":{"type":"number"}}},|}
    ^ {|"type":"object","minProperties":10,"required":[|});
  List.iteri
    (fun i (name, _) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S" name))
    required_fields;
  Buffer.add_string buf {|],"properties":{|};
  List.iteri
    (fun i (name, spec) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:%s" name (spec_fragment spec)))
    fields;
  Buffer.add_string buf
    ({|},"patternProperties":{|}
    ^ {|"x_[a-z0-9]*":{"type":"number"},|}
    ^ {|"y_[a-z0-9]*":{"type":"string"}},|}
    ^ {|"additionalProperties":{"type":"string","pattern":"[a-z ]*"}}|});
  Buffer.contents buf

let colors = [ Value.Str "red"; Value.Str "green"; Value.Str "blue"; Value.Num 7 ]
let words = [ "alpha"; "beta"; "gamma"; "delta"; "kilo"; "mega"; "zeta" ]

let valid_value rng = function
  | F_id -> Value.Num (1 + Prng.int rng 1000)
  | F_label ->
    Value.Str (Prng.choose rng words ^ "_" ^ string_of_int (Prng.int rng 100))
  | F_price -> Value.Num (Prng.int rng 100_000)
  | F_tags ->
    (* distinct tags: uniqueItems must hold on the valid path *)
    let n = Prng.int rng 4 in
    let pool = Prng.shuffle rng words in
    Value.Arr (List.map (fun w -> Value.Str w) (List.filteri (fun i _ -> i < n) pool))
  | F_dims ->
    let dim () = Value.Num (1 + Prng.int rng 50) in
    let base = [ ("w", dim ()); ("h", dim ()) ] in
    let base = if Prng.bool rng then base @ [ ("d", dim ()) ] else base in
    let base =
      if Prng.bool rng then base @ [ ("weight", Value.Num (Prng.int rng 9)) ]
      else base
    in
    Value.Obj base
  | F_color -> Prng.choose rng colors
  | F_note -> Value.Str (Prng.choose rng words ^ " note")

(* ~30% of the documents carry one violation somewhere, so both
   verdicts stay represented in every differential batch. *)
let catalog_doc rng =
  let members = ref [] in
  List.iter
    (fun ((name, spec) as field) ->
      let req = List.memq field required_fields in
      if req || Prng.int rng 5 = 0 then
        members := (name, valid_value rng spec) :: !members)
    fields;
  for _ = 0 to 29 + Prng.int rng 16 do
    let prefix = if Prng.bool rng then "x_" else "y_" in
    let key = prefix ^ Prng.choose rng words ^ string_of_int (Prng.int rng 500) in
    let v =
      if prefix = "x_" then Value.Num (Prng.int rng 1000)
      else Value.Str (Prng.choose rng words)
    in
    members := (key, v) :: !members
  done;
  for _ = 0 to 11 + Prng.int rng 6 do
    let key = "extra " ^ Prng.choose rng words ^ string_of_int (Prng.int rng 500) in
    members := (key, Value.Str (Prng.choose rng words ^ " ok")) :: !members
  done;
  if Prng.int rng 10 < 3 then begin
    (* one violation: clobber a random member with a value that fails
       every field spec, or smuggle in a non-string additional key *)
    match Prng.int rng 2 with
    | 0 ->
      let i = Prng.int rng (List.length !members) in
      members :=
        List.mapi (fun j (k, v) -> if j = i then (k, Value.Arr []) else (k, v)) !members
    | _ -> members := ("zz bad", Value.Num 3) :: !members
  end;
  (* dedupe keys (the generators above can collide) keeping the last *)
  let seen = Hashtbl.create 64 in
  let uniq =
    List.filter
      (fun (k, _) ->
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      !members
  in
  Value.Obj uniq

(* ---- the $ref-sharing family --------------------------------------------- *)

(* [d_{i+1}] tries [d_i] twice through [anyOf]; with a document that
   fails [d0], the interpreter explores both branches of every level —
   2^k leaf visits — while the compiled plan memoizes the shared
   subschema and stays linear in k. *)
let ref_sharing_schema k =
  let buf = Buffer.create 256 in
  Buffer.add_string buf {|{"definitions":{"d0":{"type":"number","minimum":1000000}|};
  for i = 1 to k do
    Buffer.add_string buf
      (Printf.sprintf
         {|,"d%d":{"anyOf":[{"$ref":"#/definitions/d%d"},{"$ref":"#/definitions/d%d"}]}|}
         i (i - 1) (i - 1))
  done;
  Buffer.add_string buf (Printf.sprintf {|},"$ref":"#/definitions/d%d"}|} k);
  Buffer.contents buf

let ref_sharing_doc = Value.Num 3
