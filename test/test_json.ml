(* Tests for the JSON substrate: values, lexer/parser, printer, the
   formal tree model of §3.1 and navigation instructions of §2. *)

open Jsont

let value = Alcotest.testable Value.pp Value.equal

let parse s = Parser.parse_exn s
let parse_err s =
  match Parser.parse s with
  | Ok _ -> Alcotest.failf "expected parse error on %S" s
  | Error e -> Format.asprintf "%a" Parser.pp_error e

(* the document of Figure 1 *)
let figure1 =
  {|{
      "name": { "first": "John", "last": "Doe" },
      "age": 32,
      "hobbies": ["fishing", "yoga"]
    }|}

(* ------------------------------------------------------------------ *)
(* Value                                                                *)
(* ------------------------------------------------------------------ *)

let test_value_smart_constructors () =
  Alcotest.check_raises "negative number rejected" (Value.Invalid "Value.num: -1 is not a natural number")
    (fun () -> ignore (Value.num (-1)));
  Alcotest.(check bool) "duplicate keys rejected" true
    (match Value.obj [ ("a", Value.num 1); ("a", Value.num 2) ] with
    | exception Value.Invalid _ -> true
    | _ -> false);
  Alcotest.check value "obj builds" (Value.Obj [ ("a", Value.Num 1) ])
    (Value.obj [ ("a", Value.num 1) ])

let test_value_equality_unordered () =
  let v1 = parse {|{"a":1,"b":{"x":[1,2],"y":"s"}}|} in
  let v2 = parse {|{"b":{"y":"s","x":[1,2]},"a":1}|} in
  Alcotest.check value "object order irrelevant" v1 v2;
  Alcotest.(check int) "hash agrees" (Value.hash v1) (Value.hash v2);
  let v3 = parse {|{"a":1,"b":{"x":[2,1],"y":"s"}}|} in
  Alcotest.(check bool) "array order relevant" false (Value.equal v1 v3)

let test_value_accessors () =
  let v = parse figure1 in
  Alcotest.(check (option value)) "member" (Some (Value.Num 32))
    (Value.member "age" v);
  Alcotest.(check (option value)) "missing member" None (Value.member "zzz" v);
  let hobbies = Option.get (Value.member "hobbies" v) in
  Alcotest.(check (option value)) "nth 1" (Some (Value.Str "yoga"))
    (Value.nth 1 hobbies);
  Alcotest.(check (option value)) "nth -1" (Some (Value.Str "yoga"))
    (Value.nth (-1) hobbies);
  Alcotest.(check (option value)) "nth -2" (Some (Value.Str "fishing"))
    (Value.nth (-2) hobbies);
  Alcotest.(check (option value)) "nth out of range" None (Value.nth 2 hobbies);
  Alcotest.(check (option value)) "nth on object" None (Value.nth 0 v)

let test_value_sizes () =
  let v = parse figure1 in
  (* 5 values in the name/age example + hobbies array + 2 strings = the
     whole doc, name obj, first, last, age, hobbies, fishing, yoga = 8 *)
  Alcotest.(check int) "size" 8 (Value.size v);
  Alcotest.(check int) "height" 2 (Value.height v);
  Alcotest.(check int) "atom size" 1 (Value.size (Value.Num 3));
  Alcotest.(check int) "atom height" 0 (Value.height (Value.Str "x"));
  Alcotest.(check int) "empty object height" 0 (Value.height Value.empty_obj)

let test_value_check () =
  let bad = Value.Obj [ ("a", Value.Num 1); ("a", Value.Num 2) ] in
  Alcotest.(check bool) "invalid detected" false (Value.is_valid bad);
  Alcotest.(check bool) "deep negative detected" false
    (Value.is_valid (Value.Arr [ Value.Num (-3) ]));
  Alcotest.(check bool) "valid" true (Value.is_valid (parse figure1))

(* ------------------------------------------------------------------ *)
(* Lexer / Parser                                                       *)
(* ------------------------------------------------------------------ *)

let test_parse_atoms () =
  Alcotest.check value "number" (Value.Num 42) (parse "42");
  Alcotest.check value "zero" (Value.Num 0) (parse "0");
  Alcotest.check value "string" (Value.Str "hi") (parse {|"hi"|});
  Alcotest.check value "empty obj" (Value.Obj []) (parse "{}");
  Alcotest.check value "empty arr" (Value.Arr []) (parse "[]")

let test_parse_escapes () =
  Alcotest.check value "basic escapes" (Value.Str "a\"b\\c/d\n")
    (parse {|"a\"b\\c\/d\n"|});
  Alcotest.check value "unicode bmp" (Value.Str "\xc3\xa9") (parse {|"é"|});
  Alcotest.check value "unicode astral" (Value.Str "\xf0\x9d\x84\x9e")
    (parse {|"𝄞"|});
  Alcotest.check value "control escape" (Value.Str "\x01") (parse {|"\u0001"|})

let test_parse_errors () =
  List.iter
    (fun s -> ignore (parse_err s))
    [ "";
      "{";
      "[1,";
      "[1 2]";
      {|{"a" 1}|};
      {|{"a":1,}|};
      {|{1:2}|};
      "tru";
      {|"unterminated|};
      {|"bad \q escape"|};
      {|"lone surrogate \ud834"|};
      "01";
      "1.5e";
      "[1] trailing";
      {|{"dup":1,"dup":2}|}
    ]

let test_parse_model_restriction () =
  ignore (parse_err "true");
  ignore (parse_err "null");
  ignore (parse_err "-5");
  ignore (parse_err "1.5");
  (* -0 is a negative literal, not a natural: it must not slip through
     as 0 in strict mode *)
  ignore (parse_err "-0");
  ignore (parse_err "[-0]");
  ignore (parse_err {|{"a":-0}|});
  (* lenient mode *)
  let lenient s = Parser.parse_exn ~mode:`Lenient s in
  Alcotest.check value "lenient true" (Value.Str "true") (lenient "true");
  Alcotest.check value "lenient null" (Value.Str "null") (lenient "null");
  Alcotest.check value "lenient whole float" (Value.Num 3) (lenient "3.0");
  Alcotest.check value "lenient -0 narrows to 0" (Value.Num 0) (lenient "-0");
  Alcotest.check value "lenient [-0]" (Value.Arr [ Value.Num 0 ])
    (lenient "[-0]")

(* Literals outside the model are refused with a message naming the
   literal and nothing else: no command selects a lenient mode, so none
   is suggested — through [Parser.parse] and through a JSL constant. *)
let test_model_messages () =
  List.iter
    (fun (text, msg) ->
      match Parser.parse text with
      | Ok _ -> Alcotest.failf "%s parsed" text
      | Error e ->
        Alcotest.(check string) ("parse " ^ text) msg
          (Format.asprintf "%a" Parser.pp_error e))
    [ ("null", "line 1, column 1: null is outside the model");
      ("[1,false]", "line 1, column 4: boolean literals are outside the model") ];
  List.iter
    (fun (text, msg) ->
      Alcotest.(check (result reject string)) ("Jsl.parse " ^ text) (Error msg)
        (Result.map ignore (Jlogic.Jsl.parse text)))
    [ ({|~([1,{"b":null}])|}, "at offset 2: bad document: null is outside the model");
      ("~(true)", "at offset 2: bad document: boolean literals are outside the model") ]

let test_parse_depth_limit () =
  let deep = String.concat "" (List.init 200 (fun _ -> "[")) in
  let deep = deep ^ "1" ^ String.concat "" (List.init 200 (fun _ -> "]")) in
  (match Parser.parse ~budget:(Obs.Budget.depth_limited 100) deep with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth limit not enforced");
  match Parser.parse ~budget:(Obs.Budget.depth_limited 1000) deep with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "deep doc rejected: %a" Parser.pp_error e

let test_error_positions () =
  match Parser.parse "{\n  \"a\": bad\n}" with
  | Ok _ -> Alcotest.fail "expected error"
  | Error e ->
    Alcotest.(check int) "line" 2 e.Parser.position.Lexer.line;
    Alcotest.(check bool) "column plausible" true (e.Parser.position.Lexer.col >= 8)

(* ------------------------------------------------------------------ *)
(* Printer round trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_print_parse_roundtrip () =
  let docs =
    [ figure1;
      {|{"empty":{},"earr":[],"nested":[[[1]]],"s":"\u0001\"\\"}|};
      "12345";
      {|"just a string"|}
    ]
  in
  List.iter
    (fun doc ->
      let v = parse doc in
      Alcotest.check value "compact roundtrip" v (parse (Printer.compact v));
      Alcotest.check value "pretty roundtrip" v (parse (Printer.pretty v)))
    docs

(* ------------------------------------------------------------------ *)
(* Tree model                                                           *)
(* ------------------------------------------------------------------ *)

let tree_of s = Tree.of_value (parse s)

let test_tree_basic () =
  let t = tree_of figure1 in
  Alcotest.(check int) "node count = value size" 8 (Tree.node_count t);
  Alcotest.(check int) "height" 2 (Tree.height t);
  Alcotest.check value "to_value roundtrip" (parse figure1) (Tree.to_value t);
  Alcotest.(check bool) "root is object" true (Tree.is_obj t Tree.root)

let test_tree_navigation () =
  let t = tree_of figure1 in
  let name = Option.get (Tree.lookup t Tree.root "name") in
  Alcotest.(check bool) "name is object" true (Tree.is_obj t name);
  let first = Option.get (Tree.lookup t name "first") in
  Alcotest.(check (option string)) "first value" (Some "John")
    (Tree.str_value t first);
  let age = Option.get (Tree.lookup t Tree.root "age") in
  Alcotest.(check (option int)) "age value" (Some 32) (Tree.int_value t age);
  let hobbies = Option.get (Tree.lookup t Tree.root "hobbies") in
  Alcotest.(check bool) "hobbies is array" true (Tree.is_arr t hobbies);
  let yoga = Option.get (Tree.nth t hobbies 1) in
  Alcotest.(check (option string)) "hobbies[1]" (Some "yoga")
    (Tree.str_value t yoga);
  let yoga' = Option.get (Tree.nth t hobbies (-1)) in
  Alcotest.(check bool) "negative index = last" true (yoga = yoga');
  Alcotest.(check (option int)) "lookup on array is None" None
    (Option.map (fun _ -> 0) (Tree.lookup t hobbies "x"));
  Alcotest.(check (option int)) "nth on object is None" None
    (Option.map (fun _ -> 0) (Tree.nth t Tree.root 0))

let test_tree_formal_conditions () =
  (* Check the five conditions of the formal definition on a sample. *)
  let t = tree_of {|{"a":{"b":[{"c":1},"s",[2,3]],"d":2},"e":[]}|} in
  Seq.iter
    (fun n ->
      match Tree.kind t n with
      | Tree.Kobj ->
        (* condition 2: keys pairwise distinct *)
        let keys = List.map fst (Tree.obj_children t n) in
        Alcotest.(check int) "distinct keys" (List.length keys)
          (List.length (List.sort_uniq String.compare keys))
      | Tree.Karr ->
        (* condition 3: the i-th child is reached through edge i *)
        Array.iteri
          (fun i c ->
            match Tree.edge_from_parent t c with
            | Tree.Pos j -> Alcotest.(check int) "array edge label" i j
            | _ -> Alcotest.fail "array child without Pos edge")
          (Tree.arr_children t n)
      | Tree.Kstr _ | Tree.Kint _ ->
        (* condition 4: atoms are leaves *)
        Alcotest.(check int) "atom has no children" 0 (Tree.arity t n))
    (Tree.nodes t)

let test_tree_addresses_prefix_closed () =
  let t = tree_of {|{"a":[10,{"b":"x"}],"c":2}|} in
  let addresses = Seq.fold_left (fun acc n -> Tree.address t n :: acc) [] (Tree.nodes t) in
  (* prefix closure *)
  List.iter
    (fun addr ->
      match List.rev addr with
      | [] -> ()
      | _ :: parent_rev ->
        let parent = List.rev parent_rev in
        Alcotest.(check bool)
          (Printf.sprintf "prefix of /%s present"
             (String.concat "/" (List.map string_of_int addr)))
          true
          (List.mem parent addresses))
    addresses;
  (* sibling closure: n·i present implies n·j for j < i *)
  List.iter
    (fun addr ->
      match List.rev addr with
      | [] -> ()
      | i :: parent_rev ->
        let parent = List.rev parent_rev in
        for j = 0 to i - 1 do
          Alcotest.(check bool) "younger sibling present" true
            (List.mem (parent @ [ j ]) addresses)
        done)
    addresses

let test_tree_subtree_equality () =
  let t = tree_of {|{"x":{"p":[1,{"q":"v"}]},"y":{"p":[1,{"q":"v"}]},"z":{"p":[1,{"q":"w"}]}}|} in
  let x = Option.get (Tree.lookup t Tree.root "x") in
  let y = Option.get (Tree.lookup t Tree.root "y") in
  let z = Option.get (Tree.lookup t Tree.root "z") in
  Alcotest.(check bool) "x = y" true (Tree.equal_subtrees t x y);
  Alcotest.(check bool) "x <> z" false (Tree.equal_subtrees t x z);
  Alcotest.(check bool) "x = x" true (Tree.equal_subtrees t x x);
  Alcotest.(check bool) "hash equal" true
    (Tree.subtree_hash t x = Tree.subtree_hash t y);
  Alcotest.(check bool) "equal to value" true
    (Tree.equal_to_value t x (parse {|{"p":[1,{"q":"v"}]}|}));
  Alcotest.(check bool) "not equal to other value" false
    (Tree.equal_to_value t x (parse {|{"p":[1,{"q":"v"},2]}|}))

let test_tree_key_order_insensitive_equality () =
  let t = tree_of {|{"x":{"a":1,"b":2},"y":{"b":2,"a":1}}|} in
  let x = Option.get (Tree.lookup t Tree.root "x") in
  let y = Option.get (Tree.lookup t Tree.root "y") in
  Alcotest.(check bool) "key order irrelevant" true (Tree.equal_subtrees t x y)

let test_tree_sizes_heights () =
  let t = tree_of {|{"a":[1,[2,[3]]],"b":0}|} in
  Alcotest.(check int) "size root" (Tree.node_count t) (Tree.size t Tree.root);
  let a = Option.get (Tree.lookup t Tree.root "a") in
  Alcotest.(check int) "size a" 6 (Tree.size t a);
  Alcotest.(check int) "height a" 3 (Tree.height_of t a);
  Alcotest.(check int) "depth a" 1 (Tree.depth t a);
  (* nodes_by_height partitions all nodes *)
  let buckets = Tree.nodes_by_height t in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 buckets in
  Alcotest.(check int) "buckets cover all nodes" (Tree.node_count t) total;
  Array.iteri
    (fun h bucket ->
      List.iter
        (fun n -> Alcotest.(check int) "bucket height" h (Tree.height_of t n))
        bucket)
    buckets

let test_tree_parent_edges () =
  let t = tree_of {|{"a":[5]}|} in
  let a = Option.get (Tree.lookup t Tree.root "a") in
  let five = Option.get (Tree.nth t a 0) in
  Alcotest.(check bool) "root parent" true (Tree.parent t Tree.root = None);
  Alcotest.(check bool) "a's parent is root" true (Tree.parent t a = Some Tree.root);
  Alcotest.(check bool) "edge of a" true (Tree.edge_from_parent t a = Tree.Key "a");
  Alcotest.(check bool) "edge of five" true (Tree.edge_from_parent t five = Tree.Pos 0);
  Alcotest.(check bool) "value_at five" true
    (Value.equal (Tree.value_at t five) (Value.Num 5))

(* ------------------------------------------------------------------ *)
(* Pointer                                                              *)
(* ------------------------------------------------------------------ *)

let test_pointer_parse () =
  let check_rt s expected =
    match Pointer.of_string s with
    | Error e -> Alcotest.failf "pointer %S: %s" s e
    | Ok p ->
      Alcotest.(check bool)
        (Printf.sprintf "steps of %S" s)
        true (p = expected)
  in
  check_rt "name.first" [ Pointer.Key "name"; Pointer.Key "first" ];
  check_rt "hobbies[1]" [ Pointer.Key "hobbies"; Pointer.Index 1 ];
  check_rt "items[-1].id"
    [ Pointer.Key "items"; Pointer.Index (-1); Pointer.Key "id" ];
  check_rt {|["key with.dots"]|} [ Pointer.Key "key with.dots" ];
  check_rt "$.a" [ Pointer.Key "a" ];
  check_rt "" [];
  check_rt "$" [];
  check_rt "a.b[0][\"c\"]"
    [ Pointer.Key "a"; Pointer.Key "b"; Pointer.Index 0; Pointer.Key "c" ];
  (match Pointer.of_string "a..b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a..b should not parse");
  (match Pointer.of_string "a[" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a[ should not parse");
  (* regression: garbage after a quoted key must yield [Error], not a
     [Lexer.Error] escaping from the lookahead *)
  match Pointer.of_string {|["-, []:[:{"a",{|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage should not parse"
  | exception e ->
    Alcotest.failf "pointer parsing raised %s" (Printexc.to_string e)

let test_pointer_whitespace () =
  (* whitespace is accepted uniformly inside brackets — spaces, tabs and
     newlines, before and after the selector, for keys and indices alike *)
  let check s expected =
    match Pointer.of_string s with
    | Error e -> Alcotest.failf "pointer %S: %s" s e
    | Ok p ->
      Alcotest.(check bool) (Printf.sprintf "steps of %S" s) true (p = expected)
  in
  check {|[ "a" ]|} [ Pointer.Key "a" ];
  check "[ 0 ]" [ Pointer.Index 0 ];
  check "[\t-1\t]" [ Pointer.Index (-1) ];
  check "a[\n  \"b\"\n]" [ Pointer.Key "a"; Pointer.Key "b" ];
  check "hobbies[ 1 ].x"
    [ Pointer.Key "hobbies"; Pointer.Index 1; Pointer.Key "x" ];
  check {|[  "k"  ][  2  ]|} [ Pointer.Key "k"; Pointer.Index 2 ];
  (* whitespace outside brackets is still not path syntax *)
  match Pointer.of_string "a .b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "\"a .b\" should not parse"

let test_pointer_minus_zero () =
  (* positions are naturals; the negative form is the from-the-end
     convention and needs a nonzero offset, so [-0] means nothing *)
  List.iter
    (fun s ->
      match Pointer.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must be rejected" s)
    [ "[-0]"; "a[-0].b"; "[ -0 ]" ];
  match Pointer.of_string "[-00]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "[-00] must be rejected"

let test_pointer_prng_roundtrip () =
  (* of_string_exn ∘ to_string = id on randomly generated pointers,
     including keys that need quoting and escaping *)
  let rng = Jworkload.Prng.create 42 in
  let alphabet = "abcz_09-.![ ]\"\\\n\xc3\xa9" in
  let gen_key () =
    let len = 1 + Jworkload.Prng.int rng 6 in
    (* stay on UTF-8 boundaries: é is two bytes, keep or drop both *)
    let raw =
      String.init len (fun _ ->
          alphabet.[Jworkload.Prng.int rng (String.length alphabet)])
    in
    String.concat ""
      (List.filter_map
         (fun c ->
           if c = '\xc3' then Some "\xc3\xa9"
           else if c = '\xa9' then None
           else Some (String.make 1 c))
         (List.init (String.length raw) (String.get raw)))
  in
  let gen_step () =
    if Jworkload.Prng.bool rng then Pointer.Key (gen_key ())
    else Pointer.Index (Jworkload.Prng.int rng 21 - 10)
  in
  for _ = 1 to 500 do
    let p = List.init (Jworkload.Prng.int rng 6) (fun _ -> gen_step ()) in
    let s = Pointer.to_string p in
    match Pointer.of_string s with
    | Error e -> Alcotest.failf "roundtrip of %S failed: %s" s e
    | Ok p' ->
      if p <> p' then
        Alcotest.failf "roundtrip of %S changed the pointer (%S)" s
          (Pointer.to_string p')
  done

let test_pointer_roundtrip () =
  List.iter
    (fun s ->
      let p = Pointer.of_string_exn s in
      let p' = Pointer.of_string_exn (Pointer.to_string p) in
      Alcotest.(check bool) ("roundtrip " ^ s) true (p = p'))
    [ "name.first"; "hobbies[1]"; {|["weird key!"]|}; "a[0][-2].b" ]

let test_pointer_get () =
  let v = parse figure1 in
  let get s = Pointer.get (Pointer.of_string_exn s) v in
  Alcotest.(check (option value)) "name.first" (Some (Value.Str "John"))
    (get "name.first");
  Alcotest.(check (option value)) "hobbies[0]" (Some (Value.Str "fishing"))
    (get "hobbies[0]");
  Alcotest.(check (option value)) "hobbies[-1]" (Some (Value.Str "yoga"))
    (get "hobbies[-1]");
  Alcotest.(check (option value)) "missing" None (get "name.middle");
  Alcotest.(check (option value)) "type mismatch" None (get "age[0]");
  Alcotest.(check bool) "exists" true
    (Pointer.exists (Pointer.of_string_exn "age") v);
  (* same through the tree *)
  let t = Tree.of_value v in
  let n = Pointer.get_node (Pointer.of_string_exn "name.last") t Tree.root in
  Alcotest.(check (option string)) "tree get" (Some "Doe")
    (Option.bind n (Tree.str_value t))

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                 *)
(* ------------------------------------------------------------------ *)

let gen_value =
  let open QCheck.Gen in
  let key = map (String.make 1) (char_range 'a' 'f') in
  let key2 = map2 (fun a b -> Printf.sprintf "%c%c" a b) (char_range 'a' 'f') (char_range 'a' 'f') in
  let atom =
    oneof
      [ map (fun n -> Value.Num (abs n mod 1000)) nat;
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 6)) ]
  in
  let rec value n =
    if n <= 0 then atom
    else
      frequency
        [ (2, atom);
          (2, map (fun vs -> Value.Arr vs) (list_size (int_range 0 4) (value (n - 1))));
          (3,
           let pair = map2 (fun k v -> (k, v)) (oneof [ key; key2 ]) (value (n - 1)) in
           map
             (fun kvs ->
               (* deduplicate keys, keeping the first occurrence *)
               let seen = Hashtbl.create 8 in
               let kvs =
                 List.filter
                   (fun (k, _) ->
                     if Hashtbl.mem seen k then false
                     else begin
                       Hashtbl.add seen k ();
                       true
                     end)
                   kvs
               in
               Value.Obj kvs)
             (list_size (int_range 0 4) pair)) ]
  in
  value 4

let arbitrary_value = QCheck.make ~print:Value.to_string gen_value

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip" ~count:300 arbitrary_value
    (fun v -> Value.equal v (parse (Printer.compact v)))

let prop_pretty_parse_roundtrip =
  QCheck.Test.make ~name:"pretty/parse roundtrip" ~count:200 arbitrary_value
    (fun v -> Value.equal v (parse (Printer.pretty v)))

let prop_tree_roundtrip =
  QCheck.Test.make ~name:"tree of_value/to_value roundtrip" ~count:300
    arbitrary_value (fun v -> Value.equal v (Tree.to_value (Tree.of_value v)))

let prop_tree_size =
  QCheck.Test.make ~name:"tree node_count = value size" ~count:300
    arbitrary_value (fun v -> Tree.node_count (Tree.of_value v) = Value.size v)

let prop_tree_height =
  QCheck.Test.make ~name:"tree height = value height" ~count:300
    arbitrary_value (fun v -> Tree.height (Tree.of_value v) = Value.height v)

let prop_subtree_equality_matches_value_equality =
  QCheck.Test.make ~name:"equal_subtrees agrees with Value.equal" ~count:200
    (QCheck.pair arbitrary_value arbitrary_value) (fun (v1, v2) ->
      let t = Tree.of_value (Value.Arr [ v1; v2 ]) in
      let c1 = Option.get (Tree.nth t Tree.root 0) in
      let c2 = Option.get (Tree.nth t Tree.root 1) in
      Tree.equal_subtrees t c1 c2 = Value.equal v1 v2)

let prop_value_at =
  QCheck.Test.make ~name:"value_at root = identity" ~count:200 arbitrary_value
    (fun v ->
      let t = Tree.of_value v in
      Value.equal (Tree.value_at t Tree.root) v)

let prop_hash_sound =
  QCheck.Test.make ~name:"Value.hash respects equality" ~count:200
    arbitrary_value (fun v ->
      Value.hash v = Value.hash (Value.sort_keys v))

let prop_compare_total_order =
  QCheck.Test.make ~name:"Value.compare antisymmetry" ~count:200
    (QCheck.pair arbitrary_value arbitrary_value) (fun (v1, v2) ->
      let c1 = Value.compare v1 v2 and c2 = Value.compare v2 v1 in
      (c1 = 0 && c2 = 0) || (c1 < 0 && c2 > 0) || (c1 > 0 && c2 < 0))


(* ------------------------------------------------------------------ *)
(* Diff                                                                 *)
(* ------------------------------------------------------------------ *)

let test_diff_basics () =
  let a = parse {|{"name":"John","age":32,"tags":[1,2,3]}|} in
  let b = parse {|{"name":"Jane","age":32,"tags":[1,2],"new":0}|} in
  let script = Diff.diff a b in
  Alcotest.(check bool) "non-empty" true (Diff.size script > 0);
  (match Diff.apply script a with
  | Ok b' -> Alcotest.check value "apply reconstructs" b b'
  | Error m -> Alcotest.fail m);
  (match Diff.apply (Diff.invert script) b with
  | Ok a' -> Alcotest.check value "inverse reconstructs" a a'
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "empty diff of equal values" 0
    (Diff.size (Diff.diff a a));
  (* object key order does not create edits *)
  let shuffled = parse {|{"age":32,"tags":[1,2,3],"name":"John"}|} in
  Alcotest.(check int) "order-insensitive" 0 (Diff.size (Diff.diff a shuffled))

let test_diff_errors () =
  let a = parse {|{"x":1}|} in
  let bogus = [ Diff.Replace ([ Pointer.Key "x" ], Value.Num 9, Value.Num 2) ] in
  match Diff.apply bogus a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale replace must fail"

let prop_diff_roundtrip =
  QCheck.Test.make ~name:"apply (diff a b) a = b" ~count:300
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      match Diff.apply (Diff.diff a b) a with
      | Ok b' -> Value.equal b b'
      | Error m -> QCheck.Test.fail_reportf "apply failed: %s" m)

let prop_diff_invert =
  QCheck.Test.make ~name:"apply (invert (diff a b)) b = a" ~count:300
    (QCheck.pair arbitrary_value arbitrary_value) (fun (a, b) ->
      match Diff.apply (Diff.invert (Diff.diff a b)) b with
      | Ok a' -> Value.equal a a'
      | Error m -> QCheck.Test.fail_reportf "inverse failed: %s" m)

(* Correlated pairs: [b] is a cascade of local mutations of [a] —
   element deletes and inserts mixed within one array, object key
   insertion/removal and duplicate-free reorderings, subtree edits.
   Independent pairs almost never produce these shapes, so the plain
   round-trip property cannot see diff's positional bookkeeping go
   wrong on them. *)
let gen_mutated_pair =
  let open QCheck.Gen in
  let fresh_atom =
    oneof
      [ map (fun n -> Value.Num (abs n mod 1000)) nat;
        map (fun s -> Value.Str s) (string_size ~gen:printable (int_range 0 6)) ]
  in
  let rec seq = function
    | [] -> return []
    | g :: gs -> g >>= fun x -> seq gs >>= fun xs -> return (x :: xs)
  in
  let rec mutate (v : Value.t) =
    match v with
    | Value.Arr vs ->
      (* per element: delete, mutate in place, or keep — then append *)
      seq
        (List.map
           (fun v ->
             int_range 0 99 >>= fun roll ->
             if roll < 20 then return []
             else if roll < 60 then map (fun v -> [ v ]) (mutate v)
             else return [ v ])
           vs)
      >>= fun kept ->
      int_range 0 2 >>= fun n_ins ->
      list_size (return n_ins) fresh_atom >>= fun ins ->
      return (Value.Arr (List.concat kept @ ins))
    | Value.Obj kvs ->
      seq
        (List.map
           (fun (k, v) ->
             int_range 0 99 >>= fun roll ->
             if roll < 15 then return None
             else if roll < 55 then map (fun v -> Some (k, v)) (mutate v)
             else return (Some (k, v)))
           kvs)
      >>= fun kept ->
      let kept = List.filter_map Fun.id kept in
      int_range 0 99 >>= fun add_roll ->
      (if add_roll < 30 && not (List.mem_assoc "zq" kept) then
         map (fun v -> kept @ [ ("zq", v) ]) fresh_atom
       else return kept)
      >>= fun kvs' ->
      (* reordering alone must produce an empty diff; combined with
         edits it must still round-trip *)
      shuffle_l kvs' >>= fun shuffled -> return (Value.Obj shuffled)
    | atom -> frequency [ (3, return atom); (1, fresh_atom) ]
  in
  gen_value >>= fun a ->
  mutate a >>= fun b -> return (a, b)

let arbitrary_mutated_pair =
  QCheck.make
    ~print:(fun (a, b) -> Value.to_string a ^ "  ~>  " ^ Value.to_string b)
    gen_mutated_pair

let prop_diff_roundtrip_mutations =
  QCheck.Test.make ~name:"apply (diff a b) a = b (correlated mutations)"
    ~count:500 arbitrary_mutated_pair (fun (a, b) ->
      match Diff.apply (Diff.diff a b) a with
      | Ok b' -> Value.equal b b'
      | Error m -> QCheck.Test.fail_reportf "apply failed: %s" m)

let prop_diff_invert_mutations =
  QCheck.Test.make ~name:"apply (invert (diff a b)) b = a (correlated mutations)"
    ~count:500 arbitrary_mutated_pair (fun (a, b) ->
      match Diff.apply (Diff.invert (Diff.diff a b)) b with
      | Ok a' -> Value.equal a a'
      | Error m -> QCheck.Test.fail_reportf "inverse failed: %s" m)

let test_diff_root_remove_total () =
  (* pre-fix, a root-level [Remove] escaped [apply]'s documented
     [result] contract as [Invalid_argument "option is None"] *)
  let v = parse {|{"x":1}|} in
  (match Diff.apply [ Diff.Remove ([], v) ] v with
  | Error _ -> ()
  | Ok r ->
    Alcotest.failf "removing the root must be a patch error, got %s"
      (Value.to_string r));
  (* the root can still be replaced *)
  match Diff.apply [ Diff.Replace ([], v, Value.Num 7) ] v with
  | Ok r -> Alcotest.check value "root replace" (Value.Num 7) r
  | Error m -> Alcotest.fail m


(* ------------------------------------------------------------------ *)
(* XML coding (§3.2)                                                    *)
(* ------------------------------------------------------------------ *)

let test_xml_coding () =
  let v = parse figure1 in
  let x = Xml_coding.encode v in
  (match Xml_coding.decode x with
  | Ok v' -> Alcotest.check value "roundtrip" v v'
  | Error m -> Alcotest.fail m);
  (* J[name][first] through the coding *)
  let name = Option.get (Xml_coding.lookup_key x "name") in
  let first = Option.get (Xml_coding.lookup_key name "first") in
  Alcotest.(check (option string)) "lookup" (Some "John") first.Xml_coding.text;
  Alcotest.(check bool) "missing key" true (Xml_coding.lookup_key x "zzz" = None);
  let hobbies = Option.get (Xml_coding.lookup_key x "hobbies") in
  let yoga = Option.get (Xml_coding.nth hobbies 1) in
  Alcotest.(check (option string)) "nth" (Some "yoga") yoga.Xml_coding.text;
  Alcotest.(check bool) "nth out of range" true (Xml_coding.nth hobbies 9 = None);
  (* the coding inflates the tree: one extra pair node per member *)
  Alcotest.(check bool) "coded tree larger" true (Xml_coding.size x > Value.size v)

let test_xml_number_texts () =
  let number s = { Xml_coding.tag = "number"; label = None; text = Some s; children = [] } in
  let accepts s n =
    match Xml_coding.decode (number s) with
    | Ok v -> Alcotest.check value ("accepts " ^ s) (Value.Num n) v
    | Error m -> Alcotest.fail (s ^ " should decode: " ^ m)
  in
  let rejects s =
    match Xml_coding.decode (number s) with
    | Ok v ->
      Alcotest.fail
        (Printf.sprintf "%S should be rejected, decoded to %s" s
           (Value.to_string v))
    | Error _ -> ()
  in
  (* everything encode can produce round-trips *)
  accepts "0" 0;
  accepts "12" 12;
  accepts (string_of_int max_int) max_int;
  (* OCaml integer-literal syntax is not JSON number text: decode must
     only accept what encode can produce *)
  List.iter rejects
    [ "0x1F"; "0X1F"; "0o17"; "0b11"; "1_000"; "1_"; "-3"; "+3"; " 7"; "7 ";
      "";
      (* a digit run that overflows the int range is not a natural *)
      "9999999999999999999999999999" ]

let prop_xml_roundtrip =
  QCheck.Test.make ~name:"XML coding roundtrip" ~count:300 arbitrary_value
    (fun v ->
      match Xml_coding.decode (Xml_coding.encode v) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

let prop_xml_lookup_agrees =
  QCheck.Test.make ~name:"coded lookup = native member" ~count:300
    arbitrary_value (fun v ->
      let x = Xml_coding.encode v in
      List.for_all
        (fun k ->
          let native = Value.member k v in
          let coded = Option.map Xml_coding.decode (Xml_coding.lookup_key x k) in
          match (native, coded) with
          | None, None -> true
          | Some nv, Some (Ok cv) -> Value.equal nv cv
          | _ -> false)
        [ "a"; "b"; "ab"; "zz" ])


(* ------------------------------------------------------------------ *)
(* Robustness: parsers are total on arbitrary input                     *)
(* ------------------------------------------------------------------ *)

let gen_garbage =
  QCheck.Gen.(
    oneof
      [ string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 40);
        (* JSON-flavoured garbage: plausible tokens in random order *)
        map (String.concat "")
          (list_size (int_range 0 14)
             (oneofl
                [ "{"; "}"; "["; "]"; ","; ":"; "\""; "1"; "true"; "nul";
                  "\"a\""; " "; "\\u12"; "-"; "3.5e"; "{}"; "[]" ])) ])

let arbitrary_garbage = QCheck.make ~print:String.escaped gen_garbage

let prop_parser_total =
  QCheck.Test.make ~name:"Parser.parse never raises" ~count:500
    arbitrary_garbage (fun s ->
      match Jsont.Parser.parse s with Ok _ | Error _ -> true)

let prop_parser_lenient_total =
  QCheck.Test.make ~name:"lenient Parser.parse never raises" ~count:300
    arbitrary_garbage (fun s ->
      match Jsont.Parser.parse ~mode:`Lenient s with Ok _ | Error _ -> true)

let prop_pointer_total =
  QCheck.Test.make ~name:"Pointer.of_string never raises" ~count:500
    arbitrary_garbage (fun s ->
      match Jsont.Pointer.of_string s with Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Direct ingestion: of_string vs of_value ∘ parse                      *)
(* ------------------------------------------------------------------ *)

let render_error e = Format.asprintf "%a" Parser.pp_error e

(* Full structural identity, not just subtree equality: every parse
   route of the oracle gives the same preorder numbering and the same
   per-node kind/edge/parent/size/height/depth/hash columns, or the
   same rendered error. *)
let test_direct_differential () =
  (* the readers' 64 KiB slices here; "chunked tree differential" feeds
     small chunks *)
  let routes = Oracle.Parse.routes ~feeds:[ Oracle.slices Par.Batch.slice_bytes ] () in
  let check what doc text =
    Oracle.Parse.agree ~what routes [ text ];
    if not (Value.equal (Tree.to_value (Tree.of_string_exn text)) doc) then
      Alcotest.failf "to_value roundtrip differs (%s)" what
  in
  let rng = Jworkload.Prng.create 2025 in
  for i = 1 to 60 do
    let size = 1 + Jworkload.Prng.int rng 400 in
    let doc = Jworkload.Gen_json.sized rng size in
    let text =
      if Jworkload.Prng.bool rng then Printer.compact doc
      else Printer.pretty doc
    in
    check (Printf.sprintf "case %d" i) doc text
  done;
  (* and documents of up to 64k nodes *)
  let rng = Jworkload.Prng.create 12 in
  List.iter
    (fun n ->
      let doc = Jworkload.Gen_json.sized rng n in
      check (Printf.sprintf "%d nodes" n) doc (Value.to_string doc))
    [ 1_000; 8_000; 64_000 ]

let test_direct_error_agreement () =
  Oracle.Parse.agree ~what:"errors" (Oracle.Parse.routes ())
    [ {|{"a":1,}|}; {|[1,2|}; {|{"a" 1}|}; "nul"; {|{"a":1,"a":2}|};
      {|[1, -3]|}; {|"unterminated|}; {|{"a":tru}|}; {|[1,2]]|};
      {|"\ud800x"|}; ""; "}"; "true"; "null"; "-3"; "1.5"; {|{"k":}|};
      {|[,]|}; {|{"a":1 "b":2}|}; {|{1:2}|};
      (* key reuse across objects is legal; within one it is not *)
      {|{"o":{"k":1},"k":2}|}; {|{"a":{"x":1},"b":{"x":2}}|};
      {|{"a":{"x":1,"x":2}}|}; {|{"a":{},"a":1}|} ]

(* The key set is per object: a key may recur in a nested or a sibling
   object, never twice in one. *)
let test_key_reuse () =
  List.iter
    (fun (text, accepted) ->
      Alcotest.(check bool) (Printf.sprintf "parse %S" text) accepted
        (Result.is_ok (Parser.parse text)))
    [ ({|{"o":{"k":1},"k":2}|}, true); ({|{"a":{"x":1},"b":{"x":2}}|}, true);
      ({|{"a":{"x":1,"x":2}}|}, false); ({|{"a":{},"a":1}|}, false) ];
  match Parser.parse {|{"a":{"x":1,"x":2}}|} with
  | Error e ->
    Alcotest.(check string) "nested duplicate"
      {|line 1, column 13: duplicate object key "x"|} (render_error e)
  | Ok _ -> Alcotest.fail "nested duplicate accepted"

(* One object of [n] keys, ["k0":0, …], then [extra] members. *)
let wide_object n extra =
  let b = Buffer.create (n * 14) in
  Buffer.add_char b '{';
  for i = 0 to n - 1 do
    if i > 0 then Buffer.add_char b ',';
    Printf.bprintf b {|"k%d":%d|} i i
  done;
  Buffer.add_string b extra;
  Buffer.add_char b '}';
  Buffer.contents b

let cpu_time f =
  let t0 = Sys.time () in
  let v = f () in
  (v, Sys.time () -. t0)

(* Duplicate detection is linear in the keys: every reader rejects a
   duplicate appended to 64k keys with the same text, and the value
   parser reads the duplicate-free object in a bounded multiple of the
   time the direct tree builder takes (a list scan per key takes
   hundreds of times longer). *)
let test_wide_object () =
  let n = 65_536 in
  let dup = wide_object n {|,"k17":1|} in
  let render = function
    | Ok _ -> "accepted"
    | Error e -> render_error e
  in
  let expected = render (Parser.parse dup) in
  Alcotest.(check string) "duplicate rejected at the key"
    (Printf.sprintf {|line 1, column %d: duplicate object key "k17"|}
       (String.length dup - String.length {|"k17":1}|} + 1))
    expected;
  Alcotest.(check string) "Tree.of_string agrees" expected
    (render (Result.map ignore (Tree.of_string dup)));
  List.iter
    (fun schema ->
      let plan =
        Jschema.Validate.Plan.compile (Jschema.Parse.of_string_exn schema)
      in
      Alcotest.(check string) ("run_stream agrees under " ^ schema) expected
        (render
           (Parser.wrap (fun () -> Jschema.Validate.Plan.run_stream plan dup))))
    [ "{}"; {|{"properties":{"k17":{"type":"number"}}}|} ];
  let text = wide_object n "" in
  let _, linear = cpu_time (fun () -> Tree.of_string_exn text) in
  let v, t = cpu_time (fun () -> Parser.parse_exn text) in
  (match v with
  | Value.Obj kvs -> Alcotest.(check int) "every key kept" n (List.length kvs)
  | _ -> Alcotest.fail "not an object");
  let bound = Float.max 1.0 (25. *. linear) in
  if t > bound then
    Alcotest.failf "Parser.parse took %.2f s on %d keys (bound %.2f s)" t n
      bound

let test_direct_depth_agreement () =
  let deep = String.make 40 '[' ^ "1" ^ String.make 40 ']' in
  let depth n = Obs.Budget.depth_limited n in
  (match
     (Tree.of_string ~budget:(depth 10) deep, Parser.parse ~budget:(depth 10) deep)
   with
  | Error e1, Error e2 ->
    Alcotest.(check string) "depth error renders identically"
      (render_error e2) (render_error e1)
  | _ -> Alcotest.fail "expected depth exhaustion on both routes");
  match Tree.of_string ~budget:(depth 50) deep with
  | Ok t -> Alcotest.(check int) "within ceiling" 41 (Tree.node_count t)
  | Error e -> Alcotest.failf "unexpected: %s" (render_error e)

(* Fuel parity: the direct route burns two units per value (parse +
   construction), exactly what threading one budget through parse and
   then of_value burns.  Exhaustion positions may differ between the
   routes (the combined route only fails in of_value once parsing is
   over), so only fail/succeed is compared. *)
let test_direct_fuel_agreement () =
  let rng = Jworkload.Prng.create 7 in
  let doc = Jworkload.Gen_json.sized rng 120 in
  let text = Printer.compact doc in
  let nodes = Value.size doc in
  List.iter
    (fun fuel ->
      let combined =
        let budget = Obs.Budget.create ~fuel () in
        match Parser.parse ~budget text with
        | Error _ -> `Fail
        | Ok v -> (
          match Tree.of_value ~budget v with
          | _ -> `Ok
          | exception Obs.Budget.Exhausted _ -> `Fail)
      in
      let direct =
        match Tree.of_string ~budget:(Obs.Budget.create ~fuel ()) text with
        | Ok _ -> `Ok
        | Error _ -> `Fail
      in
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d agreement" fuel)
        true (combined = direct);
      if fuel >= 2 * nodes then
        Alcotest.(check bool)
          (Printf.sprintf "fuel %d suffices" fuel)
          true (direct = `Ok))
    [ 1; 2; 3; nodes; 2 * nodes - 1; 2 * nodes; 2 * nodes + 5 ]

let prop_direct_differential =
  QCheck.Test.make ~count:200 ~name:"of_string = of_value . parse"
    arbitrary_value
    (fun v ->
      let text = Printer.compact v in
      Oracle.Parse.tree_cell (Tree.of_string_exn text)
      = Oracle.Parse.tree_cell (Tree.of_value (Parser.parse_exn text)))

(* ------------------------------------------------------------------ *)
(* Resumable feed lexer: chunk-boundary differential                    *)
(* ------------------------------------------------------------------ *)

(* The feed contract: a token split at ANY byte offset lexes
   identically — token, position, error, everything — to one-shot
   lexing of the concatenated input.  These tests enforce it
   differentially: same corpus, every split point, plus random
   multi-splits, over tokens, errors, trees, fuel and stream-validation
   verdicts. *)

type lex_outcome = {
  lex_toks : (Lexer.position * Lexer.token) list;
  lex_err : (Lexer.position * string) option;
}

let oneshot_outcome input =
  let lx = Lexer.create input in
  let rec go acc =
    match Lexer.next lx with
    | _, Lexer.Eof -> { lex_toks = List.rev acc; lex_err = None }
    | t -> go (t :: acc)
    | exception Lexer.Error (p, m) ->
      { lex_toks = List.rev acc; lex_err = Some (p, m) }
  in
  go []

let feed_outcome chunks =
  let lx = Lexer.create_feed () in
  let acc = ref [] and err = ref None and stop = ref false in
  let drain () =
    let rec go () =
      if not !stop then
        match Lexer.pull lx with
        | `Token t ->
          acc := t :: !acc;
          go ()
        | `Await -> ()
        | `End -> stop := true
        | exception Lexer.Error (p, m) ->
          err := Some (p, m);
          stop := true
    in
    go ()
  in
  drain ();
  List.iter
    (fun c ->
      if not !stop then begin
        Lexer.feed_string lx c;
        drain ()
      end)
    chunks;
  if not !stop then begin
    Lexer.close lx;
    drain ()
  end;
  { lex_toks = List.rev !acc; lex_err = !err }

let pp_lex_outcome fmt o =
  List.iter
    (fun ((p : Lexer.position), t) ->
      Format.fprintf fmt "%d:%d:%d %a; " p.line p.col p.offset Lexer.pp_token t)
    o.lex_toks;
  match o.lex_err with
  | None -> Format.fprintf fmt "<ok>"
  | Some (p, m) -> Format.fprintf fmt "error %d:%d:%d %s" p.line p.col p.offset m

(* The current token rebuilt from the cursor's accessors alone; the
   in-place hash and comparison must agree with the copied body. *)
let cursor_token lx (k : Lexer.kind) =
  match k with
  | Lexer.K_lbrace -> Lexer.Lbrace
  | Lexer.K_rbrace -> Lexer.Rbrace
  | Lexer.K_lbracket -> Lexer.Lbracket
  | Lexer.K_rbracket -> Lexer.Rbracket
  | Lexer.K_colon -> Lexer.Colon
  | Lexer.K_comma -> Lexer.Comma
  | Lexer.K_string ->
    let s = Lexer.string_value lx in
    if Lexer.string_hash lx <> Lexer.hash_string s then
      Alcotest.failf "string_hash of %S differs from hash_string" s;
    if not (Lexer.string_equal lx s && not (Lexer.string_equal lx (s ^ "x")))
    then Alcotest.failf "string_equal disagrees on %S" s;
    Lexer.String s
  | Lexer.K_nat -> Lexer.Nat (Lexer.int_value lx)
  | Lexer.K_neg_int -> Lexer.Neg_int (Lexer.int_value lx)
  | Lexer.K_float -> Lexer.Float (Lexer.float_value lx)
  | Lexer.K_true -> Lexer.True
  | Lexer.K_false -> Lexer.False
  | Lexer.K_null -> Lexer.Null
  | Lexer.K_eof -> Lexer.Eof

(* The cursor over a refill lexer fed [chunks]: every other token is
   peeked first, the next chunk is fed while it is current (so the
   window compacts under it), and it must read the same off the
   accessors after the [next_kind] that consumes it as before. *)
let cursor_outcome chunks =
  let rest = ref chunks in
  let rec feed_next lx =
    match !rest with
    | [] -> false
    | c :: tl ->
      rest := tl;
      c <> "" && begin Lexer.feed_string lx c; true end || feed_next lx
  in
  let refill lx = if not (feed_next lx) then Lexer.close lx in
  let lx = Lexer.create_feed ~refill () in
  let read k = (Lexer.token_position lx, cursor_token lx k) in
  let rec go i acc =
    match
      if i mod 2 = 0 then Lexer.next_kind lx
      else begin
        let k = Lexer.peek_kind lx in
        let peeked = read k in
        ignore (feed_next lx);
        let k' = Lexer.next_kind lx in
        if k' <> k || read k' <> peeked then
          Alcotest.failf "token %d reads differently once consumed" i;
        k
      end
    with
    | Lexer.K_eof -> { lex_toks = List.rev acc; lex_err = None }
    | k -> go (i + 1) (read k :: acc)
    | exception Lexer.Error (p, m) ->
      { lex_toks = List.rev acc; lex_err = Some (p, m) }
  in
  go 0 []

let check_feed_matches name input chunks =
  let a = oneshot_outcome input in
  List.iter
    (fun (leg, b) ->
      if a.lex_toks <> b.lex_toks || a.lex_err <> b.lex_err then
        Alcotest.failf "%s differs from one-shot (%s) on %S:@.one-shot: %a@.%s: %a"
          leg name input pp_lex_outcome a leg pp_lex_outcome b)
    [ ("feed", feed_outcome chunks); ("cursor", cursor_outcome chunks) ]

(* valid and invalid documents exercising every stateful corner of the
   lexer: escapes, surrogate pairs, raw multi-byte UTF-8, deep nesting,
   long numbers, keyword literals, dangling tokens of each kind *)
let feed_corpus =
  [ figure1;
    {|{"k":"a\n\tA\\\" b","u":"é中"}|};
    {|"𝄞 ok 😀"|};
    "[\"h\xc3\xa9llo\", \"\xe6\x97\xa5\xe6\x9c\xac\", \"\xf0\x9f\x90\x98\xf0\x9f\x90\x98\"]";
    String.make 30 '[' ^ "0" ^ String.make 30 ']';
    {|[0, -0, 123456789012345678, 4611686018427387903, 0.5, 1.25e10, 3.141592653589793e-10, 2E+2]|};
    (* the edges of in-place integer accumulation (18 digits) and of
       the int range *)
    "[999999999999999999,-999999999999999999,"
    ^ "4611686018427387903,-4611686018427387904,-0]";
    "4611686018427387904";
    "-4611686018427387905";
    {|[true,false,null,{},[]]|};
    "  { \"a\" : [ 1 ,\n 2 ] }\n";
    "";
    "   ";
    {|{"a":tru|};
    {|{"a":truX}|};
    {|"abc|};
    {|"a\q"|};
    {|"a\u12"|};
    {|"\ud834x"|};
    {|"\ud834A"|};
    {|"\udd1e"|};
    "\"ctl\x01\"";
    "1e999";
    "-1e999";
    "1e";
    "1.";
    "-";
    "[1,2";
    "{,}";
    "nul";
    "tr";
    "123456789012345678901234567890";
    (* wider than the objects [Tree.lookup] scans *)
    wide_object 17 "";
    wide_object 17 {|,"k16":1|} ]

let test_feed_every_split () =
  List.iter
    (fun input ->
      let n = String.length input in
      for k = 0 to n do
        check_feed_matches
          (Printf.sprintf "split at %d" k)
          input
          [ String.sub input 0 k; String.sub input k (n - k) ]
      done)
    feed_corpus

let test_feed_byte_at_a_time () =
  List.iter
    (fun input ->
      check_feed_matches "1-byte chunks" input
        (List.init (String.length input) (fun i -> String.make 1 input.[i])))
    feed_corpus

let random_chunks rng input =
  let n = String.length input in
  let rec cuts acc i =
    if i >= n then List.rev acc
    else
      let j = min n (i + 1 + Jworkload.Prng.int rng 7) in
      cuts (String.sub input i (j - i) :: acc) j
  in
  cuts [] 0

let test_feed_random_splits () =
  let rng = Jworkload.Prng.create 99 in
  let corpus = Array.of_list feed_corpus in
  for _ = 1 to 200 do
    let input = corpus.(Jworkload.Prng.int rng (Array.length corpus)) in
    check_feed_matches "random chunks" input (random_chunks rng input)
  done;
  (* and on generated documents, pretty and compact *)
  for _ = 1 to 60 do
    let doc = Jworkload.Gen_json.sized rng (1 + Jworkload.Prng.int rng 200) in
    let text =
      if Jworkload.Prng.bool rng then Printer.compact doc
      else Printer.pretty doc
    in
    check_feed_matches "random doc" text (random_chunks rng text)
  done

(* every parse route of the oracle on the feed corpus and on generated
   documents: the feed lexer's tree at 1, 2, 3, 7 and 64-byte chunks
   is the one-shot tree, or fails with its error *)
let test_feed_tree_differential () =
  let rng = Jworkload.Prng.create 2026 in
  Oracle.Parse.agree ~what:"feed corpus" (Oracle.Parse.routes ())
    (feed_corpus
    @ List.init 30 (fun i ->
          Printer.compact (Jworkload.Gen_json.sized rng (1 + (i * 13)))))

(* Fuel parity: the chunked route must charge exactly the fuel the
   one-shot route charges — checked by agreement at every exact fuel
   threshold around a document's total draw, and under tiny depths and
   deadlines. *)
let test_feed_fuel_parity () =
  let rng = Jworkload.Prng.create 11 in
  let doc = Jworkload.Gen_json.sized rng 120 in
  let nodes = Value.size doc in
  Oracle.Parse.sweep ~what:"fused group"
    ~fuels:(List.init 8 (fun i -> max 1 ((2 * nodes) - 4 + i)) @ [ 1; 2; 3; nodes ])
    [ Printer.compact doc ]

(* ------------------------------------------------------------------ *)
(* Tree: key lookup, columns built on first use, shared trees           *)
(* ------------------------------------------------------------------ *)

(* Fresh trees of [text] from every construction route: the fused
   string pass, the same pass over 3-byte chunks, and [of_value]. *)
let tree_routes text =
  [ ("of_string", Tree.of_string_exn text);
    ("3-byte chunks", Oracle.Parse.fed_tree (snd (Oracle.slices 3) text));
    ("of_value", Tree.of_value (Parser.parse_exn text)) ]

(* Objects up to 16 keys are scanned, wider ones probe a table built
   on their first lookup: both find every key at its child, and miss
   the empty key, a prefix and an extension of a present key.  Looking
   up every key of the widest object takes a bounded multiple of the
   time building its tree takes (a scan per key takes thousands of
   times longer). *)
let test_tree_lookup_widths () =
  List.iter
    (fun n ->
      let text = wide_object n "" in
      let kvs =
        match Parser.parse_exn text with Value.Obj kvs -> kvs | _ -> assert false
      in
      let _, linear = cpu_time (fun () -> Tree.of_string_exn text) in
      let bound = Float.max 1.0 (25. *. linear) in
      List.iter
        (fun (route, t) ->
          let kids = Tree.child_ids t Tree.root in
          let (), time =
            cpu_time (fun () ->
                List.iteri
                  (fun i (k, v) ->
                    match Tree.lookup t Tree.root k with
                    | Some c
                      when c = kids.(i) && Value.equal (Tree.value_at t c) v ->
                      ()
                    | _ ->
                      Alcotest.failf "%s, %d keys: %S not at its child" route n
                        k)
                  kvs)
          in
          if time > bound then
            Alcotest.failf "%s: %d lookups took %.2f s (bound %.2f s)" route n
              time bound;
          List.iter
            (fun k ->
              if
                Option.map (Tree.value_at t) (Tree.lookup t Tree.root k)
                <> List.assoc_opt k kvs
              then Alcotest.failf "%s, %d keys: absent %S found" route n k)
            [ ""; "k"; "k0z"; Printf.sprintf "k%d" n ])
        (tree_routes text))
    [ 0; 1; 16; 17; 65_536 ]

(* Documents for the first-use columns: nested wide objects, empty
   containers, and generated documents. *)
let first_use_docs =
  lazy
    (let rng = Jworkload.Prng.create 4242 in
     figure1
     :: Printf.sprintf {|[%s,{"w":%s,"e":[[],{}]}]|} (wide_object 17 "")
          (wide_object 40 "")
     :: List.init 10 (fun i ->
            Printer.compact (Jworkload.Gen_json.sized rng (1 + (i * 41)))))

(* Every column a first use builds, asked in one order on a fresh tree
   per route, equals [of_value]'s; heights and depths also equal their
   definitions on the value. *)
let test_tree_first_use () =
  let rng = Jworkload.Prng.create 77 in
  List.iter
    (fun text ->
      let reference = Tree.of_value (Parser.parse_exn text) in
      let n = Tree.node_count reference in
      let column f = Array.init n (f reference) in
      let hashes = column Tree.subtree_hash
      and heights = column Tree.height_of
      and depths = column Tree.depth in
      for nd = 0 to n - 1 do
        if heights.(nd) <> Value.height (Tree.value_at reference nd) then
          Alcotest.failf "height of node %d in %S" nd text;
        if depths.(nd) <> List.length (Tree.address reference nd) then
          Alcotest.failf "depth of node %d in %S" nd text
      done;
      let orders =
        [ ("leaf-first", List.init n (fun i -> n - 1 - i));
          ("root-first", List.init n Fun.id);
          ("seeded", Jworkload.Prng.shuffle rng (List.init n Fun.id)) ]
      in
      List.iter
        (fun (order, nodes) ->
          List.iter
            (fun (name, f, expected) ->
              List.iter
                (fun (route, t) ->
                  List.iter
                    (fun nd ->
                      if f t nd <> expected.(nd) then
                        Alcotest.failf "%s of node %d (%s, %s) in %S" name nd
                          route order text)
                    nodes)
                (tree_routes text))
            [ ("subtree_hash", Tree.subtree_hash, hashes);
              ("height_of", Tree.height_of, heights);
              ("depth", Tree.depth, depths) ])
        orders)
    (Lazy.force first_use_docs)

(* [equal_subtrees] against [Value.equal] of [value_at], on seeded
   pairs of a document holding copies of one value, with and without
   its object keys reordered. *)
let test_tree_equal_pairs () =
  let rng = Jworkload.Prng.create 99 in
  let rec reorder = function
    | Value.Obj kvs -> Value.Obj (List.rev_map (fun (k, v) -> (k, reorder v)) kvs)
    | Value.Arr vs -> Value.Arr (List.map reorder vs)
    | v -> v
  in
  for i = 1 to 12 do
    let v = Jworkload.Gen_json.sized rng (1 + (i * 23)) in
    let w = Jworkload.Gen_json.sized rng (1 + (i * 23)) in
    let text = Printer.compact (Value.Arr [ v; reorder v; w; v ]) in
    List.iter
      (fun (route, t) ->
        let copies = Tree.child_ids t Tree.root in
        Alcotest.(check bool) (route ^ ": reordered copy equal") true
          (Tree.equal_subtrees t copies.(0) copies.(1));
        let n = Tree.node_count t in
        for _ = 1 to 300 do
          let a = Jworkload.Prng.int rng n in
          let b =
            (* half the pairs match a node of the first copy with its
               twin in the last *)
            if a > copies.(0) && a < copies.(1) && Jworkload.Prng.bool rng then
              a - copies.(0) + copies.(3)
            else Jworkload.Prng.int rng n
          in
          if
            Tree.equal_subtrees t a b
            <> Value.equal (Tree.value_at t a) (Tree.value_at t b)
          then Alcotest.failf "%s: equal_subtrees %d %d in %S" route a b text
        done)
      (tree_routes text)
  done

(* Two domains ask one fresh tree at once for every hash, height and
   depth and for lookups into its wide objects, one in node order and
   the other in reverse, the second starting a little later in each
   round; both must see what one domain sees. *)
let test_tree_two_domains () =
  let rng = Jworkload.Prng.create 5 in
  let text =
    Printer.compact
      (Value.Arr
         (List.init 6 (fun i ->
              Value.Obj
                (List.init (17 + (i * 7)) (fun j ->
                     ( Printf.sprintf "k%d" j,
                       Jworkload.Gen_json.sized rng (1 + ((i + j) mod 9)) ))))))
  in
  let answers ~reverse t =
    let n = Tree.node_count t in
    let nodes = List.init n (fun i -> if reverse then n - 1 - i else i) in
    let col f = List.map (f t) nodes in
    let s = col Tree.subtree_hash in
    let h = col Tree.height_of in
    let d = col Tree.depth in
    let lookups =
      col (fun t nd ->
          if Tree.is_obj t nd && Tree.arity t nd > 16 then
            List.map
              (fun k -> Tree.lookup t nd k)
              ("k" :: Array.to_list (Tree.obj_keys t nd))
          else [])
    in
    let fwd l = if reverse then List.rev l else l in
    (fwd s, fwd h, fwd d, fwd lookups)
  in
  let expected = answers ~reverse:false (Tree.of_string_exn text) in
  for round = 1 to 200 do
    let t = Tree.of_string_exn text in
    let ready = Atomic.make 0 in
    let ask reverse () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      if reverse then
        for _ = 1 to round mod 25 * 40 do Domain.cpu_relax () done;
      answers ~reverse t
    in
    let d1 = Domain.spawn (ask false) and d2 = Domain.spawn (ask true) in
    let a1 = Domain.join d1 and a2 = Domain.join d2 in
    if a1 <> expected || a2 <> expected then
      Alcotest.failf "round %d: a domain saw other columns or lookups" round
  done

let test_feed_misuse () =
  (* feeding a closed lexer is a programming error *)
  let lx = Lexer.create_feed () in
  Lexer.close lx;
  (match Lexer.feed_string lx "1" with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "feed after close should raise Invalid_argument");
  (* pulling past the buffered bytes without a refill callback cannot
     block, so the blocking API refuses *)
  let lx = Lexer.create_feed () in
  Lexer.feed_string lx "[1,";
  (match Lexer.next lx with
  | _, Lexer.Lbracket -> ()
  | _ -> Alcotest.fail "expected '['");
  ignore (Lexer.next lx) (* Nat 1 *);
  ignore (Lexer.next lx) (* ',' *);
  (match Lexer.next lx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "next past the window should raise Invalid_argument");
  (* a refill that makes no progress is detected, not looped on *)
  let lx = Lexer.create_feed ~refill:(fun _ -> ()) () in
  match Lexer.next lx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no-progress refill should raise Invalid_argument"

(* ------------------------------------------------------------------ *)
(* Number overflow: 1e999 is an error, not infinity                     *)
(* ------------------------------------------------------------------ *)

let contains_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Allocation budgets                                                   *)
(* ------------------------------------------------------------------ *)

(* Word counters repeat exactly on one binary, unlike timings, so these
   pin the allocation the lexer cursor took out of the readers.  The
   minor figure comes from [Gc.minor_words] ([Gc.counters] misses most
   minor allocation on OCaml 5.1); the direct major figure is major
   allocation net of promotions: arrays too large for the minor heap. *)
let catalog_texts =
  lazy
    (let rng = Jworkload.Prng.create 11 in
     Array.init 200 (fun _ ->
         Value.to_string (Jworkload.Catalog.catalog_doc rng)))

let words_per_byte texts f =
  let was = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled was) @@ fun () ->
  let bytes = Array.fold_left (fun a s -> a + String.length s) 0 texts in
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  Array.iter f texts;
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  let b = float_of_int bytes in
  ((minor1 -. minor0) /. b, (major1 -. major0 -. (promoted1 -. promoted0)) /. b)

let test_cursor_allocation () =
  (* catalog text is escape-free: no token needs a decode buffer *)
  let minor, _ =
    words_per_byte (Lazy.force catalog_texts) (fun text ->
        let lx = Lexer.create text in
        let rec drain () =
          match Lexer.next_kind lx with
          | Lexer.K_eof -> ()
          | Lexer.K_string ->
            ignore (Lexer.string_hash lx);
            drain ()
          | _ -> drain ()
        in
        drain ())
  in
  if minor > 0.5 then
    Alcotest.failf "cursor loop allocated %.2f minor words/B (budget 0.5)" minor

let test_of_string_major_allocation () =
  let _, major =
    words_per_byte (Lazy.force catalog_texts) (fun text ->
        ignore (Tree.of_string_exn text))
  in
  if major >= 0.1 then
    Alcotest.failf "Tree.of_string allocated %.3f major words/B (budget 0.1)"
      major

let test_of_string_minor_allocation () =
  (* structure at parse time, hashes, heights and depths on first use,
     and one key set instead of a (node, key) table *)
  let minor, _ =
    words_per_byte (Lazy.force catalog_texts) (fun text ->
        ignore (Tree.of_string_exn text))
  in
  if minor > 2.6 then
    Alcotest.failf "Tree.of_string allocated %.2f minor words/B (budget 2.6)"
      minor

let test_number_overflow () =
  List.iter
    (fun text ->
      match Lexer.tokenize text with
      | _ -> Alcotest.failf "expected overflow error on %S" text
      | exception Lexer.Error (_, m) ->
        Alcotest.(check bool)
          (Printf.sprintf "message mentions range on %S" text)
          true
          (contains_substring ~sub:"out of range" m))
    [ "1e999"; "-1e999"; "1e309"; "-1.5e400"; "[0, 12e999]" ];
  (* the tree and stream routes reject identically (same lexer) *)
  (match Tree.of_string "[1e999]" with
  | Ok _ -> Alcotest.fail "tree route accepted 1e999"
  | Error e ->
    Alcotest.(check bool) "tree route positions the error" true
      (contains_substring ~sub:"out of range" (render_error e)));
  (match Parser.parse ~mode:`Lenient "-1e999" with
  | Ok _ -> Alcotest.fail "lenient parse accepted -1e999"
  | Error e ->
    Alcotest.(check bool) "lenient parse rejects -1e999" true
      (contains_substring ~sub:"out of range" (render_error e)));
  (* boundary: the largest finite double still lexes as a float... *)
  (match Lexer.tokenize "1e308" with
  | [ (_, Lexer.Float f); (_, Lexer.Eof) ] ->
    Alcotest.(check bool) "1e308 finite" true (Float.is_finite f)
  | _ -> Alcotest.fail "1e308 should lex as one float");
  (* ...underflow to zero stays a value, not an error *)
  (match Lexer.tokenize "1e-999" with
  | [ (_, Lexer.Float f); (_, Lexer.Eof) ] ->
    Alcotest.(check (float 0.0)) "1e-999 underflows to 0" 0.0 f
  | _ -> Alcotest.fail "1e-999 should lex as one float");
  (* round-trip: admitted numbers still print back to themselves *)
  let v = Parser.parse_exn ~mode:`Lenient "[2e2, 9.007199254740991e15]" in
  Alcotest.(check string) "narrowed round-trip"
    "[200,9007199254740991]" (Printer.compact v)

(* pointer indices too large for [int] are a parse error, not a
   [Failure] escaping [of_string] (regression: raising int_of_string) *)
let test_pointer_index_overflow () =
  match Pointer.of_string "[99999999999999999999]" with
  | Ok _ -> Alcotest.fail "oversized pointer index accepted"
  | Error m ->
    Alcotest.(check bool) "positioned message" true
      (contains_substring ~sub:"out of range" m)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_roundtrip;
      prop_pretty_parse_roundtrip;
      prop_tree_roundtrip;
      prop_tree_size;
      prop_tree_height;
      prop_subtree_equality_matches_value_equality;
      prop_value_at;
      prop_hash_sound;
      prop_compare_total_order;
      prop_diff_roundtrip;
      prop_diff_invert;
      prop_diff_roundtrip_mutations;
      prop_diff_invert_mutations;
      prop_xml_roundtrip;
      prop_xml_lookup_agrees;
      prop_parser_total;
      prop_parser_lenient_total;
      prop_pointer_total;
      prop_direct_differential ]

let () =
  Alcotest.run "jsont"
    [ ("value",
       [ Alcotest.test_case "smart constructors" `Quick test_value_smart_constructors;
         Alcotest.test_case "unordered equality" `Quick test_value_equality_unordered;
         Alcotest.test_case "accessors" `Quick test_value_accessors;
         Alcotest.test_case "sizes" `Quick test_value_sizes;
         Alcotest.test_case "check" `Quick test_value_check ]);
      ("parser",
       [ Alcotest.test_case "atoms" `Quick test_parse_atoms;
         Alcotest.test_case "escapes" `Quick test_parse_escapes;
         Alcotest.test_case "errors" `Quick test_parse_errors;
         Alcotest.test_case "model restriction" `Quick test_parse_model_restriction;
         Alcotest.test_case "outside-the-model messages" `Quick test_model_messages;
         Alcotest.test_case "depth limit" `Quick test_parse_depth_limit;
         Alcotest.test_case "error positions" `Quick test_error_positions ]);
      ("printer",
       [ Alcotest.test_case "roundtrips" `Quick test_print_parse_roundtrip ]);
      ("tree",
       [ Alcotest.test_case "basic" `Quick test_tree_basic;
         Alcotest.test_case "navigation" `Quick test_tree_navigation;
         Alcotest.test_case "formal conditions" `Quick test_tree_formal_conditions;
         Alcotest.test_case "tree domain closure" `Quick test_tree_addresses_prefix_closed;
         Alcotest.test_case "subtree equality" `Quick test_tree_subtree_equality;
         Alcotest.test_case "key order insensitive" `Quick test_tree_key_order_insensitive_equality;
         Alcotest.test_case "sizes and heights" `Quick test_tree_sizes_heights;
         Alcotest.test_case "parents and edges" `Quick test_tree_parent_edges;
         Alcotest.test_case "lookup widths" `Quick test_tree_lookup_widths;
         Alcotest.test_case "first-use columns" `Quick test_tree_first_use;
         Alcotest.test_case "equal subtree pairs" `Quick test_tree_equal_pairs;
         Alcotest.test_case "two domains" `Quick test_tree_two_domains ]);
      ("direct ingestion",
       [ Alcotest.test_case "differential fuzz" `Quick test_direct_differential;
         Alcotest.test_case "error agreement" `Quick test_direct_error_agreement;
         Alcotest.test_case "key reuse" `Quick test_key_reuse;
         Alcotest.test_case "wide object" `Quick test_wide_object;
         Alcotest.test_case "depth agreement" `Quick test_direct_depth_agreement;
         Alcotest.test_case "fuel agreement" `Quick test_direct_fuel_agreement ]);
      ("feed lexer",
       [ Alcotest.test_case "every split point" `Quick test_feed_every_split;
         Alcotest.test_case "byte at a time" `Quick test_feed_byte_at_a_time;
         Alcotest.test_case "random multi-splits" `Quick test_feed_random_splits;
         Alcotest.test_case "chunked tree differential" `Quick
           test_feed_tree_differential;
         Alcotest.test_case "chunked fuel parity" `Quick test_feed_fuel_parity;
         Alcotest.test_case "misuse" `Quick test_feed_misuse;
         Alcotest.test_case "number overflow" `Quick test_number_overflow;
         Alcotest.test_case "pointer index overflow" `Quick
           test_pointer_index_overflow ]);
      ("allocation",
       [ Alcotest.test_case "cursor loop" `Quick test_cursor_allocation;
         Alcotest.test_case "Tree.of_string major heap" `Quick
           test_of_string_major_allocation;
         Alcotest.test_case "Tree.of_string minor heap" `Quick
           test_of_string_minor_allocation ]);
      ("xml coding",
       [ Alcotest.test_case "basics" `Quick test_xml_coding;
         Alcotest.test_case "number text strictness" `Quick
           test_xml_number_texts ]);
      ("diff",
       [ Alcotest.test_case "basics" `Quick test_diff_basics;
         Alcotest.test_case "errors" `Quick test_diff_errors;
         Alcotest.test_case "root remove is a patch error" `Quick
           test_diff_root_remove_total ]);
      ("pointer",
       [ Alcotest.test_case "parse" `Quick test_pointer_parse;
         Alcotest.test_case "bracket whitespace" `Quick test_pointer_whitespace;
         Alcotest.test_case "minus zero index" `Quick test_pointer_minus_zero;
         Alcotest.test_case "prng roundtrip" `Quick test_pointer_prng_roundtrip;
         Alcotest.test_case "roundtrip" `Quick test_pointer_roundtrip;
         Alcotest.test_case "get" `Quick test_pointer_get ]);
      ("properties", qcheck_tests) ]
