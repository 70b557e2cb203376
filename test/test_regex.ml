(* Tests for the regular-expression substrate: parser, NFA, DFA,
   Brzozowski derivatives, and the language algebra used by the logics. *)

let lang s = Rexp.Lang.of_string_exn s
let syn s = Rexp.Parse.parse_exn s

let check_match ?(expect = true) pattern word =
  Alcotest.(check bool)
    (Printf.sprintf "%S matches %S" pattern word)
    expect
    (Rexp.Lang.matches (lang pattern) word)

let no_match pattern word = check_match ~expect:false pattern word

(* ------------------------------------------------------------------ *)
(* Charset                                                              *)
(* ------------------------------------------------------------------ *)

let test_charset_basics () =
  let open Rexp.Charset in
  Alcotest.(check bool) "mem singleton" true (mem 'a' (singleton 'a'));
  Alcotest.(check bool) "mem other" false (mem 'b' (singleton 'a'));
  Alcotest.(check int) "range cardinal" 26 (cardinal (range 'a' 'z'));
  Alcotest.(check int) "full cardinal" 256 (cardinal full);
  Alcotest.(check int) "empty cardinal" 0 (cardinal empty);
  Alcotest.(check bool) "inverted range is empty" true (is_empty (range 'z' 'a'));
  let s = union (range 'a' 'c') (singleton 'x') in
  Alcotest.(check bool) "union mem" true (mem 'x' s && mem 'b' s);
  Alcotest.(check bool) "complement" true
    (mem 'q' (complement s) && not (mem 'b' (complement s)));
  Alcotest.(check bool) "diff" true
    (let d = diff (range 'a' 'z') (range 'm' 'z') in
     mem 'a' d && not (mem 'm' d));
  Alcotest.(check (option char)) "choose" (Some 'a') (choose (range 'a' 'z'));
  Alcotest.(check (option char)) "choose empty" None (choose empty);
  Alcotest.(check bool) "to_list" true
    (to_list (range 'a' 'c') = [ 'a'; 'b'; 'c' ]);
  Alcotest.(check bool) "equal via ops" true
    (equal (complement (complement s)) s)

(* ------------------------------------------------------------------ *)
(* Parser and matching                                                  *)
(* ------------------------------------------------------------------ *)

let test_literals () =
  check_match "abc" "abc";
  no_match "abc" "ab";
  no_match "abc" "abcd";
  check_match "" "";
  no_match "" "x"

let test_classes () =
  check_match "[abc]+" "abacab";
  no_match "[abc]+" "abd";
  check_match "[a-z0-9]*" "q7w8";
  check_match "[^a-z]" "Q";
  no_match "[^a-z]" "q";
  check_match "\\d+" "0123";
  no_match "\\d+" "12a";
  check_match "\\w+" "foo_Bar9";
  check_match "\\s" " ";
  check_match "[a\\-b]" "-";
  check_match "[\\d]" "5"

let test_operators () =
  check_match "a|b" "a";
  check_match "a|b" "b";
  no_match "a|b" "c";
  check_match "ab*" "a";
  check_match "ab*" "abbb";
  check_match "ab+" "abb";
  no_match "ab+" "a";
  check_match "ab?" "a";
  check_match "ab?" "ab";
  no_match "ab?" "abb";
  check_match "(ab)*" "abab";
  no_match "(ab)*" "aba";
  check_match "(a|b)*c" "abbac";
  check_match "a{3}" "aaa";
  no_match "a{3}" "aa";
  check_match "a{2,4}" "aaa";
  no_match "a{2,4}" "aaaaa";
  check_match "a{2,}" "aaaaaa";
  no_match "a{2,}" "a";
  check_match "." "x";
  no_match "." "";
  check_match ".*" "anything at all!"

let test_paper_expressions () =
  (* the (01)+ string schema of §5.1 *)
  check_match "(01)+" "0101";
  no_match "(01)+" "";
  no_match "(01)+" "010";
  (* the a(b|c)a patternProperties key expression *)
  check_match "a(b|c)a" "aba";
  check_match "a(b|c)a" "aca";
  no_match "a(b|c)a" "ada";
  (* the email pattern of §5.3 *)
  check_match "[A-z]*@ciws.cl" "info@ciws.cl";
  no_match "[A-z]*@ciws.cl" "info@example.com"

let test_anchors_and_escapes () =
  check_match "^abc$" "abc";
  check_match "a\\.b" "a.b";
  no_match "a\\.b" "axb";
  check_match "a\\\\b" "a\\b";
  check_match "\\x41" "A";
  (match Rexp.Parse.parse "a(" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unbalanced paren should fail");
  (match Rexp.Parse.parse "*a" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "leading star should fail");
  (match Rexp.Parse.parse "[z-a]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inverted range should fail");
  (* regression: an oversized repetition count escaped as Failure *)
  match Rexp.Parse.parse "a{99999999999999999999}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized repetition count should fail"

(* ------------------------------------------------------------------ *)
(* Language algebra                                                     *)
(* ------------------------------------------------------------------ *)

let test_emptiness_universality () =
  let open Rexp.Lang in
  Alcotest.(check bool) "ab nonempty" false (is_empty (lang "ab"));
  Alcotest.(check bool) "Sigma* universal" true (is_universal all);
  Alcotest.(check bool) "ab not universal" false (is_universal (lang "ab"));
  Alcotest.(check bool) "complement of empty" true
    (is_universal (complement (inter (lang "a") (lang "b"))));
  (* a ∩ b = ∅ for distinct literals *)
  Alcotest.(check bool) "disjoint literals" true
    (is_empty (inter (lang "a") (lang "b")));
  (* [ab]* ∩ [bc]* = b* — nonempty, contains "bb", not "a" *)
  let i = inter (lang "[ab]*") (lang "[bc]*") in
  Alcotest.(check bool) "intersection membership" true (matches i "bb");
  Alcotest.(check bool) "intersection exclusion" false (matches i "a");
  Alcotest.(check bool) "diff" true
    (let d = diff (lang "a+") (lang "aa*a") in
     (* a+ minus aa+ = exactly "a" *)
     matches d "a" && not (matches d "aa"))

let test_equiv_subset () =
  let open Rexp.Lang in
  Alcotest.(check bool) "a|b == [ab]" true (equiv (lang "a|b") (lang "[ab]"));
  Alcotest.(check bool) "(a*)* == a*" true (equiv (lang "(a*)*") (lang "a*"));
  Alcotest.(check bool) "a(ba)* == (ab)*a" true
    (equiv (lang "a(ba)*") (lang "(ab)*a"));
  Alcotest.(check bool) "a+ subset a*" true (subset (lang "a+") (lang "a*"));
  Alcotest.(check bool) "a* not subset a+" false (subset (lang "a*") (lang "a+"));
  Alcotest.(check bool) "a{2,4} == aa|aaa|aaaa" true
    (equiv (lang "a{2,4}") (lang "aa|aaa|aaaa"))

let test_witnesses () =
  let open Rexp.Lang in
  Alcotest.(check (option string)) "witness of literal" (Some "abc")
    (witness (lang "abc"));
  Alcotest.(check (option string)) "witness of empty" None
    (witness (inter (lang "a") (lang "b")));
  Alcotest.(check (option string)) "witness of star" (Some "")
    (witness (lang "x*"));
  (* shortest witness of a{3}|a{5} is aaa *)
  Alcotest.(check (option string)) "shortest witness" (Some "aaa")
    (witness (lang "a{3}|a{5}"));
  let ws = witnesses ~limit:3 (lang "ab*") in
  Alcotest.(check (list string)) "sample words" [ "a"; "ab"; "abb" ] ws;
  (* witness of complement avoids the language *)
  match witness (complement (lang "a*")) with
  | None -> Alcotest.fail "complement of a* is nonempty"
  | Some w -> Alcotest.(check bool) "outside a*" false (matches (lang "a*") w)

let test_dfa_minimize () =
  let d = Rexp.Dfa.of_syntax (syn "(a|b)*abb") in
  let m = Rexp.Dfa.minimize d in
  Alcotest.(check bool) "minimized equivalent" true (Rexp.Dfa.equiv d m);
  Alcotest.(check bool) "minimized no larger" true
    (Rexp.Dfa.state_count m <= Rexp.Dfa.state_count d);
  (* the textbook minimal DFA for (a|b)*abb has 4 states over Σ={a,b};
     over the full byte alphabet a fifth (dead) state is required *)
  Alcotest.(check int) "canonical state count" 5 (Rexp.Dfa.state_count m)

(* ------------------------------------------------------------------ *)
(* Alphabet partitions                                                  *)
(* ------------------------------------------------------------------ *)

(* The partition the DFA built its alphabet with before it split by one
   charset at a time: a table of per-byte membership signatures, classes
   numbered at first sight in the same byte order.  Kept as the
   oracle. *)
let oracle_byte_order =
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let preferred =
    range (Char.code 'a') (Char.code 'z')
    @ range (Char.code 'A') (Char.code 'Z')
    @ range (Char.code '0') (Char.code '9')
    @ List.map Char.code [ '_'; '-'; '.'; ' ' ]
  in
  preferred @ List.filter (fun b -> not (List.mem b preferred)) (range 0 255)

let oracle_classes key =
  let class_of = Array.make 256 0 in
  let ids = Hashtbl.create 16 in
  let count = ref 0 and reps = ref [] in
  List.iter
    (fun b ->
      let k = key b in
      match Hashtbl.find_opt ids k with
      | Some id -> class_of.(b) <- id
      | None ->
        Hashtbl.add ids k !count;
        class_of.(b) <- !count;
        incr count;
        reps := Char.chr b :: !reps)
    oracle_byte_order;
  (class_of, !count, Array.of_list (List.rev !reps))

let oracle_partition sets =
  oracle_classes (fun b -> List.map (Rexp.Charset.mem (Char.chr b)) sets)

let oracle_refine a b = oracle_classes (fun x -> (a.(x), b.(x)))

let random_charset st =
  let open Rexp.Charset in
  let byte () = Char.chr (Random.State.int st 256) in
  let some_range () =
    let lo = byte () and hi = byte () in
    range (min lo hi) (max lo hi)
  in
  match Random.State.int st 6 with
  | 0 -> some_range ()
  | 1 -> union (some_range ()) (some_range ())
  | 2 -> of_string (String.init (1 + Random.State.int st 8) (fun _ -> byte ()))
  | 3 -> complement (some_range ())
  | 4 -> singleton (byte ())
  | _ -> range 'a' (Char.chr (Char.code 'a' + Random.State.int st 26))

(* Overlapping ranges: each starts inside the previous one. *)
let overlapping st k =
  let rec go lo acc i =
    if i = k then List.rev acc
    else
      let hi = min 255 (lo + 1 + Random.State.int st 40) in
      let cs = Rexp.Charset.range (Char.chr lo) (Char.chr hi) in
      go (lo + Random.State.int st (hi - lo + 1)) (cs :: acc) (i + 1)
  in
  go (Random.State.int st 128) [] 0

let families st =
  let sets k = List.init k (fun _ -> random_charset st) in
  [ ("no sets", []);
    ("one set", sets 1);
    ("a few sets", sets (2 + Random.State.int st 6));
    ("more than 62 sets", sets (63 + Random.State.int st 40));
    ("empty and full", Rexp.Charset.[ empty; full ] @ sets 3);
    ("only empty", [ Rexp.Charset.empty ]);
    ("only full", [ Rexp.Charset.full ]);
    ("overlapping ranges", overlapping st (2 + Random.State.int st 12)) ]

let check_partition what (c1, n1, r1) (c2, n2, r2) =
  Alcotest.(check int) (what ^ ": class_count") n2 n1;
  Alcotest.(check (array int)) (what ^ ": class_of") c2 c1;
  Alcotest.(check (array char)) (what ^ ": reps") r2 r1

let test_partition_differential () =
  let st = Random.State.make [| 2017 |] in
  for round = 1 to 40 do
    List.iter
      (fun (name, sets) ->
        check_partition
          (Printf.sprintf "%s (round %d)" name round)
          (Rexp.Dfa.partition_of_sets sets)
          (oracle_partition sets))
      (families st)
  done

let test_refine_differential () =
  let st = Random.State.make [| 2026 |] in
  for round = 1 to 40 do
    let fams = Array.of_list (families st) in
    Array.iteri
      (fun i (name, sets) ->
        let other_name, other = fams.((i + 1 + round) mod Array.length fams) in
        let a, _, _ = Rexp.Dfa.partition_of_sets sets in
        let b, _, _ = Rexp.Dfa.partition_of_sets other in
        check_partition
          (Printf.sprintf "%s by %s (round %d)" name other_name round)
          (Rexp.Dfa.refine a b) (oracle_refine a b))
      fams
  done

(* ------------------------------------------------------------------ *)
(* Cross-validation properties                                          *)
(* ------------------------------------------------------------------ *)

let gen_regex =
  let open QCheck.Gen in
  let chr = char_range 'a' 'c' in
  let rec go n =
    if n <= 0 then
      oneof
        [ map Rexp.Syntax.char chr;
          return Rexp.Syntax.epsilon;
          map2 (fun a b -> Rexp.Syntax.chars (Rexp.Charset.range a b)) chr chr ]
    else
      frequency
        [ (2, go 0);
          (2, map2 Rexp.Syntax.cat (go (n - 1)) (go (n - 1)));
          (2, map2 Rexp.Syntax.alt (go (n - 1)) (go (n - 1)));
          (1, map Rexp.Syntax.star (go (n - 1))) ]
  in
  go 4

let gen_word = QCheck.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 0 8))

let arbitrary_regex_word =
  QCheck.make
    ~print:(fun (r, w) -> Printf.sprintf "(%s, %S)" (Rexp.Syntax.to_string r) w)
    QCheck.Gen.(pair gen_regex gen_word)

let prop_nfa_dfa_agree =
  QCheck.Test.make ~name:"NFA and DFA agree" ~count:500 arbitrary_regex_word
    (fun (r, w) ->
      Rexp.Nfa.accepts (Rexp.Nfa.of_syntax r) w
      = Rexp.Dfa.accepts (Rexp.Dfa.of_syntax r) w)

let prop_deriv_dfa_agree =
  QCheck.Test.make ~name:"derivatives and DFA agree" ~count:500
    arbitrary_regex_word (fun (r, w) ->
      Rexp.Deriv.matches r w = Rexp.Dfa.accepts (Rexp.Dfa.of_syntax r) w)

let prop_pp_parse_roundtrip =
  QCheck.Test.make ~name:"pp/parse roundtrip preserves language" ~count:300
    (QCheck.make ~print:Rexp.Syntax.to_string gen_regex) (fun r ->
      let r' = Rexp.Parse.parse_exn (Rexp.Syntax.to_string r) in
      Rexp.Lang.equiv (Rexp.Lang.of_syntax r) (Rexp.Lang.of_syntax r'))

let prop_complement_involution =
  QCheck.Test.make ~name:"complement is an involution" ~count:100
    (QCheck.make ~print:Rexp.Syntax.to_string gen_regex) (fun r ->
      let l = Rexp.Lang.of_syntax r in
      Rexp.Lang.equiv l (Rexp.Lang.complement (Rexp.Lang.complement l)))

let prop_de_morgan =
  QCheck.Test.make ~name:"De Morgan on languages" ~count:60
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "(%s, %s)" (Rexp.Syntax.to_string a)
           (Rexp.Syntax.to_string b))
       QCheck.Gen.(pair gen_regex gen_regex))
    (fun (a, b) ->
      let open Rexp.Lang in
      let la = of_syntax a and lb = of_syntax b in
      equiv (complement (union la lb)) (inter (complement la) (complement lb)))

let prop_witness_in_language =
  QCheck.Test.make ~name:"witness belongs to the language" ~count:200
    (QCheck.make ~print:Rexp.Syntax.to_string gen_regex) (fun r ->
      let l = Rexp.Lang.of_syntax r in
      match Rexp.Lang.witness l with
      | None -> Rexp.Lang.is_empty l
      | Some w -> Rexp.Lang.matches l w)

let prop_star_unfold =
  QCheck.Test.make ~name:"L(r*) = L(ε|rr*)" ~count:100
    (QCheck.make ~print:Rexp.Syntax.to_string gen_regex) (fun r ->
      let open Rexp.Syntax in
      Rexp.Lang.equiv
        (Rexp.Lang.of_syntax (star r))
        (Rexp.Lang.of_syntax (alt epsilon (cat r (star r)))))

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_nfa_dfa_agree;
      prop_deriv_dfa_agree;
      prop_pp_parse_roundtrip;
      prop_complement_involution;
      prop_de_morgan;
      prop_witness_in_language;
      prop_star_unfold ]

let () =
  Alcotest.run "rexp"
    [ ("charset", [ Alcotest.test_case "basics" `Quick test_charset_basics ]);
      ("matching",
       [ Alcotest.test_case "literals" `Quick test_literals;
         Alcotest.test_case "classes" `Quick test_classes;
         Alcotest.test_case "operators" `Quick test_operators;
         Alcotest.test_case "paper expressions" `Quick test_paper_expressions;
         Alcotest.test_case "anchors and escapes" `Quick test_anchors_and_escapes ]);
      ("algebra",
       [ Alcotest.test_case "emptiness/universality" `Quick test_emptiness_universality;
         Alcotest.test_case "equivalence/subset" `Quick test_equiv_subset;
         Alcotest.test_case "witnesses" `Quick test_witnesses;
         Alcotest.test_case "minimization" `Quick test_dfa_minimize ]);
      ("partition",
       [ Alcotest.test_case "partition differential" `Quick
           test_partition_differential;
         Alcotest.test_case "refine differential" `Quick
           test_refine_differential ]);
      ("properties", qcheck_tests) ]
