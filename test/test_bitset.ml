(* Tests for the dense node-set substrate underlying all formula
   evaluators — checked against a reference implementation over sorted
   integer lists. *)

open Jlogic

let gen_sets =
  let open QCheck.Gen in
  let gen st =
    let n = int_range 1 200 st in
    let pick st = List.init n (fun i -> if bool st then Some i else None) in
    let to_list l = List.filter_map Fun.id l in
    (n, to_list (pick st), to_list (pick st))
  in
  QCheck.make
    ~print:(fun (n, a, b) ->
      Printf.sprintf "n=%d a=[%s] b=[%s]" n
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))
    gen

(* reference operations over sorted lists *)
let ref_union a b = List.sort_uniq Int.compare (a @ b)
let ref_inter a b = List.filter (fun x -> List.mem x b) a
let ref_diff a b = List.filter (fun x -> not (List.mem x b)) a
let ref_compl n a = List.filter (fun x -> not (List.mem x a)) (List.init n Fun.id)

let prop_ops =
  QCheck.Test.make ~name:"union/inter/diff/complement match the reference"
    ~count:500 gen_sets (fun (n, a, b) ->
      let sa = Bitset.of_list n a and sb = Bitset.of_list n b in
      Bitset.elements (Bitset.union sa sb) = ref_union a b
      && Bitset.elements (Bitset.inter sa sb) = ref_inter (List.sort_uniq Int.compare a) b
      && Bitset.elements (Bitset.diff sa sb) = ref_diff (List.sort_uniq Int.compare a) b
      && Bitset.elements (Bitset.complement sa) = ref_compl n a)

let prop_cardinal =
  QCheck.Test.make ~name:"cardinal = |elements|" ~count:300 gen_sets
    (fun (n, a, _) ->
      let s = Bitset.of_list n a in
      Bitset.cardinal s = List.length (Bitset.elements s))

let prop_union_into =
  QCheck.Test.make ~name:"union_into reports change correctly" ~count:300
    gen_sets (fun (n, a, b) ->
      let sa = Bitset.of_list n a and sb = Bitset.of_list n b in
      let target = Bitset.copy sb in
      let changed = Bitset.union_into sa ~into:target in
      Bitset.elements target = ref_union a b
      && changed = not (Bitset.equal target sb))

let prop_inter_into =
  QCheck.Test.make ~name:"inter_into matches inter and reports change" ~count:300
    gen_sets (fun (n, a, b) ->
      let sa = Bitset.of_list n a and sb = Bitset.of_list n b in
      let target = Bitset.copy sb in
      let changed = Bitset.inter_into sa ~into:target in
      Bitset.elements target = ref_inter (List.sort_uniq Int.compare b) a
      && changed = not (Bitset.equal target sb)
      && Bitset.equal target (Bitset.inter sa sb))

let prop_boundaries =
  QCheck.Test.make ~name:"boundary membership at word edges" ~count:100
    QCheck.(int_range 1 400)
    (fun n ->
      let s = Bitset.create n in
      Bitset.add s 0;
      Bitset.add s (n - 1);
      Bitset.mem s 0
      && Bitset.mem s (n - 1)
      && (n < 3 || not (Bitset.mem s (n / 2)))
      && Bitset.cardinal (Bitset.full n) = n
      &&
      (Bitset.remove s 0;
       (not (Bitset.mem s 0)) && Bitset.cardinal s = if n = 1 then 0 else 1))

let test_full_complement () =
  (* full/complement respect the capacity even across word boundaries *)
  List.iter
    (fun n ->
      let f = Bitset.full n in
      Alcotest.(check int) (Printf.sprintf "full %d" n) n (Bitset.cardinal f);
      Alcotest.(check int)
        (Printf.sprintf "complement of full %d" n)
        0
        (Bitset.cardinal (Bitset.complement f));
      Alcotest.(check bool) "empty is empty" true
        (Bitset.is_empty (Bitset.create n)))
    [ 1; 62; 63; 64; 65; 126; 127; 128; 1000 ]

let test_iter_order () =
  let s = Bitset.of_list 100 [ 99; 3; 41; 0 ] in
  Alcotest.(check (list int)) "elements sorted" [ 0; 3; 41; 99 ] (Bitset.elements s);
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  Alcotest.(check (list int)) "iter ascending" [ 99; 41; 3; 0 ] !acc;
  Alcotest.(check int) "fold" 143 (Bitset.fold ( + ) s 0)

(* ---- iteration by set bits ------------------------------------------------- *)

(* what [iter] visits, in visiting order *)
let visited s =
  let acc = ref [] in
  Bitset.iter (fun i -> acc := i :: !acc) s;
  List.rev !acc

(* iter, fold, elements and cardinal against the sorted member list:
   ascending, every member exactly once *)
let agrees n members =
  let members = List.sort_uniq Int.compare members in
  let s = Bitset.of_list n members in
  visited s = members
  && Bitset.fold (fun i acc -> i :: acc) s [] = List.rev members
  && Bitset.elements s = members
  && Bitset.cardinal s = List.length members

let check_agrees what n members =
  Alcotest.(check bool) what true (agrees n members)

(* sets of a few thousand bits at every density *)
let gen_large =
  let open QCheck.Gen in
  let gen st =
    let n = int_range 1000 5000 st in
    let density = float_bound_inclusive 1. st in
    (n, List.filter (fun _ -> float_bound_inclusive 1. st < density) (List.init n Fun.id))
  in
  QCheck.make
    ~print:(fun (n, m) -> Printf.sprintf "n=%d with %d members" n (List.length m))
    gen

let prop_large =
  QCheck.Test.make ~name:"iter/fold/elements/cardinal on thousands of bits"
    ~count:200 gen_large (fun (n, m) -> agrees n m)

(* dense words: every bit, the sign bit alone, alternating bits, and a
   partial last word *)
let test_dense_words () =
  let w = Sys.int_size in
  let n = (40 * w) + 17 in
  let all = List.init n Fun.id in
  let in_word k f = List.filter f (List.init w (fun b -> (k * w) + b)) in
  check_agrees "every bit" n all;
  check_agrees "all bits of one word" n (in_word 3 (fun _ -> true));
  check_agrees "only the sign bit of every word" n
    (List.init 40 (fun k -> (k * w) + w - 1));
  check_agrees "the lowest and the sign bit" n [ 0; w - 1; w; (2 * w) - 1 ];
  check_agrees "even bits" n (List.filter (fun i -> i mod 2 = 0) all);
  check_agrees "odd bits" n (List.filter (fun i -> i mod 2 = 1) all);
  check_agrees "partial last word" n (in_word 40 (fun i -> i < n));
  check_agrees "last bit only" n [ n - 1 ];
  (* each bit of a word on its own *)
  for b = 0 to w - 1 do
    check_agrees (Printf.sprintf "bit %d alone" b) (2 * w) [ w + b ]
  done;
  Alcotest.(check int) "full set counts every bit" n
    (Bitset.cardinal (Bitset.full n))

let () =
  Alcotest.run "bitset"
    [ ("unit",
       [ Alcotest.test_case "full/complement boundaries" `Quick test_full_complement;
         Alcotest.test_case "iteration order" `Quick test_iter_order;
         Alcotest.test_case "dense words" `Quick test_dense_words ]);
      ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_ops; prop_cardinal; prop_union_into; prop_inter_into;
           prop_boundaries; prop_large ]) ]
