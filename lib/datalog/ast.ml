type term =
  | Var of string
  | Const of int

type atom = { pred : string; args : term list }

type literal =
  | Pos of atom
  | Neg of atom

type rule = { head : atom; body : literal list }
type program = { rules : rule list; goal : string }

let v name = Var name
let c n = Const n
let atom pred args = { pred; args }
let ( <-- ) head body = { head; body }

let atom_vars a =
  List.filter_map (function Var x -> Some x | Const _ -> None) a.args

(* External predicates are evaluated by callback and bind nothing; the
   engine tells us which ones those are at runtime, but for the static
   safety check we treat every positive atom as binding.  A stricter
   check with the extern set happens inside the engine. *)
let check_safety r =
  let bound =
    List.concat_map (function Pos a -> atom_vars a | Neg _ -> []) r.body
  in
  let need = atom_vars r.head @ List.concat_map (function Neg a -> atom_vars a | Pos _ -> []) r.body in
  match List.find_opt (fun x -> not (List.mem x bound)) need with
  | None -> Ok ()
  | Some x ->
    Error
      (Printf.sprintf "unsafe rule: variable %s of %s is not bound positively" x
         r.head.pred)

let idb_predicates p =
  List.sort_uniq String.compare (List.map (fun r -> r.head.pred) p.rules)

let is_monadic p =
  let idb = idb_predicates p in
  List.for_all
    (fun r ->
      (not (List.mem r.head.pred idb)) || List.length r.head.args <= 1)
    p.rules

let is_recursive p =
  let idb = idb_predicates p in
  (* dependency graph over IDB predicates *)
  let deps pred =
    List.concat_map
      (fun r ->
        if r.head.pred = pred then
          List.filter_map
            (function
              | (Pos a | Neg a) when List.mem a.pred idb -> Some a.pred
              | Pos _ | Neg _ -> None)
            r.body
        else [])
      p.rules
  in
  let rec reachable seen pred =
    if List.mem pred seen then seen
    else List.fold_left reachable (pred :: seen) (deps pred)
  in
  List.exists
    (fun pred -> List.exists (fun d -> List.mem pred (reachable [] d)) (deps pred))
    idb

let pp_term fmt = function
  | Var x -> Format.pp_print_string fmt x
  | Const n -> Format.pp_print_int fmt n

let pp_atom fmt a =
  Format.fprintf fmt "%s(%a)" a.pred
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       pp_term)
    a.args

let pp_literal fmt = function
  | Pos a -> pp_atom fmt a
  | Neg a -> Format.fprintf fmt "not %a" pp_atom a

let pp_rule fmt r =
  Format.fprintf fmt "%a :- %a." pp_atom r.head
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_literal)
    r.body

let pp_program fmt p =
  Format.fprintf fmt "@[<v>%% goal: %s@,%a@]" p.goal
    (Format.pp_print_list pp_rule)
    p.rules
