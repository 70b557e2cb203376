module Tree = Jsont.Tree
module Value = Jsont.Value

type state = int

type rule =
  | R_true
  | R_false
  | R_and of rule * rule
  | R_or of rule * rule
  | R_test of Jsl.node_test
  | R_not_test of Jsl.node_test
  | R_state of state
  | R_ex_keys of Rexp.Syntax.t * state
  | R_all_keys of Rexp.Syntax.t * state
  | R_ex_range of int * int option * state
  | R_all_range of int * int option * state

type t = { rules : rule array; init : state }

let states t = Array.length t.rules
let rule t q = t.rules.(q)
let init t = t.init

(* ---- compilation (Lemmas 4 and 5) ---------------------------------------- *)

type polarity = Pos | Neg

let flip = function Pos -> Neg | Neg -> Pos

let compile defs base =
  let memo : (Jsl.t * polarity, int) Hashtbl.t = Hashtbl.create 64 in
  let rules = ref [||] in
  let count = ref 0 in
  let alloc () =
    let id = !count in
    incr count;
    if id >= Array.length !rules then begin
      let grown = Array.make (max 16 (2 * Array.length !rules)) R_true in
      Array.blit !rules 0 grown 0 (Array.length !rules);
      rules := grown
    end;
    id
  in
  let def v =
    match List.assoc_opt v defs with
    | Some d -> d
    | None ->
      invalid_arg (Printf.sprintf "Jautomaton: free recursion symbol $%s" v)
  in
  let rec state_of f pol =
    match Hashtbl.find_opt memo (f, pol) with
    | Some id -> id
    | None ->
      let id = alloc () in
      Hashtbl.add memo (f, pol) id;
      let r = rule_of f pol in
      !rules.(id) <- r;
      id
  and rule_of (f : Jsl.t) pol =
    match (f, pol) with
    | Jsl.True, Pos -> R_true
    | Jsl.True, Neg -> R_false
    | Jsl.Not g, p -> rule_of g (flip p)
    | Jsl.And (a, b), Pos -> R_and (rule_of a Pos, rule_of b Pos)
    | Jsl.And (a, b), Neg -> R_or (rule_of a Neg, rule_of b Neg)
    | Jsl.Or (a, b), Pos -> R_or (rule_of a Pos, rule_of b Pos)
    | Jsl.Or (a, b), Neg -> R_and (rule_of a Neg, rule_of b Neg)
    | Jsl.Test nt, Pos -> R_test nt
    | Jsl.Test nt, Neg -> R_not_test nt
    | Jsl.Dia_keys (e, g), Pos -> R_ex_keys (e, state_of g Pos)
    | Jsl.Dia_keys (e, g), Neg -> R_all_keys (e, state_of g Neg)
    | Jsl.Box_keys (e, g), Pos -> R_all_keys (e, state_of g Pos)
    | Jsl.Box_keys (e, g), Neg -> R_ex_keys (e, state_of g Neg)
    | Jsl.Dia_range (i, j, g), Pos -> R_ex_range (i, j, state_of g Pos)
    | Jsl.Dia_range (i, j, g), Neg -> R_all_range (i, j, state_of g Neg)
    | Jsl.Box_range (i, j, g), Pos -> R_all_range (i, j, state_of g Pos)
    | Jsl.Box_range (i, j, g), Neg -> R_ex_range (i, j, state_of g Neg)
    | Jsl.Var v, p -> R_state (state_of (def v) p)
  in
  let init = state_of base Pos in
  { rules = Array.sub !rules 0 !count; init }

let of_jsl f = compile [] f

let of_jsl_rec (r : Jsl_rec.t) =
  (match Jsl_rec.well_formed r with
  | Ok () -> ()
  | Error m -> invalid_arg ("Jautomaton.of_jsl_rec: " ^ m));
  compile r.Jsl_rec.defs r.Jsl_rec.base

(* ---- run computation ----------------------------------------------------- *)

(* The deterministic bottom-up run: for each node, the set of states
   whose rule holds there.  Same-node references are resolved by
   memoized recursion; a cycle would mean an ill-formed source formula
   and raises. *)

type run = { aut : t; sat : Bitset.t array (* node -> states *) }

let lang_cache : (Rexp.Syntax.t, Rexp.Lang.t) Hashtbl.t = Hashtbl.create 32

let lang e =
  match Hashtbl.find_opt lang_cache e with
  | Some l -> l
  | None ->
    let l = Rexp.Lang.of_syntax e in
    Hashtbl.add lang_cache e l;
    l

let compute_run aut tree =
  let q = states aut in
  let n = Tree.node_count tree in
  let jsl_ctx = Jsl.context tree in
  let sat = Array.init n (fun _ -> Bitset.create q) in
  let children_by_keys node e =
    let l = lang e in
    List.filter_map
      (fun (k, c) -> if Rexp.Lang.matches l k then Some c else None)
      (Tree.obj_children tree node)
  in
  let children_by_range node i j = Jnl_step.range_succs tree node i j in
  let eval_node node =
    let memo = Array.make q `Todo in
    let rec eval_state qid =
      match memo.(qid) with
      | `Done b -> b
      | `Active -> invalid_arg "Jautomaton: cyclic same-node references"
      | `Todo ->
        memo.(qid) <- `Active;
        let b = eval_rule aut.rules.(qid) in
        memo.(qid) <- `Done b;
        b
    and eval_rule = function
      | R_true -> true
      | R_false -> false
      | R_and (a, b) -> eval_rule a && eval_rule b
      | R_or (a, b) -> eval_rule a || eval_rule b
      | R_test nt -> Jsl.holds_test jsl_ctx node nt
      | R_not_test nt -> not (Jsl.holds_test jsl_ctx node nt)
      | R_state q' -> eval_state q'
      | R_ex_keys (e, q') ->
        List.exists (fun c -> Bitset.mem sat.(c) q') (children_by_keys node e)
      | R_all_keys (e, q') ->
        List.for_all (fun c -> Bitset.mem sat.(c) q') (children_by_keys node e)
      | R_ex_range (i, j, q') ->
        List.exists (fun c -> Bitset.mem sat.(c) q') (children_by_range node i j)
      | R_all_range (i, j, q') ->
        List.for_all
          (fun c -> Bitset.mem sat.(c) q')
          (children_by_range node i j)
    in
    for qid = 0 to q - 1 do
      if eval_state qid then Bitset.add sat.(node) qid
    done
  in
  Array.iter (List.iter eval_node) (Tree.nodes_by_height tree);
  { aut; sat }

let run_profile aut tree node =
  let r = compute_run aut tree in
  r.sat.(node)

let accepts aut tree =
  let r = compute_run aut tree in
  Bitset.mem r.sat.(Tree.root) aut.init

(* ---- emptiness with witness (Proposition 10) ----------------------------- *)

type outcome =
  | Sat of Value.t
  | Unsat
  | Unknown of string

(* Constraint harvest: everything the rules can observe, used to build
   candidate atoms, keys and width bounds. *)
type harvest = {
  mutable patterns : Rexp.Syntax.t list;
  mutable str_consts : string list;
  mutable int_consts : int list;
  mutable mult_consts : int list;
  mutable key_exprs : Rexp.Syntax.t list;
  mutable docs : Value.t list;
  mutable arr_need : int;  (* minimal array width worth constructing *)
  mutable obj_need : int;
  mutable minch : int;
}

let harvest aut =
  let h =
    { patterns = [];
      str_consts = [];
      int_consts = [];
      mult_consts = [];
      key_exprs = [];
      docs = [];
      arr_need = 0;
      obj_need = 0;
      minch = 0 }
  in
  let add_test nt =
    match nt with
    | Jsl.Pattern e -> h.patterns <- e :: h.patterns
    | Jsl.Min i | Jsl.Max i -> h.int_consts <- i :: h.int_consts
    | Jsl.Mult_of i -> h.mult_consts <- i :: h.mult_consts
    | Jsl.Min_ch i ->
      h.minch <- max h.minch i;
      h.arr_need <- max h.arr_need i;
      h.obj_need <- max h.obj_need i
    | Jsl.Max_ch i ->
      (* to refute Max_ch we may need i+1 children *)
      h.arr_need <- max h.arr_need (i + 1);
      h.obj_need <- max h.obj_need (i + 1)
    | Jsl.Eq_doc v -> (
      h.docs <- v :: h.docs;
      match v with
      | Value.Str s -> h.str_consts <- s :: h.str_consts
      | Value.Num i -> h.int_consts <- i :: h.int_consts
      | Value.Arr _ | Value.Obj _ -> ())
    | Jsl.Is_obj | Jsl.Is_arr | Jsl.Is_str | Jsl.Is_int | Jsl.Unique -> ()
  in
  let rec walk = function
    | R_true | R_false | R_state _ -> ()
    | R_and (a, b) | R_or (a, b) ->
      walk a;
      walk b
    | R_test nt | R_not_test nt -> add_test nt
    | R_ex_keys (e, _) | R_all_keys (e, _) -> h.key_exprs <- e :: h.key_exprs
    | R_ex_range (i, j, _) | R_all_range (i, j, _) ->
      let need =
        match j with
        | Some j -> j + 1
        | None -> i + 1
      in
      h.arr_need <- max h.arr_need (min need 64)
  in
  Array.iter walk aut.rules;
  h.patterns <- List.sort_uniq Rexp.Syntax.compare h.patterns;
  h.key_exprs <- List.sort_uniq Rexp.Syntax.compare h.key_exprs;
  h.str_consts <- List.sort_uniq String.compare h.str_consts;
  h.int_consts <- List.sort_uniq Int.compare h.int_consts;
  h.mult_consts <- List.sort_uniq Int.compare h.mult_consts;
  (* a node may need one child per distinct ∃-key expression, on top of
     any child-count obligations *)
  h.obj_need <- min 12 (h.obj_need + List.length h.key_exprs);
  h.arr_need <- min 16 h.arr_need;
  h

let uses_unique_test aut =
  let rec go = function
    | R_test Jsl.Unique | R_not_test Jsl.Unique -> true
    | R_and (a, b) | R_or (a, b) -> go a || go b
    | R_true | R_false | R_state _ | R_test _ | R_not_test _ | R_ex_keys _
    | R_all_keys _ | R_ex_range _ | R_all_range _ ->
      false
  in
  Array.exists go aut.rules

(* Distinct strings realizing each boolean combination of the languages
   in [exprs], each combination further split on the given constants.
   With k ≤ combo_cap expressions we enumerate all 2^k combinations
   exactly (language algebra + witness extraction); beyond the cap we
   fall back to per-expression witnesses. *)
let string_atoms ?(combo_cap = 5) ?(per_combo = 2) exprs consts =
  let exprs = List.sort_uniq Rexp.Syntax.compare exprs in
  let langs = List.map (fun e -> Rexp.Lang.of_syntax e) exprs in
  let k = List.length langs in
  let results = ref [] in
  let add w = if not (List.mem w !results) then results := w :: !results in
  List.iter add consts;
  if k = 0 then begin
    add "";
    add "z:fresh"
  end
  else if k <= combo_cap then begin
    let n_combo = 1 lsl k in
    for mask = 0 to n_combo - 1 do
      let language =
        List.fold_left
          (fun (acc, idx) l ->
            let acc =
              if mask land (1 lsl idx) <> 0 then Rexp.Lang.inter acc l
              else Rexp.Lang.inter acc (Rexp.Lang.complement l)
            in
            (acc, idx + 1))
          (Rexp.Lang.all, 0) langs
        |> fst
      in
      List.iter add (Rexp.Lang.witnesses ~limit:per_combo language)
    done
  end
  else
    List.iter
      (fun l ->
        List.iter add (Rexp.Lang.witnesses ~limit:per_combo l);
        List.iter add
          (Rexp.Lang.witnesses ~limit:1 (Rexp.Lang.complement l)))
      langs;
  List.sort String.compare !results

let int_atoms consts mults =
  let out = ref [ 0; 1 ] in
  let add i = if i >= 0 && not (List.mem i !out) then out := i :: !out in
  List.iter
    (fun c ->
      add (c - 1);
      add c;
      add (c + 1))
    consts;
  let top = List.fold_left max 1 consts in
  List.iter
    (fun m ->
      if m > 0 then begin
        add m;
        add (2 * m);
        (* a multiple just beyond each constant *)
        List.iter (fun c -> add (((c / m) + 1) * m)) consts;
        (* a non-multiple *)
        add (m + 1)
      end)
    mults;
  ignore top;
  List.sort Int.compare !out

let profile_key p = String.concat "," (List.map string_of_int (Bitset.elements p))


(* Entries of the saturation: a witness document together with its root
   profile.  Candidate composites are evaluated *compositionally*: the
   root profile of an object/array built from known-profile children is
   computed by evaluating each state's rule at the root only — O(states
   × children) per candidate instead of a full re-run of the tree. *)
type entry = { ev : Value.t; ep : Bitset.t }

type cand_shape =
  | Sh_obj of (string * entry) list
  | Sh_arr of entry list

let eval_shape aut shape (value : Value.t Lazy.t) =
  let q = Array.length aut.rules in
  let arity =
    match shape with
    | Sh_obj kvs -> List.length kvs
    | Sh_arr es -> List.length es
  in
  let holds_test (nt : Jsl.node_test) =
    match (nt, shape) with
    | Jsl.Is_obj, Sh_obj _ -> true
    | Jsl.Is_obj, Sh_arr _ -> false
    | Jsl.Is_arr, Sh_arr _ -> true
    | Jsl.Is_arr, Sh_obj _ -> false
    | (Jsl.Is_str | Jsl.Is_int | Jsl.Pattern _ | Jsl.Min _ | Jsl.Max _
      | Jsl.Mult_of _), _ ->
      false
    | Jsl.Min_ch i, _ -> arity >= i
    | Jsl.Max_ch i, _ -> arity <= i
    | Jsl.Unique, Sh_obj _ -> false
    | Jsl.Unique, Sh_arr es ->
      let sorted = List.sort Value.compare (List.map (fun e -> e.ev) es) in
      let rec distinct = function
        | a :: (b :: _ as rest) -> Value.compare a b <> 0 && distinct rest
        | _ -> true
      in
      distinct sorted
    | Jsl.Eq_doc a, _ -> Value.equal (Lazy.force value) a
  in
  let memo = Array.make q `Todo in
  let rec eval_state qid =
    match memo.(qid) with
    | `Done b -> b
    | `Active -> invalid_arg "Jautomaton: cyclic same-node references"
    | `Todo ->
      memo.(qid) <- `Active;
      let b = eval_rule aut.rules.(qid) in
      memo.(qid) <- `Done b;
      b
  and eval_rule = function
    | R_true -> true
    | R_false -> false
    | R_and (a, b) -> eval_rule a && eval_rule b
    | R_or (a, b) -> eval_rule a || eval_rule b
    | R_test nt -> holds_test nt
    | R_not_test nt -> not (holds_test nt)
    | R_state q' -> eval_state q'
    | R_ex_keys (e, q') -> (
      match shape with
      | Sh_arr _ -> false
      | Sh_obj kvs ->
        let l = lang e in
        List.exists
          (fun (k, c) -> Rexp.Lang.matches l k && Bitset.mem c.ep q')
          kvs)
    | R_all_keys (e, q') -> (
      match shape with
      | Sh_arr _ -> true
      | Sh_obj kvs ->
        let l = lang e in
        List.for_all
          (fun (k, c) -> (not (Rexp.Lang.matches l k)) || Bitset.mem c.ep q')
          kvs)
    | R_ex_range (i, j, q') -> (
      match shape with
      | Sh_obj _ -> false
      | Sh_arr es ->
        let in_range p = p >= i && match j with None -> true | Some j -> p <= j in
        List.exists Fun.id
          (List.mapi (fun p c -> in_range p && Bitset.mem c.ep q') es))
    | R_all_range (i, j, q') -> (
      match shape with
      | Sh_obj _ -> true
      | Sh_arr es ->
        let in_range p = p >= i && match j with None -> true | Some j -> p <= j in
        List.for_all Fun.id
          (List.mapi (fun p c -> (not (in_range p)) || Bitset.mem c.ep q') es))
  in
  let out = Bitset.create q in
  for qid = 0 to q - 1 do
    if eval_state qid then Bitset.add out qid
  done;
  out

(* The shape of the search.  [max_rounds] bounds the height of the
   trees explored, [candidates_per_round] how many composite documents
   one round tries, and [max_width] the children of a constructed node
   beyond what the automaton's constraints demand.  The budget bounds
   the total work across rounds. *)
let max_rounds = 24
let candidates_per_round = 400_000
let max_width = 3

let find_model ?(budget = Obs.Budget.unlimited) aut =
  let h = harvest aut in
  let profile_of_value v =
    let tree = Tree.of_value ~budget v in
    (* a full run costs one rule evaluation per (node, state) pair *)
    Obs.Budget.burn budget (Tree.node_count tree * states aut);
    let r = compute_run aut tree in
    r.sat.(Tree.root)
  in
  let per_profile =
    if uses_unique_test aut then max 2 (max h.arr_need h.minch) else 1
  in
  (* sub-documents of ~(A) constants are never interchangeable with
     other values of the same profile: a parent's Eq_doc test can tell
     them apart.  They are "distinguished": bucketed separately (so a
     distinguished witness never crowds out an ordinary one) and never
     merged away by the candidate quotient below. *)
  let distinguished = Hashtbl.create 16 in
  let rec note_subvalues v =
    Hashtbl.replace distinguished (Value.hash v) ();
    match v with
    | Value.Num _ | Value.Str _ -> ()
    | Value.Arr vs -> List.iter note_subvalues vs
    | Value.Obj kvs -> List.iter (fun (_, v) -> note_subvalues v) kvs
  in
  List.iter note_subvalues h.docs;
  let is_distinguished e = Hashtbl.mem distinguished (Value.hash e.ev) in
  let reached : (string, entry list ref) Hashtbl.t = Hashtbl.create 64 in
  let stored = ref 0 in
  let winner = ref None in
  let truncated_ever = ref false in
  let consider (e : entry) =
    Obs.Metrics.incr "sat.candidates";
    match !winner with
    | Some _ -> ()
    | None ->
      let key =
        if is_distinguished e then
          profile_key e.ep ^ "#" ^ string_of_int (Value.hash e.ev)
        else profile_key e.ep
      in
      let bucket =
        match Hashtbl.find_opt reached key with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.add reached key b;
          b
      in
      if
        List.length !bucket < per_profile
        && not (List.exists (fun e' -> Value.equal e.ev e'.ev) !bucket)
      then begin
        bucket := e :: !bucket;
        incr stored;
        if Bitset.mem e.ep aut.init then winner := Some e.ev
      end
  in
  let consider_value v = consider { ev = v; ep = profile_of_value v } in
  (* round 0: leaves and constant documents *)
  let strs = string_atoms h.patterns h.str_consts in
  let ints = int_atoms h.int_consts h.mult_consts in
  let leaves =
    List.map (fun s -> Value.Str s) strs
    @ List.map (fun i -> Value.Num i) ints
    @ [ Value.Obj []; Value.Arr [] ]
    @ h.docs
  in
  let keys =
    (* one witness per ∃/∀-key expression comes first — dropping one of
       those can turn a satisfiable formula into a false Unsat — then
       boolean-combination witnesses (for overlap/complement behavior),
       capped beyond that *)
    let primary =
      List.concat_map
        (fun e -> Rexp.Lang.witnesses ~limit:1 (Rexp.Lang.of_syntax e))
        h.key_exprs
    in
    let extras = string_atoms ~combo_cap:4 ~per_combo:2 h.key_exprs [] in
    let rec dedup acc = function
      | [] -> List.rev acc
      | k :: rest -> if List.mem k acc then dedup acc rest else dedup (k :: acc) rest
    in
    let all = dedup [] (primary @ extras) in
    let cap = max 14 (List.length primary + 4) in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: rest -> x :: take (n - 1) rest
    in
    take cap all
  in
  let arr_width = max h.arr_need max_width in
  let obj_width = max h.obj_need max_width in
  (* Interchangeability quotient: for a child reached through key [k]
     (resp. array position [p]), only its membership in the states
     targeted by quantifiers whose language contains [k] (resp. whose
     range contains [p]) can influence the parent — plus its identity
     when it is a sub-document of some ~(A) constant, or when [Unique]
     distinguishes values.  Candidates per key/position are deduplicated
     accordingly, which keeps the enumeration complete while shrinking
     it massively. *)
  let key_quants =
    let acc = ref [] in
    let rec walk = function
      | R_true | R_false | R_state _ | R_test _ | R_not_test _ -> ()
      | R_and (a, b) | R_or (a, b) ->
        walk a;
        walk b
      | R_ex_keys (e, q') | R_all_keys (e, q') -> acc := (lang e, q') :: !acc
      | R_ex_range _ | R_all_range _ -> ()
    in
    Array.iter walk aut.rules;
    !acc
  in
  let range_quants =
    let acc = ref [] in
    let rec walk = function
      | R_true | R_false | R_state _ | R_test _ | R_not_test _ -> ()
      | R_and (a, b) | R_or (a, b) ->
        walk a;
        walk b
      | R_ex_keys _ | R_all_keys _ -> ()
      | R_ex_range (i, j, q') | R_all_range (i, j, q') -> acc := (i, j, q') :: !acc
    in
    Array.iter walk aut.rules;
    !acc
  in
  let key_states k =
    List.filter_map
      (fun (l, q') -> if Rexp.Lang.matches l k then Some q' else None)
      key_quants
    |> List.sort_uniq Int.compare
  in
  let pos_states p =
    List.filter_map
      (fun (i, j, q') ->
        if p >= i && (match j with None -> true | Some j -> p <= j) then Some q'
        else None)
      range_quants
    |> List.sort_uniq Int.compare
  in
  let quotient states reps =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun e ->
        if is_distinguished e then true
        else begin
          let cls = List.map (Bitset.mem e.ep) states in
          let count = Option.value ~default:0 (Hashtbl.find_opt seen cls) in
          if count >= per_profile then false
          else begin
            Hashtbl.replace seen cls (count + 1);
            true
          end
        end)
      reps
  in
  let round () =
    (* witnesses with their profiles, small documents first so minimal
       models are found early *)
    let reps =
      Hashtbl.fold (fun _ b acc -> !b @ acc) reached []
      |> List.sort (fun a b ->
             let c = Int.compare (Value.size a.ev) (Value.size b.ev) in
             if c <> 0 then c else Value.compare a.ev b.ev)
    in
    let by_key =
      List.map (fun k -> (k, quotient (key_states k) reps)) keys
    in
    let by_pos = Array.init arr_width (fun p -> quotient (pos_states p) reps) in
    let cand_budget = ref candidates_per_round in
    let truncated = ref false in
    let emit shape =
      if !cand_budget <= 0 then truncated := true
      else begin
        decr cand_budget;
        (* compositional profile evaluation costs one rule evaluation
           per state *)
        Obs.Budget.burn budget (states aut);
        let value =
          lazy
            (match shape with
            | Sh_obj kvs -> Value.Obj (List.map (fun (k, e) -> (k, e.ev)) kvs)
            | Sh_arr es -> Value.Arr (List.map (fun e -> e.ev) es))
        in
        let p = eval_shape aut shape value in
        consider { ev = Lazy.force value; ep = p }
      end
    in
    let added_before = !stored in
    (* arrays: tuples with per-position candidate lists, lengths
       1 .. arr_width *)
    let rec arrays prefix pos =
      if !winner = None && !cand_budget > 0 && pos < arr_width then
        List.iter
          (fun e ->
            let tuple = e :: prefix in
            emit (Sh_arr (List.rev tuple));
            arrays tuple (pos + 1))
          by_pos.(pos)
    in
    arrays [] 0;
    (* objects: key subsets with per-key candidate lists *)
    let rec objects chosen remaining width =
      if !winner = None && !cand_budget > 0 then
        match remaining with
        | [] -> ()
        | (k, candidates) :: rest ->
          (* skip this key *)
          objects chosen rest width;
          if width > 0 then
            List.iter
              (fun e ->
                let kvs = (k, e) :: chosen in
                emit (Sh_obj (List.rev kvs));
                objects kvs rest (width - 1))
              candidates
    in
    objects [] by_key obj_width;
    if !truncated then truncated_ever := true;
    !stored > added_before
  in
  let rec loop rounds =
    match !winner with
    | Some v -> Sat v
    | None ->
      if rounds = 0 then
        Unknown (Printf.sprintf "no saturation within %d rounds" max_rounds)
      else begin
        Obs.Metrics.incr "sat.rounds";
        if round () then loop (rounds - 1)
        else if !winner <> None then Sat (Option.get !winner)
        else if !truncated_ever then
          Unknown "profile saturation reached only under truncated enumeration"
        else Unsat
      end
  in
  match
    (* round 0 seeding burns fuel too: keep it under the handler *)
    List.iter consider_value leaves;
    loop max_rounds
  with
  | outcome -> outcome
  | exception Obs.Budget.Exhausted r -> Unknown (Obs.Budget.describe r)
