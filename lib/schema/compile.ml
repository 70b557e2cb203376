module Value = Jsont.Value
module Tree = Jsont.Tree
module Lexer = Jsont.Lexer
module Parser = Jsont.Parser
module Keyset = Jsont.Keyset
module Dfa = Rexp.Dfa
module Jsl = Jlogic.Jsl

(* Enum constants are pre-hashed with the tree hash so the runtime
   check is an integer binary search plus at most a handful of
   structural comparisons on hash-equal candidates. *)
type enum_entry = { e_hash : int; e_size : int; e_value : Value.t }

(* Every array element at a position in [lo, hi] (inclusive, [hi =
   max_int] when unbounded) must satisfy plan [r_plan].  Schema
   [items]/[additionalItems] and JSL's index modalities both lower to
   ranges, so the executors have one array-dispatch mechanism and a
   node's size does not depend on the numbers written in it. *)
type range = { lo : int; hi : int; r_plan : int }

(* [properties] by key, hashed with {!Lexer.hash_string}: the stream
   executor hashes a member key once, in place, for both duplicate
   detection and this lookup.  Open addressing with linear probing over
   a power-of-two table; [pk_plans.(i) = [||]] marks an empty slot
   (every listed key has at least one plan). *)
type props = {
  pk_hashes : int array;
  pk_keys : string array;
  pk_plans : int array array;
}

(* One plan node is the compiled form of one schema conjunction or one
   JSL conjunction.  All subschema positions hold plan ids into the
   enclosing plan's node array; every keyword family is pre-resolved to
   the exact shape the executor consumes:

   - conjunct interactions are resolved at compile time the same way
     the interpreter resolves them at every visit: the {e last}
     [items]/[additionalItems] conjunct wins, {e all}
     [additionalProperties] conjuncts apply, and a key is "named"
     (exempt from [additionalProperties]) iff some sibling
     [properties] lists it or some sibling [patternProperties] regex
     matches it;
   - numeric bounds collapse to one interval, [type] conjuncts to one
     kind bitmask (two distinct types = empty mask = always false);
   - property and length bounds apply only to objects, item ranges and
     length bounds only to arrays. *)
type node = {
  type_mask : int;  (* bit 0 = object, 1 = array, 2 = string, 3 = number *)
  patterns : Dfa.t array;
  min_bound : int;  (* max over [minimum] conjuncts; [min_int] if none *)
  max_bound : int;  (* min over [maximum] conjuncts; [max_int] if none *)
  multiples : int array;
  min_props : int;
  max_props : int;
  required : string array;
  props : props;  (* key-dispatch table *)
  pattern_props : (Dfa.t * int) array;
  additional : int array;  (* all [additionalProperties]; [] = absent *)
  ranges : range array;
  min_items : int;
  max_items : int;
  unique : bool;
  enums : enum_entry array array;  (* one sorted set per [enum] conjunct *)
  any_of : int array array;  (* one disjunction group per [anyOf] *)
  all_of : int array;  (* [allOf] members and resolved [$ref] targets *)
  nots : int array;
}

(* Same-node closure of a requested plan-id set: everything reachable
   through [anyOf]/[allOf]/[not] edges, which all constrain the {e
   same} value (property/item edges descend to children and are
   dispatched per member instead).  [Schema.well_formed] rejects
   non-modal reference cycles, so the closure is acyclic for every
   compilable document; the cycle flag is kept as a defensive fallback
   (a cyclic closure spills, reproducing [run_tree]'s divergence
   behavior instead of inventing a third semantics).  Ids are stored
   children-first (post-order), so one ascending sweep combines per-id
   verdicts with every same-node dependency already resolved; the
   operands of each id are pre-resolved to slots for that sweep. *)
type closure = {
  c_ids : int array;  (* post-order: same-node dependencies first *)
  c_slot : (int, int) Hashtbl.t;  (* plan id -> index into [c_ids] *)
  c_requested : int array;  (* slots of the requested ids, in request order *)
  c_any_of : int array array array;  (* per slot: [anyOf] groups as slots *)
  c_all_of : int array array;  (* per slot: [allOf]/[$ref] operands as slots *)
  c_nots : int array array;  (* per slot: [not] operands as slots *)
  c_enum : bool;  (* some closure node carries [enum] *)
  c_unique : bool;  (* some closure node carries [uniqueItems] *)
  c_cyclic : bool;
}

type t = {
  nodes : node array;
  shared : bool array;
    (* ≥ 2 incoming plan-graph edges — the memoized subset *)
  root : int;
  singletons : closure option Atomic.t array;
    (* closure of [[id]], filled on first use by whichever run (on
       whichever domain) asks first; a race at worst builds the same
       immutable closure twice *)
}

let node_count p = Array.length p.nodes

(* ---- compilation --------------------------------------------------------- *)

(* Shared by both front ends: ['k] is what is hash-consed and defined —
   schemas for {!compile}, formulas for {!of_jsl}. *)
type 'k builder = {
  defs : (string, 'k) Hashtbl.t;  (* each name's first definition *)
  assigned : (int, node) Hashtbl.t;
  ids : ('k, int) Hashtbl.t;  (* structural hash-consing *)
  def_ids : (string, int) Hashtbl.t;
  refs : (int, int ref) Hashtbl.t;
  dfas : (Rexp.Syntax.t, Dfa.t) Hashtbl.t;
  mutable count : int;
  budget : Obs.Budget.t;
}

let builder budget defs =
  let table = Hashtbl.create (List.length defs) in
  List.iter
    (fun (v, body) -> if not (Hashtbl.mem table v) then Hashtbl.add table v body)
    defs;
  { defs = table;
    assigned = Hashtbl.create 64;
    ids = Hashtbl.create 64;
    def_ids = Hashtbl.create 16;
    refs = Hashtbl.create 64;
    dfas = Hashtbl.create 16;
    count = 0;
    budget }

let fresh b =
  let id = b.count in
  b.count <- id + 1;
  Hashtbl.add b.refs id (ref 1);
  id

let bump b id = incr (Hashtbl.find b.refs id)

let finish b root =
  let shared = Array.init b.count (fun i -> !(Hashtbl.find b.refs i) >= 2) in
  Obs.Metrics.add "validate.plan.nodes" b.count;
  { nodes = Array.init b.count (Hashtbl.find b.assigned);
    shared;
    root;
    singletons = Array.init b.count (fun _ -> Atomic.make None) }

let dfa b e =
  match Hashtbl.find_opt b.dfas e with
  | Some d -> d
  | None ->
    let d = Dfa.of_syntax e in
    Obs.Metrics.incr "validate.compile.dfas";
    Hashtbl.add b.dfas e d;
    d

let enum_set vs =
  let entry v =
    (* an invalid constant (negative number, duplicate keys) can equal
       no constructible tree; drop it rather than fail the compile *)
    match Tree.of_value v with
    | tree ->
      Some
        { e_hash = Tree.subtree_hash tree Tree.root;
          e_size = Tree.node_count tree;
          e_value = v }
    | exception Value.Invalid _ -> None
  in
  let arr = Array.of_list (List.filter_map entry vs) in
  Array.sort
    (fun a b ->
      if a.e_hash <> b.e_hash then compare a.e_hash b.e_hash
      else compare a.e_size b.e_size)
    arr;
  arr

let type_bit = function
  | Schema.T_object -> 0b0001
  | Schema.T_array -> 0b0010
  | Schema.T_string -> 0b0100
  | Schema.T_number -> 0b1000

(* A node under construction: each front end folds its keywords or
   conjuncts into one, then [freeze] resolves it. *)
type draft = {
  mutable d_type : int;
  mutable d_patterns : Dfa.t list;
  mutable d_min : int;
  mutable d_max : int;
  mutable d_multiples : int list;
  mutable d_min_props : int;
  mutable d_max_props : int;
  mutable d_required : string list;
  mutable d_props : (string * int) list;
  mutable d_pattern_props : (Dfa.t * int) list;
  mutable d_additional : int list;
  mutable d_ranges : range list;
  mutable d_min_items : int;
  mutable d_max_items : int;
  mutable d_unique : bool;
  mutable d_enums : enum_entry array list;
  mutable d_any_of : int array list;
  mutable d_all_of : int list;
  mutable d_nots : int list;
}

let draft () =
  { d_type = 0b1111;
    d_patterns = [];
    d_min = min_int;
    d_max = max_int;
    d_multiples = [];
    d_min_props = 0;
    d_max_props = max_int;
    d_required = [];
    d_props = [];
    d_pattern_props = [];
    d_additional = [];
    d_ranges = [];
    d_min_items = 0;
    d_max_items = max_int;
    d_unique = false;
    d_enums = [];
    d_any_of = [];
    d_all_of = [];
    d_nots = [] }

let rec props_slot table h key i =
  if Array.length table.pk_plans.(i) = 0
     || (table.pk_hashes.(i) = h && String.equal table.pk_keys.(i) key)
  then i
  else props_slot table h key ((i + 1) land (Array.length table.pk_plans - 1))

let rec props_slot_token table h lx i =
  if Array.length table.pk_plans.(i) = 0
     || (table.pk_hashes.(i) = h && Lexer.string_equal lx table.pk_keys.(i))
  then i
  else
    props_slot_token table h lx ((i + 1) land (Array.length table.pk_plans - 1))

(* The slot of [key] in [table], or [-1]. *)
let props_find table key =
  let cap = Array.length table.pk_plans in
  if cap = 0 then -1
  else
    let h = Lexer.hash_string key in
    let i = props_slot table h key (h land (cap - 1)) in
    if Array.length table.pk_plans.(i) > 0 then i else -1

(* [props_find] of the lexer's current string token, whose hash is [h]. *)
let props_find_token table h lx =
  let cap = Array.length table.pk_plans in
  if cap = 0 then -1
  else
    let i = props_slot_token table h lx (h land (cap - 1)) in
    if Array.length table.pk_plans.(i) > 0 then i else -1

(* The key-dispatch table of [(key, plan)] pairs listed newest first:
   every plan listed for a key applies, in listing order (duplicate
   [properties] entries conjoin, exactly as the interpreter's
   pair-by-pair sweep does). *)
let props_table pairs =
  let cap =
    let n = List.length pairs in
    let rec pow c = if c >= 2 * n then c else pow (2 * c) in
    if n = 0 then 0 else pow 2
  in
  let hashes = Array.make cap 0 and keys = Array.make cap "" in
  let plans = Array.make cap [] in
  let rec slot h k i =
    match plans.(i) with
    | _ :: _ when hashes.(i) <> h || not (String.equal keys.(i) k) ->
      slot h k ((i + 1) land (cap - 1))
    | _ -> i
  in
  List.iter
    (fun (k, id) ->
      let h = Lexer.hash_string k in
      let i = slot h k (h land (cap - 1)) in
      hashes.(i) <- h;
      keys.(i) <- k;
      plans.(i) <- id :: plans.(i))
    pairs;
  { pk_hashes = hashes; pk_keys = keys; pk_plans = Array.map Array.of_list plans }

let freeze d =
  { type_mask = d.d_type;
    patterns = Array.of_list d.d_patterns;
    min_bound = d.d_min;
    max_bound = d.d_max;
    multiples = Array.of_list d.d_multiples;
    min_props = d.d_min_props;
    max_props = d.d_max_props;
    required = Array.of_list (List.sort_uniq String.compare d.d_required);
    props = props_table d.d_props;
    pattern_props = Array.of_list (List.rev d.d_pattern_props);
    additional = Array.of_list d.d_additional;
    ranges = Array.of_list (List.rev d.d_ranges);
    min_items = d.d_min_items;
    max_items = d.d_max_items;
    unique = d.d_unique;
    enums = Array.of_list d.d_enums;
    any_of = Array.of_list d.d_any_of;
    all_of = Array.of_list d.d_all_of;
    nots = Array.of_list d.d_nots }

(* The last [items]/[additionalItems] conjuncts as ranges and length
   bounds: a tuple of k positions needs at least k elements and,
   without [additionalItems], at most k (§5.1).  Neighbouring positions
   with the same plan share one range. *)
let lower_items d items additional =
  let positions = Option.value ~default:[] items in
  let k = List.length positions in
  List.iteri
    (fun i pid ->
      d.d_ranges <-
        (match d.d_ranges with
        | r :: rest when r.r_plan = pid -> { r with hi = i } :: rest
        | rs -> { lo = i; hi = i; r_plan = pid } :: rs))
    positions;
  if items <> None then d.d_min_items <- k;
  match additional with
  | Some a -> d.d_ranges <- { lo = k; hi = max_int; r_plan = a } :: d.d_ranges
  | None -> if items <> None then d.d_max_items <- k

let rec intern b depth (s : Schema.t) =
  match Hashtbl.find_opt b.ids s with
  | Some id ->
    bump b id;
    id
  | None ->
    Obs.Budget.check_depth b.budget depth;
    Obs.Budget.burn b.budget 1;
    let id = fresh b in
    Hashtbl.add b.ids s id;
    Hashtbl.replace b.assigned id (build b (depth + 1) s);
    id

and intern_def b depth name =
  match Hashtbl.find_opt b.def_ids name with
  | Some id ->
    bump b id;
    id
  | None ->
    Obs.Budget.check_depth b.budget depth;
    Obs.Budget.burn b.budget 1;
    let id = fresh b in
    Hashtbl.add b.def_ids name id;
    let body = Hashtbl.find b.defs name in
    (* register the body structurally too, so an inline copy of a
       definition shares its plan; ids are reserved before the
       recursive build, which is what admits reference cycles *)
    if not (Hashtbl.mem b.ids body) then Hashtbl.add b.ids body id;
    Hashtbl.replace b.assigned id (build b (depth + 1) body);
    id

and build b depth (s : Schema.t) =
  let d = draft () in
  let items = ref None and additional_items = ref None in
  List.iter
    (fun c ->
      match c with
      | Schema.C_type ty -> d.d_type <- d.d_type land type_bit ty
      | Schema.C_pattern e -> d.d_patterns <- dfa b e :: d.d_patterns
      | Schema.C_minimum i -> d.d_min <- max d.d_min i
      | Schema.C_maximum i -> d.d_max <- min d.d_max i
      | Schema.C_multiple_of i -> d.d_multiples <- i :: d.d_multiples
      | Schema.C_min_properties i -> d.d_min_props <- max d.d_min_props i
      | Schema.C_max_properties i -> d.d_max_props <- min d.d_max_props i
      | Schema.C_required ks -> d.d_required <- List.rev_append ks d.d_required
      | Schema.C_properties kvs ->
        List.iter
          (fun (k, ss) -> d.d_props <- (k, intern b depth ss) :: d.d_props)
          kvs
      | Schema.C_pattern_properties kvs ->
        List.iter
          (fun (e, ss) ->
            d.d_pattern_props <- (dfa b e, intern b depth ss) :: d.d_pattern_props)
          kvs
      | Schema.C_additional_properties ss ->
        d.d_additional <- intern b depth ss :: d.d_additional
      | Schema.C_items ss -> items := Some (List.map (intern b depth) ss)
      | Schema.C_additional_items ss ->
        additional_items := Some (intern b depth ss)
      | Schema.C_unique_items -> d.d_unique <- true
      | Schema.C_enum vs -> d.d_enums <- enum_set vs :: d.d_enums
      | Schema.C_any_of ss ->
        d.d_any_of <- Array.of_list (List.map (intern b depth) ss) :: d.d_any_of
      | Schema.C_all_of ss ->
        d.d_all_of <- List.rev_append (List.map (intern b depth) ss) d.d_all_of
      | Schema.C_not ss -> d.d_nots <- intern b depth ss :: d.d_nots
      | Schema.C_ref r -> d.d_all_of <- intern_def b depth r :: d.d_all_of)
    s;
  lower_items d !items !additional_items;
  freeze d

let compile ?(budget = Obs.Budget.unlimited) (doc : Schema.document) =
  (match Schema.well_formed doc with
  | Ok () -> ()
  | Error m -> invalid_arg ("Jschema.Validate.Plan.compile: " ^ m));
  Obs.Metrics.span "validate.compile" @@ fun () ->
  let b = builder budget doc.definitions in
  finish b (intern b 0 doc.root)

(* ---- JSL front end ------------------------------------------------------- *)

let neg = function Jsl.Not g -> g | g -> Jsl.Not g

let range i j pid =
  let hi = Option.value ~default:max_int j in
  if i < 0 || hi < 0 then
    invalid_arg "Jschema.Validate.Plan.of_jsl: negative array index";
  { lo = i; hi; r_plan = pid }

(* A node test conjoined onto a node.  MinCh/MaxCh count the node's
   children in the tree model: strings and numbers have none. *)
let conjoin_test b d (nt : Jsl.node_test) =
  let only ty = d.d_type <- d.d_type land type_bit ty in
  match nt with
  | Jsl.Is_obj -> only Schema.T_object
  | Jsl.Is_arr -> only Schema.T_array
  | Jsl.Is_str -> only Schema.T_string
  | Jsl.Is_int -> only Schema.T_number
  | Jsl.Unique ->
    only Schema.T_array;
    d.d_unique <- true
  | Jsl.Pattern e ->
    only Schema.T_string;
    d.d_patterns <- dfa b e :: d.d_patterns
  | Jsl.Min i ->
    only Schema.T_number;
    d.d_min <- max d.d_min i
  | Jsl.Max i ->
    only Schema.T_number;
    d.d_max <- min d.d_max i
  | Jsl.Mult_of i ->
    only Schema.T_number;
    d.d_multiples <- i :: d.d_multiples
  | Jsl.Min_ch i ->
    if i > 0 then begin
      d.d_type <- d.d_type land (type_bit Schema.T_object lor type_bit Schema.T_array);
      d.d_min_props <- max d.d_min_props i;
      d.d_min_items <- max d.d_min_items i
    end
  | Jsl.Max_ch i ->
    if i < 0 then d.d_type <- 0
    else begin
      d.d_max_props <- min d.d_max_props i;
      d.d_max_items <- min d.d_max_items i
    end
  | Jsl.Eq_doc v -> d.d_enums <- enum_set [ v ] :: d.d_enums

(* One plan node per distinct subformula: the conjuncts of [f] fold into
   the node, every other operand — a negation, a disjunct, the body of
   a modality — is a child plan.  [◇] is [type ∧ ¬□¬], as in
   {!Of_jsl}.  A recursion symbol is its definition's plan. *)
let rec intern_jsl b depth (f : Jsl.t) =
  Obs.Budget.check_depth b.budget depth;
  match f with
  | Jsl.Var v -> intern_sym b depth v
  | _ -> (
    match Hashtbl.find_opt b.ids f with
    | Some id ->
      bump b id;
      id
    | None ->
      Obs.Budget.burn b.budget 1;
      let d = draft () in
      conjoin b (depth + 1) d f;
      (* a formula's own structure has no cycles (recursion goes through
         symbols), so its id is taken after its children's: the table
         then holds finished subformulas only, and a deep chain (whose
         subformulas all share one bounded structural hash) is never
         compared against its own ancestors *)
      let id = fresh b in
      Hashtbl.add b.ids f id;
      Hashtbl.replace b.assigned id (freeze d);
      id)

(* A symbol's id is reserved before its body is built, as [intern_def]
   does for [$ref]: that is what admits recursion (well-formedness puts
   a modality on every cycle, so both executors terminate). *)
and intern_sym b depth v =
  match Hashtbl.find_opt b.def_ids v with
  | Some id ->
    bump b id;
    id
  | None ->
    let body =
      match Hashtbl.find_opt b.defs v with
      | Some body -> body
      | None ->
        invalid_arg
          (Printf.sprintf
             "Jschema.Validate.Plan.of_jsl: free recursion symbol $%s" v)
    in
    Obs.Budget.burn b.budget 1;
    let id = fresh b in
    Hashtbl.add b.def_ids v id;
    let d = draft () in
    conjoin b (depth + 1) d body;
    Hashtbl.replace b.assigned id (freeze d);
    id

and conjoin b depth d (f : Jsl.t) =
  Obs.Budget.check_depth b.budget depth;
  let child g = intern_jsl b depth g in
  match f with
  | Jsl.True -> ()
  | Jsl.And _ ->
    (* {!Jsl.conj} folds left: walk the left spine at one depth, so a
       conjunction of many siblings costs no depth; only operands that
       are themselves conjunctions nest *)
    let rec spine f acc =
      match f with Jsl.And (x, y) -> spine x (y :: acc) | f -> f :: acc
    in
    List.iter (conjoin b (depth + 1) d) (spine f [])
  | Jsl.Or _ ->
    let group = List.map child (disjuncts b depth f []) in
    d.d_any_of <- Array.of_list group :: d.d_any_of
  | Jsl.Not g -> d.d_nots <- child g :: d.d_nots
  | Jsl.Test nt -> conjoin_test b d nt
  | Jsl.Box_keys (e, g) -> (
    match Rexp.Syntax.as_word e with
    | Some w -> d.d_props <- (w, child g) :: d.d_props
    | None -> d.d_pattern_props <- (dfa b e, child g) :: d.d_pattern_props)
  | Jsl.Box_range (i, j, g) -> d.d_ranges <- range i j (child g) :: d.d_ranges
  | Jsl.Dia_keys (e, g) ->
    d.d_type <- d.d_type land type_bit Schema.T_object;
    d.d_nots <- child (Jsl.Box_keys (e, neg g)) :: d.d_nots
  | Jsl.Dia_range (i, j, g) ->
    d.d_type <- d.d_type land type_bit Schema.T_array;
    d.d_nots <- child (Jsl.Box_range (i, j, neg g)) :: d.d_nots
  | Jsl.Var v -> d.d_all_of <- intern_sym b depth v :: d.d_all_of

(* The operands of a disjunction, in order.  As in [conjoin], the left
   spine ({!Jsl.disj} folds left) is walked at one depth and only a
   right operand that is itself a disjunction goes one level down. *)
and disjuncts b depth f acc =
  let rec spine f acc =
    match f with
    | Jsl.Or (x, y) -> spine x (disjuncts b (depth + 1) y acc)
    | f -> f :: acc
  in
  match f with
  | Jsl.Or _ ->
    Obs.Budget.check_depth b.budget depth;
    spine f acc
  | f -> f :: acc

let of_jsl ?(budget = Obs.Budget.unlimited) ?(defs = []) base =
  (if defs <> [] then
     match Jlogic.Jsl_rec.well_formed { Jlogic.Jsl_rec.defs; base } with
     | Ok () -> ()
     | Error m -> invalid_arg ("Jschema.Validate.Plan.of_jsl: " ^ m));
  Obs.Metrics.span "validate.compile" @@ fun () ->
  let b = builder budget defs in
  finish b (intern_jsl b 0 base)

(* ---- execution over trees ------------------------------------------------ *)

type state = { budget : Obs.Budget.t; memo : (int, bool) Hashtbl.t }

let enum_matches t n entries =
  let len = Array.length entries in
  len > 0
  &&
  let h = Tree.subtree_hash t n and sz = Tree.size t n in
  (* first index with (e_hash, e_size) >= (h, sz) *)
  let lo = ref 0 and hi = ref len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let e = entries.(mid) in
    if e.e_hash < h || (e.e_hash = h && e.e_size < sz) then lo := mid + 1
    else hi := mid
  done;
  let rec scan i =
    i < len
    &&
    let e = entries.(i) in
    e.e_hash = h && e.e_size = sz
    && (Tree.equal_to_value t n e.e_value || scan (i + 1))
  in
  scan !lo

let rec exec p st t n id depth =
  if p.shared.(id) then begin
    let key = (n * Array.length p.nodes) + id in
    match Hashtbl.find_opt st.memo key with
    | Some cached ->
      Obs.Metrics.incr "validate.memo.hit";
      cached
    | None ->
      let b = compute p st t n id depth in
      Hashtbl.add st.memo key b;
      b
  end
  else compute p st t n id depth

and every p st t n plans depth =
  Array.for_all (fun pid -> exec p st t n pid depth) plans

and compute p st t n id depth =
  Obs.Budget.check_depth st.budget depth;
  Obs.Budget.burn st.budget 1;
  let d = depth + 1 in
  let nd = p.nodes.(id) in
  (match Tree.kind t n with
  | Tree.Kobj -> nd.type_mask land 0b0001 <> 0 && obj_ok p st t n d nd
  | Tree.Karr -> nd.type_mask land 0b0010 <> 0 && arr_ok p st t n d nd
  | Tree.Kstr s ->
    nd.type_mask land 0b0100 <> 0
    && Array.for_all (fun dfa -> Dfa.accepts dfa s) nd.patterns
  | Tree.Kint v ->
    nd.type_mask land 0b1000 <> 0
    && v >= nd.min_bound && v <= nd.max_bound
    && Array.for_all (fun i -> i <> 0 && v mod i = 0) nd.multiples)
  && Array.for_all (enum_matches t n) nd.enums
  && Array.for_all
       (fun group -> Array.exists (fun pid -> exec p st t n pid d) group)
       nd.any_of
  && every p st t n nd.all_of d
  && Array.for_all (fun pid -> not (exec p st t n pid d)) nd.nots

and obj_ok p st t n d nd =
  let keys = Tree.obj_keys t n and kids = Tree.child_ids t n in
  let arity = Array.length kids in
  arity >= nd.min_props && arity <= nd.max_props
  && Array.for_all (fun k -> Tree.lookup t n k <> None) nd.required
  &&
  (* one sweep over the members: key dispatch, pattern dispatch and
     additionalProperties coverage together *)
  let n_pats = Array.length nd.pattern_props in
  let member_ok k c =
    let pi = props_find nd.props k in
    (pi < 0 || every p st t c nd.props.pk_plans.(pi) d)
    &&
    let rec pats j matched =
      if j >= n_pats then
        (* uncovered keys fall to additionalProperties (all of them) *)
        matched || pi >= 0
        || Array.length nd.additional = 0
        || every p st t c nd.additional d
      else
        let re, pid = nd.pattern_props.(j) in
        if Dfa.accepts re k then exec p st t c pid d && pats (j + 1) true
        else pats (j + 1) matched
    in
    pats 0 false
  in
  let rec members i =
    i >= arity || (member_ok keys.(i) kids.(i) && members (i + 1))
  in
  members 0

and arr_ok p st t n d nd =
  let kids = Tree.child_ids t n in
  let len = Array.length kids in
  len >= nd.min_items && len <= nd.max_items
  && Array.for_all
       (fun r ->
         let last = min r.hi (len - 1) in
         let rec positions i =
           i > last || (exec p st t kids.(i) r.r_plan d && positions (i + 1))
         in
         positions r.lo)
       nd.ranges
  && ((not nd.unique) || Jlogic.Jsl.check_unique t n)

let run_tree ?(budget = Obs.Budget.unlimited) p t =
  Obs.Metrics.incr "validate.plan.runs";
  let st = { budget; memo = Hashtbl.create 64 } in
  exec p st t Tree.root p.root 0

let run ?budget p v = run_tree ?budget p (Tree.of_value ?budget v)

(* ---- execution over the token stream ------------------------------------- *)

let closure_of p requested =
  let slot = Hashtbl.create 8 in
  let order = ref [] in
  let count = ref 0 in
  let active = Hashtbl.create 8 in
  let cyclic = ref false in
  let enum = ref false and unique = ref false in
  let rec go id =
    if Hashtbl.mem active id then cyclic := true
    else if not (Hashtbl.mem slot id) then begin
      Hashtbl.add active id ();
      let nd = p.nodes.(id) in
      if Array.length nd.enums > 0 then enum := true;
      if nd.unique then unique := true;
      Array.iter (Array.iter go) nd.any_of;
      Array.iter go nd.all_of;
      Array.iter go nd.nots;
      Hashtbl.remove active id;
      Hashtbl.add slot id !count;
      incr count;
      order := id :: !order
    end
  in
  List.iter go requested;
  let ids = Array.of_list (List.rev !order) in
  let slots = Array.map (Hashtbl.find slot) in
  { c_ids = ids;
    c_slot = slot;
    c_requested = Array.of_list (List.map (Hashtbl.find slot) requested);
    c_any_of = Array.map (fun id -> Array.map slots p.nodes.(id).any_of) ids;
    c_all_of = Array.map (fun id -> slots p.nodes.(id).all_of) ids;
    c_nots = Array.map (fun id -> slots p.nodes.(id).nots) ids;
    c_enum = !enum;
    c_unique = !unique;
    c_cyclic = !cyclic }

let singleton_closure p id =
  match Atomic.get p.singletons.(id) with
  | Some c -> c
  | None ->
    let c = closure_of p [ id ] in
    Atomic.set p.singletons.(id) (Some c);
    c

type stream_state = {
  s_budget : Obs.Budget.t;
  s_lx : Lexer.t;
  s_keys : Keyset.t;
    (* the member keys of every open object, streamed or skipped *)
  s_closures : (int list, closure) Hashtbl.t;
    (* closures of multi-id requested sets (sorted), which repeat for
       every member a union dispatches the same way — cached per run *)
}

let union_closure st p union =
  match Hashtbl.find_opt st.s_closures union with
  | Some c -> c
  | None ->
    let c = closure_of p union in
    Hashtbl.add st.s_closures union c;
    c

(* The per-value checks below are loops over plan arrays rather than
   [Array.for_all] with a capturing predicate, so that deciding a value
   allocates nothing beyond its verdict array. *)
let rec multiples_ok v ms i =
  i >= Array.length ms
  || (ms.(i) <> 0 && v mod ms.(i) = 0 && multiples_ok v ms (i + 1))

let rec patterns_ok s dfas i =
  i >= Array.length dfas || (Dfa.accepts dfas.(i) s && patterns_ok s dfas (i + 1))

(* Scalar [enum] membership directly on the token's atom — the scalar
   cases never spill.  Candidate values come from [enum_set], which
   dropped anything not constructible as a tree, exactly like the
   tree-path comparison would. *)
let rec enum_has_int v entries i =
  i < Array.length entries
  && ((match entries.(i).e_value with Value.Num m -> m = v | _ -> false)
     || enum_has_int v entries (i + 1))

let rec enum_has_str s entries i =
  i < Array.length entries
  && ((match entries.(i).e_value with
      | Value.Str t -> String.equal t s
      | _ -> false)
     || enum_has_str s entries (i + 1))

let rec enums_have_int v enums i =
  i >= Array.length enums
  || (enum_has_int v enums.(i) 0 && enums_have_int v enums (i + 1))

let rec enums_have_str s enums i =
  i >= Array.length enums
  || (enum_has_str s enums.(i) 0 && enums_have_str s enums (i + 1))

let scalar_int nodes ids v verdicts =
  for i = 0 to Array.length ids - 1 do
    let nd = nodes.(ids.(i)) in
    verdicts.(i) <-
      nd.type_mask land 0b1000 <> 0
      && v >= nd.min_bound && v <= nd.max_bound
      && multiples_ok v nd.multiples 0
      && enums_have_int v nd.enums 0
  done

let scalar_str nodes ids s verdicts =
  for i = 0 to Array.length ids - 1 do
    let nd = nodes.(ids.(i)) in
    verdicts.(i) <-
      nd.type_mask land 0b0100 <> 0
      && patterns_ok s nd.patterns 0
      && enums_have_str s nd.enums 0
  done

let rec any_holds v slots i =
  i < Array.length slots && (v.(slots.(i)) || any_holds v slots (i + 1))

let rec all_hold v slots i =
  i >= Array.length slots || (v.(slots.(i)) && all_hold v slots (i + 1))

let rec none_holds v slots i =
  i >= Array.length slots || ((not v.(slots.(i))) && none_holds v slots (i + 1))

let rec groups_hold v groups i =
  i >= Array.length groups
  || (any_holds v groups.(i) 0 && groups_hold v groups (i + 1))

(* Combine structural verdicts across the same-node graph in place:
   post-order puts every operand of slot [i] below [i], so each is
   final by the time [i] reads it. *)
let combine c v =
  for i = 0 to Array.length v - 1 do
    if v.(i) then
      v.(i) <-
        groups_hold v c.c_any_of.(i) 0
        && all_hold v c.c_all_of.(i) 0
        && none_holds v c.c_nots.(i) 0
  done

let rec pattern_hits key pps i acc =
  if i >= Array.length pps then acc
  else
    let re, pid = pps.(i) in
    pattern_hits key pps (i + 1) (if Dfa.accepts re key then pid :: acc else acc)

(* The child plan ids one closure node applies to the member [key]:
   its [properties] entry (slot [pi] of [nd.props], or [-1]) and every
   matching [patternProperties] regex, or all of [additionalProperties]
   when neither names the key. *)
let member_dispatch nd pi key =
  let pats = pattern_hits key nd.pattern_props 0 [] in
  if pi >= 0 then
    Array.fold_right (fun pid acc -> pid :: acc) nd.props.pk_plans.(pi) pats
  else match pats with [] -> Array.to_list nd.additional | _ -> pats

(* The child plan ids one closure node applies to the element at
   position [i]: those of its ranges covering [i], in range order. *)
let rec ranges_at rs i j acc =
  if j < 0 then acc
  else
    let r = rs.(j) in
    ranges_at rs i (j - 1) (if r.lo <= i && i <= r.hi then r.r_plan :: acc else acc)

(* Folded over a member's per-slot dispatch from [-1], gives its union:
   [-1] when no slot dispatches it, the id when every dispatch names
   that one id, [-2] when two or more distinct ids are named. *)
let rec union_in u = function
  | [] -> u
  | pid :: rest -> union_in (if u = -1 || u = pid then pid else -2) rest

let rec required_seen keys mark req i =
  i >= Array.length req
  || Keyset.mem keys mark (Lexer.hash_string req.(i)) req.(i)
     && required_seen keys mark req (i + 1)

(* One streamed value against the closure [c] of its requested plan
   ids.  Returns verdicts aligned with [c.c_ids] (a spill fills only
   the requested slots, which is all a caller ever reads).  The token
   handling mirrors [Tree.of_string_exn] member for member, so
   malformed documents render byte-identical errors through either
   engine; fuel is charged per streamed value ([1] parse unit plus one
   per active closure node), per skipped value ([1]) and per spilled
   value (that same streamed-value charge, then the materialization's
   [2] per node plus [run_tree]'s per-(node, plan) unit), and the depth
   ceiling follows document nesting with the same positions as the
   parser. *)
let rec stream_value st p c depth =
  let ids = c.c_ids in
  let n = Array.length ids in
  let lx = st.s_lx in
  let k = Lexer.peek_kind lx in
  Parser.guard ~units:(1 + n) st.s_budget lx depth;
  let must_spill =
    c.c_cyclic
    ||
    match k with
    | Lexer.K_lbrace -> c.c_enum
    | Lexer.K_lbracket -> c.c_enum || c.c_unique
    | _ -> false
  in
  if must_spill then spill st p c depth
  else begin
    (* a spilled value is counted once, by the tree builder *)
    Obs.Metrics.incr "parse.values";
    let verdicts = Array.make n false in
    (match Lexer.next_kind lx with
    | Lexer.K_lbrace -> stream_obj st p c depth verdicts
    | Lexer.K_lbracket -> stream_arr st p c depth verdicts
    | Lexer.K_nat -> scalar_int p.nodes ids (Lexer.int_value lx) verdicts
    | Lexer.K_string -> scalar_str p.nodes ids (Lexer.string_value lx) verdicts
    | ( Lexer.K_neg_int | Lexer.K_float | Lexer.K_true | Lexer.K_false
      | Lexer.K_null ) as k -> (
      match Parser.literal_atom `Strict lx k with
      | Parser.Int v -> scalar_int p.nodes ids v verdicts
      | Parser.Str s -> scalar_str p.nodes ids s verdicts)
    | Lexer.K_rbrace | Lexer.K_rbracket | Lexer.K_colon | Lexer.K_comma
    | Lexer.K_eof ->
      Parser.unexpected_at lx "a JSON value");
    combine c verdicts;
    verdicts
  end

(* A member/element's child obligations: [per_slot] holds, per closure
   slot of the container, the child plan ids that slot applies to it
   ([ok] is the slot's "all admissible so far" bit).  Their union is
   evaluated once — through the plan's cached closure when it is a
   single id, the run's union cache otherwise — and each slot reads its
   verdicts back; a value no slot constrains is skipped outright. *)
and stream_child st p depth per_slot ok =
  match Array.fold_left union_in (-1) per_slot with
  | -1 ->
    let before = Lexer.offset st.s_lx in
    Parser.skip_value `Strict st.s_budget st.s_keys st.s_lx (depth + 1);
    Obs.Metrics.add "validate.stream.skipped_bytes"
      (Lexer.offset st.s_lx - before)
  | -2 ->
    let union =
      List.sort_uniq Int.compare (List.concat (Array.to_list per_slot))
    in
    let c = union_closure st p union in
    let v = stream_value st p c (depth + 1) in
    Array.iteri
      (fun i pids ->
        if ok.(i) then
          ok.(i) <- List.for_all (fun pid -> v.(Hashtbl.find c.c_slot pid)) pids)
      per_slot
  | pid ->
    let c = singleton_closure p pid in
    let v = stream_value st p c (depth + 1) in
    if not v.(c.c_requested.(0)) then
      Array.iteri (fun i pids -> if pids <> [] then ok.(i) <- false) per_slot

and stream_obj st p c depth verdicts =
  let nodes = p.nodes in
  let ids = c.c_ids in
  let n = Array.length ids in
  let lx = st.s_lx and keys = st.s_keys in
  let ok = Array.make n true in
  let per_slot = Array.make n [] in
  let found = Array.make n (-1) in
  let mark = Keyset.mark keys in
  let arity = ref 0 in
  let rec members () =
    match Lexer.next_kind lx with
    | Lexer.K_string ->
      (* one hash of the key, in place, for the [properties] lookup of
         every closure node and for duplicate detection; the key is
         copied out only when no [properties] table holds it *)
      let h = Lexer.string_hash lx in
      let named = ref (-1) in
      for i = 0 to n - 1 do
        found.(i) <- props_find_token nodes.(ids.(i)).props h lx;
        if found.(i) >= 0 && !named < 0 then named := i
      done;
      let key =
        if !named < 0 then Lexer.string_value lx
        else nodes.(ids.(!named)).props.pk_keys.(found.(!named))
      in
      if not (Keyset.add keys mark h key) then
        Parser.fail_at lx "duplicate object key %S" key;
      Parser.expect_colon lx;
      incr arity;
      for i = 0 to n - 1 do
        per_slot.(i) <- member_dispatch nodes.(ids.(i)) found.(i) key
      done;
      stream_child st p depth per_slot ok;
      (match Lexer.next_kind lx with
      | Lexer.K_comma -> members ()
      | Lexer.K_rbrace -> ()
      | _ -> Parser.unexpected_at lx "',' or '}'")
    | _ -> Parser.unexpected_at lx "a string key"
  in
  (match Lexer.peek_kind lx with
  | Lexer.K_rbrace -> ignore (Lexer.next_kind lx)
  | _ -> members ());
  for i = 0 to n - 1 do
    let nd = nodes.(ids.(i)) in
    verdicts.(i) <-
      nd.type_mask land 0b0001 <> 0
      && ok.(i)
      && !arity >= nd.min_props && !arity <= nd.max_props
      && required_seen keys mark nd.required 0
  done;
  Keyset.release keys mark

and stream_arr st p c depth verdicts =
  let nodes = p.nodes in
  let ids = c.c_ids in
  let n = Array.length ids in
  let ok = Array.make n true in
  let per_slot = Array.make n [] in
  let len = ref 0 in
  let rec elements () =
    let i = !len in
    incr len;
    for s = 0 to n - 1 do
      let rs = nodes.(ids.(s)).ranges in
      per_slot.(s) <- ranges_at rs i (Array.length rs - 1) []
    done;
    stream_child st p depth per_slot ok;
    match Lexer.next_kind st.s_lx with
    | Lexer.K_comma -> elements ()
    | Lexer.K_rbracket -> ()
    | _ -> Parser.unexpected_at st.s_lx "',' or ']'"
  in
  (match Lexer.peek_kind st.s_lx with
  | Lexer.K_rbracket -> ignore (Lexer.next_kind st.s_lx)
  | _ -> elements ());
  for s = 0 to n - 1 do
    let nd = nodes.(ids.(s)) in
    verdicts.(s) <-
      nd.type_mask land 0b0010 <> 0
      && ok.(s)
      && !len >= nd.min_items && !len <= nd.max_items
  done

(* Materialize exactly one subtree through the column builder and fall
   back to [run_tree] semantics on it — the bounded escape hatch for
   the keywords that genuinely need the whole subtree ([uniqueItems],
   [enum] deep equality) or a cyclic closure.  The builder starts small
   and doubles, so a spill costs O(subtree), not O(rest of input), and
   it checks keys in the run's one key set. *)
and spill st p c depth =
  Obs.Metrics.incr "validate.stream.spills";
  let t =
    Tree.of_lexer_exn ~base_depth:depth ~keys:st.s_keys
      ~budget:st.s_budget st.s_lx
  in
  let est = { budget = st.s_budget; memo = Hashtbl.create 16 } in
  let v = Array.make (Array.length c.c_ids) false in
  Array.iter
    (fun s -> v.(s) <- exec p est t Tree.root c.c_ids.(s) depth)
    c.c_requested;
  v

let run_lexer
    ?(budget = Obs.Budget.depth_limited Obs.Budget.default_max_depth) p lx =
  Obs.Metrics.incr "validate.stream.runs";
  let st =
    { s_budget = budget;
      s_lx = lx;
      s_keys = Keyset.create ();
      s_closures = Hashtbl.create 8 }
  in
  let c = singleton_closure p p.root in
  let v = stream_value st p c 0 in
  Parser.expect_eof lx;
  v.(c.c_requested.(0))

let run_stream ?budget p input = run_lexer ?budget p (Lexer.create input)
