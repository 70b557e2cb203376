module Value = Jsont.Value
module Tree = Jsont.Tree
module Jsl = Jlogic.Jsl
module Jnl = Jlogic.Jnl
module Jnl_eval = Jlogic.Jnl_eval
module Metrics = Obs.Metrics

type path = string list

exception Bad of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad s)) fmt

let split_path s = String.split_on_char '.' s

(* ---- documents ------------------------------------------------------------ *)

(* A document flowing through the pipeline, with both representations
   on demand: $match stages evaluate compiled JSL plans over the tree,
   transformation stages rewrite the value.  Each is built at most
   once; documents the $match prefix drops never materialize a
   [Value.t] when ingested as trees. *)
type doc = { v : Value.t Lazy.t; t : Tree.t Lazy.t }

let doc_of_value v = { v = lazy v; t = lazy (Tree.of_value v) }
let doc_of_tree t = { v = lazy (Tree.to_value t); t = lazy t }
let doc_value d = Lazy.force d.v
let doc_tree d = Lazy.force d.t

(* ---- expressions ----------------------------------------------------------- *)

(* The expression fragment used by computed $project fields, $group
   _id and accumulator arguments: field paths ["$a.b"], literals
   ([{"$literal": v}] or any non-string scalar), and literal documents
   whose fields are themselves expressions. *)
type expr =
  | E_path of path
  | E_lit of Value.t
  | E_doc of (string * expr) list

let rec parse_expr (v : Value.t) : expr =
  match v with
  | Value.Str s when String.length s > 1 && s.[0] = '$' ->
    E_path (split_path (String.sub s 1 (String.length s - 1)))
  | Value.Obj [ ("$literal", v) ] -> E_lit v
  | Value.Obj kvs
    when List.exists (fun (k, _) -> String.length k > 0 && k.[0] = '$') kvs ->
    bad "unsupported expression operator in %s" (Value.to_string v)
  | Value.Obj kvs -> E_doc (List.map (fun (k, v) -> (k, parse_expr v)) kvs)
  | literal -> E_lit literal

(* Field-path evaluation with aggregation-expression semantics: an
   array along the way maps the remaining path over its elements,
   collecting the hits into an array (one level per segment, elements
   that are not objects are skipped). *)
let rec get_path (p : path) (v : Value.t) : Value.t option =
  match (p, v) with
  | [], _ -> Some v
  | seg :: rest, Value.Obj kvs -> (
    match List.assoc_opt seg kvs with
    | None -> None
    | Some v' -> get_path rest v')
  | _ :: _, Value.Arr vs ->
    Some
      (Value.Arr
         (List.filter_map
            (function Value.Obj _ as e -> get_path p e | _ -> None)
            vs))
  | _ :: _, _ -> None

let rec eval_expr (e : expr) (d : Value.t) : Value.t option =
  match e with
  | E_lit v -> Some v
  | E_path p -> get_path p d
  | E_doc fields ->
    Some
      (Value.Obj
         (List.filter_map
            (fun (k, e) -> Option.map (fun v -> (k, v)) (eval_expr e d))
            fields))

(* ---- object-path editing --------------------------------------------------- *)

(* Strict object navigation (no implicit array traversal): the path
   resolution of $unwind, $sort keys and $lookup join fields. *)
let rec get_obj_path (p : path) (v : Value.t) : Value.t option =
  match (p, v) with
  | [], _ -> Some v
  | seg :: rest, Value.Obj kvs ->
    Option.bind (List.assoc_opt seg kvs) (get_obj_path rest)
  | _ -> None

(* Replace the value at an object path (the path is known to resolve). *)
let rec set_obj_path (p : path) (nv : Value.t) (v : Value.t) : Value.t =
  match (p, v) with
  | [], _ -> nv
  | seg :: rest, Value.Obj kvs ->
    Value.Obj
      (List.map
         (fun (k, x) -> if k = seg then (k, set_obj_path rest nv x) else (k, x))
         kvs)
  | _ -> v

let rec remove_obj_path (p : path) (v : Value.t) : Value.t =
  match (p, v) with
  | [ seg ], Value.Obj kvs -> Value.Obj (List.filter (fun (k, _) -> k <> seg) kvs)
  | seg :: rest, Value.Obj kvs ->
    Value.Obj
      (List.map
         (fun (k, x) -> if k = seg then (k, remove_obj_path rest x) else (k, x))
         kvs)
  | _, v -> v

(* Set a (possibly new) field at a dotted path, creating object spines
   for missing segments; a non-object in the way is replaced. *)
let rec set_path (p : path) (nv : Value.t) (v : Value.t) : Value.t =
  match p with
  | [] -> nv
  | seg :: rest -> (
    match v with
    | Value.Obj kvs when List.mem_assoc seg kvs ->
      Value.Obj
        (List.map
           (fun (k, x) -> if k = seg then (k, set_path rest nv x) else (k, x))
           kvs)
    | Value.Obj kvs -> Value.Obj (kvs @ [ (seg, set_path rest nv (Value.Obj [])) ])
    | _ -> Value.Obj [ (seg, set_path rest nv (Value.Obj [])) ])

(* ---- stages ---------------------------------------------------------------- *)

type proj =
  | P_include of path list * (path * expr) list  (** flags, computed *)
  | P_exclude of path list

type acc_op = A_sum | A_avg | A_min | A_max | A_push | A_count

type acc = { a_name : string; a_op : acc_op; a_arg : expr }

type group = { g_id : expr; g_accs : acc list }

(* Join and group keys, compared by value: object key order does not
   matter, and [None] (the missing field) equals only itself. *)
module Key_tbl = Hashtbl.Make (struct
  type t = Value.t option

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> Value.equal a b
    | None, Some _ | Some _, None -> false

  let hash = function None -> 0 | Some v -> Value.hash v
end)

type lookup = {
  l_local : path;
  l_as : path;
  l_foreign : Value.t array;  (** the joined collection, in order *)
  l_tbl : int list Key_tbl.t;  (** join key → indices, reversed *)
}

type stage =
  | S_match of Mongo.filter * Jschema.Validate.Plan.t
  | S_project of proj
  | S_unwind of path * bool  (** path, preserveNullAndEmptyArrays *)
  | S_group of group
  | S_sort of (path * bool) list  (** path, ascending *)
  | S_limit of int
  | S_skip of int
  | S_lookup of lookup

type pipeline = stage list

(* ---- parsing --------------------------------------------------------------- *)

let as_int what = function
  | Value.Num n -> n
  | v -> bad "%s expects a number, got %s" what (Value.kind_name v)

let as_string what = function
  | Value.Str s -> s
  | v -> bad "%s expects a string, got %s" what (Value.kind_name v)

let as_bool what = function
  | Value.Str "true" | Value.Num 1 -> true
  | Value.Str "false" | Value.Num 0 -> false
  | v -> bad "%s expects a boolean, got %s" what (Value.to_string v)

let parse_project (v : Value.t) : proj =
  match v with
  | Value.Obj [] -> bad "$project requires at least one field"
  | Value.Obj kvs -> (
    let incs, excs, comps =
      List.fold_left
        (fun (i, e, c) (k, v) ->
          match v with
          | Value.Num 1 | Value.Str "true" -> (split_path k :: i, e, c)
          | Value.Num 0 | Value.Str "false" -> (i, split_path k :: e, c)
          | ev -> (i, e, (split_path k, parse_expr ev) :: c))
        ([], [], []) kvs
    in
    match (List.rev incs, List.rev excs, List.rev comps) with
    | [], (_ :: _ as e), [] -> P_exclude e
    | i, [], c -> P_include (i, c)
    | _ -> bad "$project cannot mix exclusion with inclusion or computed fields")
  | v -> bad "$project expects an object, got %s" (Value.kind_name v)

let parse_field_path what v =
  let s = as_string what v in
  if String.length s > 1 && s.[0] = '$' then
    split_path (String.sub s 1 (String.length s - 1))
  else bad "%s expects a \"$field.path\", got %s" what s

let parse_unwind (v : Value.t) : stage =
  match v with
  | Value.Str _ -> S_unwind (parse_field_path "$unwind" v, false)
  | Value.Obj kvs ->
    let upath =
      match List.assoc_opt "path" kvs with
      | Some p -> parse_field_path "$unwind.path" p
      | None -> bad "$unwind requires a path"
    in
    let preserve =
      match List.assoc_opt "preserveNullAndEmptyArrays" kvs with
      | Some b -> as_bool "preserveNullAndEmptyArrays" b
      | None -> false
    in
    List.iter
      (fun (k, _) ->
        if k <> "path" && k <> "preserveNullAndEmptyArrays" then
          bad "$unwind: unknown option %s" k)
      kvs;
    S_unwind (upath, preserve)
  | v -> bad "$unwind expects a path or an options object, got %s" (Value.kind_name v)

let parse_acc name (v : Value.t) : acc =
  match v with
  | Value.Obj [ (op, arg) ] ->
    let mk a_op a_arg = { a_name = name; a_op; a_arg } in
    (match op with
    | "$sum" -> mk A_sum (parse_expr arg)
    | "$avg" -> mk A_avg (parse_expr arg)
    | "$min" -> mk A_min (parse_expr arg)
    | "$max" -> mk A_max (parse_expr arg)
    | "$push" -> mk A_push (parse_expr arg)
    | "$count" -> (
      match arg with
      | Value.Obj [] -> mk A_count (E_lit (Value.Num 0))
      | _ -> bad "$count takes {}")
    | op -> bad "unknown accumulator %s" op)
  | v -> bad "accumulator %s must be {\"$op\": expr}, got %s" name (Value.to_string v)

let parse_group (v : Value.t) : group =
  match v with
  | Value.Obj kvs ->
    let g_id =
      match List.assoc_opt "_id" kvs with
      | Some e -> parse_expr e
      | None -> bad "$group requires an _id expression"
    in
    let g_accs =
      List.filter_map
        (fun (k, v) -> if k = "_id" then None else Some (parse_acc k v))
        kvs
    in
    { g_id; g_accs }
  | v -> bad "$group expects an object, got %s" (Value.kind_name v)

(* The model has no negative numbers, so Mongo's [-1] cannot spell
   "descending": we use [1] ascending / [0] descending. *)
let parse_sort (v : Value.t) : (path * bool) list =
  match v with
  | Value.Obj (_ :: _ as kvs) ->
    List.map
      (fun (k, v) ->
        match v with
        | Value.Num 1 -> (split_path k, true)
        | Value.Num 0 -> (split_path k, false)
        | v -> bad "$sort direction must be 1 (asc) or 0 (desc), got %s"
                 (Value.to_string v))
      kvs
  | v -> bad "$sort expects a non-empty object, got %s" (Value.to_string v)

let parse_lookup collections (v : Value.t) : lookup =
  match v with
  | Value.Obj kvs ->
    let field what =
      match List.assoc_opt what kvs with
      | Some s -> as_string ("$lookup." ^ what) s
      | None -> bad "$lookup requires %s" what
    in
    let from = field "from" in
    let l_local = split_path (field "localField") in
    let l_foreign_path = split_path (field "foreignField") in
    let l_as = split_path (field "as") in
    let docs =
      match collections from with
      | Some docs -> docs
      | None -> bad "$lookup: unknown collection %s" from
    in
    let l_foreign = Array.of_list docs in
    let l_tbl = Key_tbl.create (max 16 (Array.length l_foreign)) in
    Array.iteri
      (fun i fd ->
        let key = get_obj_path l_foreign_path fd in
        let prev = Option.value ~default:[] (Key_tbl.find_opt l_tbl key) in
        Key_tbl.replace l_tbl key (i :: prev))
      l_foreign;
    { l_local; l_as; l_foreign; l_tbl }
  | v -> bad "$lookup expects an object, got %s" (Value.kind_name v)

let parse_stage collections (v : Value.t) : stage =
  match v with
  | Value.Obj [ (op, arg) ] -> (
    match op with
    | "$match" -> (
      match Mongo.parse arg with
      | Ok f -> S_match (f, Jschema.Validate.Plan.of_jsl (Mongo.to_jsl f))
      | Error m -> bad "$match: %s" m)
    | "$project" -> S_project (parse_project arg)
    | "$unwind" -> parse_unwind arg
    | "$group" -> S_group (parse_group arg)
    | "$sort" -> S_sort (parse_sort arg)
    | "$limit" ->
      let n = as_int "$limit" arg in
      S_limit n
    | "$skip" ->
      let n = as_int "$skip" arg in
      S_skip n
    | "$lookup" -> S_lookup (parse_lookup collections arg)
    | op -> bad "unknown pipeline stage %s" op)
  | Value.Obj _ -> bad "a pipeline stage must have exactly one operator"
  | v -> bad "a pipeline stage must be an object, got %s" (Value.kind_name v)

let no_collections : string -> Value.t list option = fun _ -> None

let parse ?(collections = no_collections) (v : Value.t) =
  match v with
  | Value.Arr stages -> (
    match List.map (parse_stage collections) stages with
    | stages -> Ok stages
    | exception Bad m -> Error m)
  | v -> Error (Printf.sprintf "a pipeline must be an array, got %s" (Value.kind_name v))

let of_find f p =
  S_match (f, Jschema.Validate.Plan.of_jsl (Mongo.to_jsl f))
  :: (match p with
     | None -> []
     | Some (Mongo.Include paths) -> [ S_project (P_include (paths, [])) ]
     | Some (Mongo.Exclude paths) -> [ S_project (P_exclude paths) ])

let parse_string ?collections s =
  match Jsont.Parser.parse ~mode:`Lenient s with
  | Error e -> Error (Format.asprintf "%a" Jsont.Parser.pp_error e)
  | Ok v -> parse ?collections v

let parse_string_exn ?collections s =
  match parse_string ?collections s with
  | Ok p -> p
  | Error m -> invalid_arg ("Jquery.Mongo_agg.parse_string_exn: " ^ m)

(* ---- direct evaluation ----------------------------------------------------- *)

let apply_proj (p : proj) (d : Value.t) : Value.t =
  match p with
  | P_exclude paths -> Mongo.project (Mongo.Exclude paths) d
  | P_include (incs, comps) ->
    let base =
      if incs = [] then Value.Obj []
      else Mongo.project (Mongo.Include incs) d
    in
    List.fold_left
      (fun acc (path, e) ->
        match eval_expr e d with
        | None -> acc
        | Some v -> set_path path v acc)
      base comps

let apply_unwind upath preserve (d : Value.t) : Value.t list =
  match get_obj_path upath d with
  | None ->
    if preserve then (Metrics.incr "mongo.agg.unwind.preserved"; [ d ]) else []
  | Some (Value.Arr []) ->
    if preserve then (
      Metrics.incr "mongo.agg.unwind.preserved";
      [ remove_obj_path upath d ])
    else []
  | Some (Value.Arr vs) ->
    Metrics.add "mongo.agg.unwind.out" (List.length vs);
    List.map (fun e -> set_obj_path upath e d) vs
  | Some _ -> [ d ]

type acc_state = {
  mutable s_sum : int;
  mutable s_cnt : int;  (** numeric values seen (for $avg) *)
  mutable s_min : Value.t option;
  mutable s_max : Value.t option;
  mutable s_items : Value.t list;  (** reversed *)
  mutable s_docs : int;  (** documents seen (for $count) *)
}

let fresh_state () =
  { s_sum = 0; s_cnt = 0; s_min = None; s_max = None; s_items = []; s_docs = 0 }

let feed_state st (a : acc) (d : Value.t) =
  st.s_docs <- st.s_docs + 1;
  match eval_expr a.a_arg d with
  | None -> ()
  | Some v -> (
    st.s_items <- v :: st.s_items;
    (match v with
    | Value.Num n ->
      st.s_sum <- st.s_sum + n;
      st.s_cnt <- st.s_cnt + 1
    | _ -> ());
    let better cmp cur =
      match cur with
      | None -> Some v
      | Some w -> if cmp (Value.compare v w) 0 then Some v else Some w
    in
    st.s_min <- better ( < ) st.s_min;
    st.s_max <- better ( > ) st.s_max)

(* $avg truncates: the model's numbers are naturals, so the mean of
   [1; 2] is 1 — a documented divergence from Mongo's doubles *)
let finish_state st (a : acc) : Value.t option =
  match a.a_op with
  | A_count -> Some (Value.Num st.s_docs)
  | A_sum -> Some (Value.Num st.s_sum)
  | A_avg -> if st.s_cnt = 0 then None else Some (Value.Num (st.s_sum / st.s_cnt))
  | A_min -> st.s_min
  | A_max -> st.s_max
  | A_push -> Some (Value.Arr (List.rev st.s_items))

let apply_group (g : group) (docs : Value.t list) : Value.t list =
  let tbl = Key_tbl.create 64 in
  (* groups in reverse first-seen order, each under its first key *)
  let order = ref [] in
  List.iter
    (fun d ->
      let key = eval_expr g.g_id d in
      let states =
        match Key_tbl.find_opt tbl key with
        | Some states -> states
        | None ->
          let states = List.map (fun _ -> fresh_state ()) g.g_accs in
          Key_tbl.add tbl key states;
          order := (key, states) :: !order;
          states
      in
      List.iter2 (fun st a -> feed_state st a d) states g.g_accs)
    docs;
  Metrics.add "mongo.agg.group.groups" (Key_tbl.length tbl);
  List.rev_map
    (fun (key, states) ->
      let id_field =
        match key with None -> [] | Some v -> [ ("_id", v) ]
      in
      let acc_fields =
        List.filter_map
          (fun (st, a) ->
            Option.map (fun v -> (a.a_name, v)) (finish_state st a))
          (List.combine states g.g_accs)
      in
      Value.Obj (id_field @ acc_fields))
    !order

(* missing sorts before any present value; descending negates *)
let sort_cmp spec d1 d2 =
  let rec go = function
    | [] -> 0
    | (p, asc) :: rest ->
      let c =
        match (get_obj_path p d1, get_obj_path p d2) with
        | None, None -> 0
        | None, Some _ -> -1
        | Some _, None -> 1
        | Some a, Some b -> Value.compare a b
      in
      let c = if asc then c else -c in
      if c <> 0 then c else go rest
  in
  go spec

let apply_lookup (lk : lookup) (d : Value.t) : Value.t =
  let lv = get_obj_path lk.l_local d in
  let probes =
    match lv with
    | Some (Value.Arr vs) -> lv :: List.map Option.some vs
    | other -> [ other ]
  in
  Metrics.add "mongo.agg.lookup.probes" (List.length probes);
  let idxs =
    List.concat_map
      (fun p ->
        match Key_tbl.find_opt lk.l_tbl p with
        | Some l -> l
        | None -> [])
      probes
  in
  let idxs = List.sort_uniq compare idxs in
  Metrics.add "mongo.agg.lookup.hits" (List.length idxs);
  let matched = Value.Arr (List.map (fun i -> lk.l_foreign.(i)) idxs) in
  set_path lk.l_as matched d

(* ---- pipeline evaluation --------------------------------------------------- *)

let is_streaming = function
  | S_match _ | S_project _ | S_unwind _ | S_lookup _ -> true
  | S_group _ | S_sort _ | S_limit _ | S_skip _ -> false

let is_empty (pl : pipeline) = match pl with [] -> true | _ :: _ -> false

let split_streaming (pl : pipeline) : pipeline * pipeline =
  let rec go acc = function
    | s :: rest when is_streaming s -> go (s :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] pl

let apply_stage_doc ?budget (s : stage) (d : doc) : doc list =
  match s with
  | S_match (_, plan) ->
    if Jschema.Validate.Plan.run_tree ?budget plan (doc_tree d) then (
      Metrics.incr "mongo.agg.match.pass";
      [ d ])
    else (
      Metrics.incr "mongo.agg.match.drop";
      [])
  | S_project p -> [ doc_of_value (apply_proj p (doc_value d)) ]
  | S_unwind (up, preserve) ->
    List.map doc_of_value (apply_unwind up preserve (doc_value d))
  | S_lookup lk -> [ doc_of_value (apply_lookup lk (doc_value d)) ]
  | S_group _ | S_sort _ | S_limit _ | S_skip _ ->
    invalid_arg "Mongo_agg.apply_doc: blocking stage"

let apply_doc ?budget (streaming : pipeline) (d : doc) : doc list =
  List.fold_left
    (fun ds s -> List.concat_map (apply_stage_doc ?budget s) ds)
    [ d ] streaming

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

let apply_stage ?budget (s : stage) (ds : doc list) : doc list =
  match s with
  | S_group g -> List.map doc_of_value (apply_group g (List.map doc_value ds))
  | S_sort spec ->
    Metrics.add "mongo.agg.sort.docs" (List.length ds);
    List.map doc_of_value
      (List.stable_sort (sort_cmp spec) (List.map doc_value ds))
  | S_limit n -> take n ds
  | S_skip n -> drop n ds
  | streaming -> List.concat_map (apply_stage_doc ?budget streaming) ds

let run_docs ?budget (pl : pipeline) (ds : doc list) : doc list =
  Metrics.span "mongo.agg.run" @@ fun () ->
  Metrics.add "mongo.agg.docs.in" (List.length ds);
  let out = List.fold_left (fun ds s -> apply_stage ?budget s ds) ds pl in
  Metrics.add "mongo.agg.docs.out" (List.length out);
  out

let run pl vs = List.map doc_value (run_docs pl (List.map doc_of_value vs))

(* ---- the JNL route --------------------------------------------------------- *)

(* The navigational core ($match / flag-only $project / $unwind)
   evaluated through JNL: $match through Theorem 2 and the per-node
   checker, $project through marking sets computed as path post-images
   ([Jnl_eval.succs]), $unwind through post-image targeting plus
   {!Tree.substitute}.  An independent oracle for the direct engine
   above — no code shared with [apply_proj]/[apply_stage_doc]'s
   plan route. *)

let star_arr = Jnl.Star (Jnl.Range (0, None))

let rec seq_of = function
  | [] -> Jnl.Self
  | [ x ] -> x
  | x :: rest -> Jnl.Seq (x, seq_of rest)

(* the first [i] segments of [p], each preceded by arbitrary array
   descent — the uniform descent of inclusion/exclusion projections *)
let proj_prefix (p : path) (i : int) : Jnl.path =
  seq_of (List.concat_map (fun s -> [ star_arr; Jnl.Key s ]) (take i p))

let jnl_project_include (incs : path list) (t : Tree.t) : Value.t =
  let n = Tree.node_count t in
  let mark = Array.make n false and keep = Array.make n false in
  let ctx = Jnl_eval.context t in
  List.iter
    (fun p ->
      let k = List.length p in
      for i = 1 to k do
        let arr = if i = k then keep else mark in
        List.iter
          (fun nd -> arr.(nd) <- true)
          (Jnl_eval.succs ctx (proj_prefix p i) Tree.root)
      done)
    incs;
  let rec rb nd =
    if keep.(nd) then Tree.value_at t nd
    else
      match Tree.kind t nd with
      | Tree.Kobj ->
        Value.Obj
          (List.filter_map
             (fun (key, c) ->
               if mark.(c) || keep.(c) then Some (key, rb c) else None)
             (Tree.obj_children t nd))
      | Tree.Karr ->
        Value.Arr (List.map rb (Array.to_list (Tree.arr_children t nd)))
      | Tree.Kstr _ | Tree.Kint _ -> Tree.value_at t nd
  in
  rb Tree.root

let jnl_project_exclude (excs : path list) (t : Tree.t) : Value.t =
  let n = Tree.node_count t in
  let dropped = Array.make n false in
  let ctx = Jnl_eval.context t in
  List.iter
    (fun p ->
      List.iter
        (fun nd -> dropped.(nd) <- true)
        (Jnl_eval.succs ctx (proj_prefix p (List.length p)) Tree.root))
    excs;
  let rec rb nd =
    match Tree.kind t nd with
    | Tree.Kobj ->
      Value.Obj
        (List.filter_map
           (fun (key, c) -> if dropped.(c) then None else Some (key, rb c))
           (Tree.obj_children t nd))
    | Tree.Karr -> Value.Arr (List.map rb (Array.to_list (Tree.arr_children t nd)))
    | Tree.Kstr _ | Tree.Kint _ -> Tree.value_at t nd
  in
  rb Tree.root

let jnl_unwind (upath : path) preserve (t : Tree.t) : Value.t list =
  let ctx = Jnl_eval.context t in
  let p = seq_of (List.map (fun s -> Jnl.Key s) upath) in
  match Jnl_eval.succs ctx p Tree.root with
  | [] -> if preserve then [ Tree.to_value t ] else []
  | [ target ] -> (
    match Tree.kind t target with
    | Tree.Karr ->
      let cs = Tree.arr_children t target in
      if Array.length cs = 0 then
        if preserve then [ remove_obj_path upath (Tree.to_value t) ] else []
      else
        Array.to_list
          (Array.map (fun c -> Tree.substitute t target (Tree.value_at t c)) cs)
    | _ -> [ Tree.to_value t ])
  | _ -> assert false (* a pure Key path is deterministic *)

let jnl_stage (s : stage) : (Value.t -> Value.t list, string) result =
  match s with
  | S_match (f, _) -> (
    match Mongo.to_jnl f with
    | Error m -> Error ("$match: " ^ m)
    | Ok jnl -> Ok (fun v -> if Jnl_eval.satisfies v jnl then [ v ] else []))
  | S_project (P_include (incs, [])) ->
    Ok (fun v -> [ jnl_project_include incs (Tree.of_value v) ])
  | S_project (P_include (_, _ :: _)) ->
    Error "computed $project fields are outside the navigational core"
  | S_project (P_exclude excs) ->
    Ok (fun v -> [ jnl_project_exclude excs (Tree.of_value v) ])
  | S_unwind (up, preserve) ->
    Ok (fun v -> jnl_unwind up preserve (Tree.of_value v))
  | S_group _ | S_sort _ | S_limit _ | S_skip _ | S_lookup _ ->
    Error "stage outside the navigational core ($match/$project/$unwind)"

let jnl_stages (pl : pipeline) =
  List.fold_right
    (fun s acc ->
      match (jnl_stage s, acc) with
      | Ok f, Ok fs -> Ok (f :: fs)
      | Error m, _ -> Error m
      | _, (Error _ as e) -> e)
    pl (Ok [])

let navigational pl = Result.is_ok (jnl_stages pl)

let run_via_jnl (pl : pipeline) (vs : Value.t list) =
  match jnl_stages pl with
  | Error _ as e -> e
  | Ok fns ->
    Ok (List.fold_left (fun ds f -> List.concat_map f ds) vs fns)
