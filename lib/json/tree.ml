type node = int

type kind =
  | Kobj
  | Karr
  | Kstr of string
  | Kint of int

type edge = Root | Key of string | Pos of int

(* Label index: the edge relations [O] and [A] grouped by label, so
   that backward (pre-image) navigation over one step touches only the
   edges carrying that label instead of sweeping all nodes.  Built
   lazily on first use; every bucket lists nodes in preorder. *)
type label_index = {
  by_key : (string, node array) Hashtbl.t;
      (* key w -> nodes whose incoming edge is [Key w] *)
  by_pos : node array array;
      (* position p -> nodes whose incoming edge is [Pos p];
         length = maximum arity over the tree *)
}

type t = {
  kinds : kind array;
  child_nodes : node array array;  (* children in document order *)
  child_keys : string array array;  (* keys, empty for non-objects *)
  parents : node array;  (* -1 for the root *)
  edges : edge array;
  sizes : int array;
  heights : int array;
  depths : int array;
  hashes : int array;
  by_key : (node * string, node) Hashtbl.t;  (* O(1) key lookup *)
  mutable index : label_index option;  (* built lazily *)
}

let root = 0

(* Structural hashing: must agree with Value.hash-style equality, i.e.
   insensitive to object pair order.  We fold children of objects in
   key-sorted order; hash mixing matches no external format, it only has
   to be internally consistent. *)
let mix h x = (h * 0x01000193) lxor x land max_int

(* Sort the parallel segments [a.(lo..hi)], [b.(lo..hi)] by (a, b)
   lexicographically — the order [Array.sort Stdlib.compare] gives
   (int * int) pairs, without allocating the pairs.  Pairs comparing
   equal are componentwise equal, so the object-hash fold below is
   insensitive to how ties land. *)
let rec sort_pairs a b lo hi =
  if hi - lo < 12 then
    for i = lo + 1 to hi do
      let ka = a.(i) and kb = b.(i) in
      let j = ref (i - 1) in
      while !j >= lo && (a.(!j) > ka || (a.(!j) = ka && b.(!j) > kb)) do
        a.(!j + 1) <- a.(!j);
        b.(!j + 1) <- b.(!j);
        decr j
      done;
      a.(!j + 1) <- ka;
      b.(!j + 1) <- kb
    done
  else begin
    let mid = (lo + hi) / 2 in
    let pa = a.(mid) and pb = b.(mid) in
    let swap i j =
      let ta = a.(i) and tb = b.(i) in
      a.(i) <- a.(j);
      b.(i) <- b.(j);
      a.(j) <- ta;
      b.(j) <- tb
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pa || (a.(!i) = pa && b.(!i) < pb) do incr i done;
      while a.(!j) > pa || (a.(!j) = pa && b.(!j) > pb) do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    sort_pairs a b lo !j;
    sort_pairs a b !i hi
  end

let of_value ?(budget = Obs.Budget.unlimited) v =
  let n = Value.size v in
  let kinds = Array.make n Kobj in
  let child_nodes = Array.make n [||] in
  let child_keys = Array.make n [||] in
  let parents = Array.make n (-1) in
  let edges = Array.make n Root in
  let sizes = Array.make n 1 in
  let heights = Array.make n 0 in
  let depths = Array.make n 0 in
  let hashes = Array.make n 0 in
  let by_key = Hashtbl.create (max 16 n) in
  let counter = ref 0 in
  let fresh () =
    let id = !counter in
    incr counter;
    id
  in
  (* Returns (id, size, height, hash) of the built subtree. *)
  let rec build v parent edge depth =
    Obs.Budget.check_depth budget depth;
    Obs.Budget.burn budget 1;
    let id = fresh () in
    parents.(id) <- parent;
    edges.(id) <- edge;
    depths.(id) <- depth;
    match v with
    | Value.Num k ->
      if k < 0 then raise (Value.Invalid "negative number in tree");
      kinds.(id) <- Kint k;
      hashes.(id) <- mix (mix 0x811c9dc5 1) k;
      (id, 1, 0, hashes.(id))
    | Value.Str s ->
      kinds.(id) <- Kstr s;
      hashes.(id) <- mix (mix 0x811c9dc5 2) (Hashtbl.hash s);
      (id, 1, 0, hashes.(id))
    | Value.Arr vs ->
      kinds.(id) <- Karr;
      let kids = Array.make (List.length vs) 0 in
      let sz = ref 1 and ht = ref 0 and h = ref (mix 0x811c9dc5 3) in
      List.iteri
        (fun i v ->
          let cid, csz, cht, chash = build v id (Pos i) (depth + 1) in
          kids.(i) <- cid;
          sz := !sz + csz;
          ht := max !ht (cht + 1);
          h := mix !h chash)
        vs;
      child_nodes.(id) <- kids;
      sizes.(id) <- !sz;
      heights.(id) <- !ht;
      hashes.(id) <- !h;
      (id, !sz, !ht, !h)
    | Value.Obj kvs ->
      kinds.(id) <- Kobj;
      let m = List.length kvs in
      let kids = Array.make m 0 in
      let keys = Array.make m "" in
      let sz = ref 1 and ht = ref 0 in
      let khashes = Array.make m 0 in
      let vhashes = Array.make m 0 in
      List.iteri
        (fun i (k, v) ->
          if Hashtbl.mem by_key (id, k) then
            raise (Value.Invalid (Printf.sprintf "duplicate key %S" k));
          let cid, csz, cht, chash = build v id (Key k) (depth + 1) in
          kids.(i) <- cid;
          keys.(i) <- k;
          Hashtbl.add by_key (id, k) cid;
          sz := !sz + csz;
          ht := max !ht (cht + 1);
          khashes.(i) <- Hashtbl.hash k;
          vhashes.(i) <- chash)
        kvs;
      (* order-insensitive: fold pair hashes in sorted order *)
      sort_pairs khashes vhashes 0 (m - 1);
      let h = ref (mix 0x811c9dc5 4) in
      for i = 0 to m - 1 do
        h := mix (mix !h khashes.(i)) vhashes.(i)
      done;
      let h = !h in
      child_nodes.(id) <- kids;
      child_keys.(id) <- keys;
      sizes.(id) <- !sz;
      heights.(id) <- !ht;
      hashes.(id) <- h;
      (id, !sz, !ht, h)
  in
  let _ = build v (-1) Root 0 in
  { kinds; child_nodes; child_keys; parents; edges; sizes; heights; depths;
    hashes; by_key; index = None }

(* ---- direct string ingestion --------------------------------------------- *)

(* Growable array: the node count is unknown until the single pass over
   the input completes.  Capacity doubles; [vec_trim] returns the dense
   prefix. *)
type 'a vec = { mutable data : 'a array; mutable len : int; filler : 'a }

let vec ?(capacity = 256) filler =
  { data = Array.make (max 16 capacity) filler; len = 0; filler }

let vec_push v x =
  let cap = Array.length v.data in
  if v.len = cap then begin
    let data = Array.make (2 * cap) v.filler in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* Column store under construction: all node columns share one length
   and one capacity, so admitting a node is a single capacity check.
   Fresh slots keep their fillers ([Kobj]/[1]/[0]/[[||]]) and every
   slot is written at most once per parse, so each node only writes
   the columns whose filler is wrong for it — three stores for a
   container on entry, five for a leaf. *)
type builder = {
  mutable b_cap : int;
  mutable b_n : int;
  mutable b_kinds : kind array;
  mutable b_parents : int array;
  mutable b_edges : edge array;
  mutable b_sizes : int array;
  mutable b_heights : int array;
  mutable b_depths : int array;
  mutable b_hashes : int array;
  mutable b_children : node array array;
  mutable b_keys : string array array;
}

let builder capacity =
  let cap = max 16 capacity in
  { b_cap = cap;
    b_n = 0;
    b_kinds = Array.make cap Kobj;
    b_parents = Array.make cap (-1);
    b_edges = Array.make cap Root;
    b_sizes = Array.make cap 1;
    b_heights = Array.make cap 0;
    b_depths = Array.make cap 0;
    b_hashes = Array.make cap 0;
    b_children = Array.make cap [||];
    b_keys = Array.make cap [||] }

let builder_grow b =
  let cap = 2 * b.b_cap in
  let copy filler a =
    let d = Array.make cap filler in
    Array.blit a 0 d 0 b.b_n;
    d
  in
  b.b_kinds <- copy Kobj b.b_kinds;
  b.b_parents <- copy (-1) b.b_parents;
  b.b_edges <- copy Root b.b_edges;
  b.b_sizes <- copy 1 b.b_sizes;
  b.b_heights <- copy 0 b.b_heights;
  b.b_depths <- copy 0 b.b_depths;
  b.b_hashes <- copy 0 b.b_hashes;
  b.b_children <- copy [||] b.b_children;
  b.b_keys <- copy [||] b.b_keys;
  b.b_cap <- cap

let new_node b parent edge depth =
  if b.b_n = b.b_cap then builder_grow b;
  let id = b.b_n in
  b.b_parents.(id) <- parent;
  b.b_edges.(id) <- edge;
  b.b_depths.(id) <- depth;
  b.b_n <- id + 1;
  id

(* One fused pass: lexing, syntax checking and tree construction, with
   tokens consumed straight off the lexer and every node emitted into
   the flat preorder arrays as it is entered — no token list, no
   [Value.t] intermediate, no separate [Value.size] pre-pass.  Nodes
   are numbered in preorder by construction (JSON text {e is} a
   preorder traversal), so a subtree's size is simply the id counter's
   travel across it.  Positions, error messages and literal-mode
   handling reuse the {!Parser} helpers verbatim, which is what makes
   this route differentially testable against
   [of_value (Parser.parse_exn input)]. *)
let build_of_lexer ~mode ~base_depth ~budget ~capacity lx =
  (* [capacity] sizes the node columns, the key table and the child
     stacks; all three double when outgrown.  Over-estimates only cost
     transient memory (the trim below returns the dense prefix);
     under-estimates only cost doublings. *)
  let b = builder capacity in
  let by_key = Hashtbl.create (max 16 (capacity / 2)) in
  (* Children of the container currently being filled sit on top of
     these shared stacks (their frame base is the stack length at
     container entry), and are cut into the exact per-node arrays when
     the container closes — no per-child list cells.  The key stacks
     grow only in objects, the id stack in both container kinds, so
     their frame bases differ. *)
  let stack_capacity = min 256 capacity in
  let st_ids = vec ~capacity:stack_capacity 0 in
  let st_keys = vec ~capacity:stack_capacity "" in
  let st_khash = vec ~capacity:stack_capacity 0 in
  let st_vhash = vec ~capacity:stack_capacity 0 in
  let rec value parent edge depth =
    let k = Lexer.next_kind lx in
    (* Budget parity with the two-stage route: one guard accounts both
       the parse unit and the tree-construction unit that [of_value]
       burns per node, positioned at the value's first token exactly
       like the parser's peek-then-guard. *)
    Parser.guard ~units:2 budget lx depth;
    Obs.Metrics.incr "parse.values";
    (* stored depths are tree-relative; [depth] itself stays absolute so
       the ceiling applies to real document nesting when a spill starts
       [base_depth] levels down *)
    let id = new_node b parent edge (depth - base_depth) in
    (match k with
    | Lexer.K_lbrace -> obj id depth
    | Lexer.K_lbracket -> arr id depth
    | Lexer.K_nat -> set_int id (Lexer.int_value lx)
    | Lexer.K_string -> set_str id (Lexer.string_value lx)
    | Lexer.K_neg_int | Lexer.K_float | Lexer.K_true | Lexer.K_false
    | Lexer.K_null -> (
      match Parser.literal_atom mode lx k with
      | Parser.Int k -> set_int id k
      | Parser.Str s -> set_str id s)
    | Lexer.K_rbrace | Lexer.K_rbracket | Lexer.K_colon | Lexer.K_comma
    | Lexer.K_eof ->
      Parser.unexpected_at lx "a JSON value");
    id
  and set_int id k =
    b.b_kinds.(id) <- Kint k;
    b.b_hashes.(id) <- mix (mix 0x811c9dc5 1) k
  and set_str id s =
    b.b_kinds.(id) <- Kstr s;
    b.b_hashes.(id) <- mix (mix 0x811c9dc5 2) (Hashtbl.hash s)
  and obj id depth =
    let base = st_ids.len and kbase = st_keys.len in
    let ht = ref 0 in
    let rec members () =
      match Lexer.next_kind lx with
      | Lexer.K_string ->
        let key = Lexer.string_value lx in
        if Hashtbl.mem by_key (id, key) then
          Parser.fail_at lx "duplicate object key %S" key;
        Parser.expect_colon lx;
        let cid = value id (Key key) (depth + 1) in
        Hashtbl.add by_key (id, key) cid;
        vec_push st_ids cid;
        vec_push st_keys key;
        vec_push st_khash (Hashtbl.hash key);
        vec_push st_vhash b.b_hashes.(cid);
        if b.b_heights.(cid) >= !ht then ht := b.b_heights.(cid) + 1;
        (match Lexer.next_kind lx with
        | Lexer.K_comma -> members ()
        | Lexer.K_rbrace -> ()
        | _ -> Parser.unexpected_at lx "',' or '}'")
      | _ -> Parser.unexpected_at lx "a string key"
    in
    (match Lexer.peek_kind lx with
    | Lexer.K_rbrace -> ignore (Lexer.next_kind lx)
    | _ -> members ());
    let m = st_ids.len - base in
    if m > 0 then begin
      b.b_children.(id) <- Array.sub st_ids.data base m;
      b.b_keys.(id) <- Array.sub st_keys.data kbase m
    end;
    (* order-insensitive: fold pair hashes in sorted order, as of_value *)
    sort_pairs st_khash.data st_vhash.data kbase (kbase + m - 1);
    let h = ref (mix 0x811c9dc5 4) in
    for i = kbase to kbase + m - 1 do
      h := mix (mix !h st_khash.data.(i)) st_vhash.data.(i)
    done;
    b.b_hashes.(id) <- !h;
    st_ids.len <- base;
    st_keys.len <- kbase;
    st_khash.len <- kbase;
    st_vhash.len <- kbase;
    b.b_sizes.(id) <- b.b_n - id;
    b.b_heights.(id) <- !ht
  and arr id depth =
    b.b_kinds.(id) <- Karr;
    let base = st_ids.len in
    let ht = ref 0 in
    let h = ref (mix 0x811c9dc5 3) in
    let rec elements () =
      let cid = value id (Pos (st_ids.len - base)) (depth + 1) in
      vec_push st_ids cid;
      if b.b_heights.(cid) >= !ht then ht := b.b_heights.(cid) + 1;
      h := mix !h b.b_hashes.(cid);
      match Lexer.next_kind lx with
      | Lexer.K_comma -> elements ()
      | Lexer.K_rbracket -> ()
      | _ -> Parser.unexpected_at lx "',' or ']'"
    in
    (match Lexer.peek_kind lx with
    | Lexer.K_rbracket -> ignore (Lexer.next_kind lx)
    | _ -> elements ());
    let m = st_ids.len - base in
    if m > 0 then b.b_children.(id) <- Array.sub st_ids.data base m;
    st_ids.len <- base;
    b.b_hashes.(id) <- !h;
    b.b_sizes.(id) <- b.b_n - id;
    b.b_heights.(id) <- !ht
  in
  ignore (value (-1) Root base_depth);
  let trim : 'a. 'a array -> 'a array =
   fun a -> if Array.length a = b.b_n then a else Array.sub a 0 b.b_n
  in
  { kinds = trim b.b_kinds;
    child_nodes = trim b.b_children;
    child_keys = trim b.b_keys;
    parents = trim b.b_parents;
    edges = trim b.b_edges;
    sizes = trim b.b_sizes;
    heights = trim b.b_heights;
    depths = trim b.b_depths;
    hashes = trim b.b_hashes;
    by_key;
    index = None }

(* One value off a longer stream: nothing but the value itself bounds
   its size, so start small rather than from the rest of the input. *)
let of_lexer_exn ?(mode = `Strict) ?(base_depth = 0) ~budget lx =
  build_of_lexer ~mode ~base_depth ~budget ~capacity:16 lx

let of_string_exn ?(mode = `Strict) ?max_depth ?budget input =
  let budget = Parser.budget_of budget max_depth in
  let lx = Lexer.create input in
  (* the whole input is one value.  Records run 9–14 input bytes per
     node: one node per 12 bytes keeps the columns of a record up to
     3 KB under the minor heap's 256-word limit (an array above it is
     allocated straight into the major heap, and trimmed there), at the
     price of one doubling on the denser ones *)
  let t =
    build_of_lexer ~mode ~base_depth:0 ~budget
      ~capacity:(String.length input / 12) lx
  in
  Parser.expect_eof lx;
  Obs.Metrics.add "parse.direct.bytes" (String.length input);
  Obs.Metrics.incr "parse.direct.docs";
  t

let of_string ?mode ?max_depth ?budget input =
  Parser.wrap (fun () -> of_string_exn ?mode ?max_depth ?budget input)

let node_count t = Array.length t.kinds
let kind t n = t.kinds.(n)
let is_obj t n = match t.kinds.(n) with Kobj -> true | _ -> false
let is_arr t n = match t.kinds.(n) with Karr -> true | _ -> false
let is_str t n = match t.kinds.(n) with Kstr _ -> true | _ -> false
let is_int t n = match t.kinds.(n) with Kint _ -> true | _ -> false
let str_value t n = match t.kinds.(n) with Kstr s -> Some s | _ -> None
let int_value t n = match t.kinds.(n) with Kint k -> Some k | _ -> None

let obj_children t n =
  match t.kinds.(n) with
  | Kobj ->
    let kids = t.child_nodes.(n) and keys = t.child_keys.(n) in
    List.init (Array.length kids) (fun i -> (keys.(i), kids.(i)))
  | Karr | Kstr _ | Kint _ -> []

let arr_children t n =
  match t.kinds.(n) with
  | Karr -> t.child_nodes.(n)
  | Kobj | Kstr _ | Kint _ -> [||]

let children t n = Array.to_list t.child_nodes.(n)
let arity t n = Array.length t.child_nodes.(n)
let child_ids t n = t.child_nodes.(n)

let obj_keys t n =
  match t.kinds.(n) with
  | Kobj -> t.child_keys.(n)
  | Karr | Kstr _ | Kint _ -> [||]

let lookup t n k =
  match t.kinds.(n) with
  | Kobj -> Hashtbl.find_opt t.by_key (n, k)
  | Karr | Kstr _ | Kint _ -> None

let nth t n i =
  match t.kinds.(n) with
  | Karr ->
    let kids = t.child_nodes.(n) in
    let len = Array.length kids in
    let i = if i < 0 then len + i else i in
    if i < 0 || i >= len then None else Some kids.(i)
  | Kobj | Kstr _ | Kint _ -> None

let parent t n = if t.parents.(n) < 0 then None else Some t.parents.(n)
let parent_id t n = t.parents.(n)
let edge_from_parent t n = t.edges.(n)

(* ---- label index -------------------------------------------------------- *)

let build_index ?(budget = Obs.Budget.unlimited) t =
  match t.index with
  | Some _ -> ()
  | None ->
    Obs.Metrics.span "tree.index.build" (fun () ->
        let n = Array.length t.kinds in
        (* one fuel unit per node: a single bucketing pass *)
        Obs.Budget.burn budget n;
        Obs.Metrics.incr "tree.index.builds";
        let key_buckets : (string, node list) Hashtbl.t = Hashtbl.create 64 in
        let max_ar =
          Array.fold_left
            (fun m kids -> max m (Array.length kids))
            0 t.child_nodes
        in
        let pos_buckets = Array.make max_ar [] in
        (* descending pass so each (consed) bucket ends up in preorder *)
        for nd = n - 1 downto 0 do
          match t.edges.(nd) with
          | Root -> ()
          | Key k ->
            let prev =
              match Hashtbl.find_opt key_buckets k with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace key_buckets k (nd :: prev)
          | Pos p -> pos_buckets.(p) <- nd :: pos_buckets.(p)
        done;
        let by_key = Hashtbl.create (max 16 (Hashtbl.length key_buckets)) in
        Hashtbl.iter
          (fun k l -> Hashtbl.replace by_key k (Array.of_list l))
          key_buckets;
        t.index <-
          Some { by_key; by_pos = Array.map Array.of_list pos_buckets })

let index t =
  match t.index with
  | Some i -> i
  | None ->
    build_index t;
    (match t.index with Some i -> i | None -> assert false)

let key_index t k =
  match Hashtbl.find_opt (index t).by_key k with
  | Some a -> a
  | None -> [||]

let pos_index t p =
  let i = index t in
  if p < 0 || p >= Array.length i.by_pos then [||] else i.by_pos.(p)

let iter_key_index f t = Hashtbl.iter f (index t).by_key
let size t n = t.sizes.(n)
let height_of t n = t.heights.(n)
let height t = t.heights.(root)
let depth t n = t.depths.(n)
let subtree_hash t n = t.hashes.(n)

let rec value_at t n =
  match t.kinds.(n) with
  | Kint k -> Value.Num k
  | Kstr s -> Value.Str s
  | Karr -> Value.Arr (List.map (value_at t) (children t n))
  | Kobj -> Value.Obj (List.map (fun (k, c) -> (k, value_at t c)) (obj_children t n))

let to_value t = value_at t root

(* Rebuild the whole document with json(n) replaced by [v]: only the
   root-to-n spine is reconstructed, siblings are converted with
   [value_at] — O(|D|) total, no intermediate tree. *)
let substitute t n v =
  let rec up n v =
    if n = root then v
    else
      let p = t.parents.(n) in
      let rebuilt =
        match t.kinds.(p) with
        | Kobj ->
          Value.Obj
            (List.map
               (fun (k, c) -> (k, if c = n then v else value_at t c))
               (obj_children t p))
        | Karr ->
          Value.Arr
            (List.map (fun c -> if c = n then v else value_at t c) (children t p))
        | Kstr _ | Kint _ -> assert false (* atoms have no children *)
      in
      up p rebuilt
  in
  if n < 0 || n >= node_count t then invalid_arg "Tree.substitute: bad node"
  else up n v

(* Structural walk deciding json(n1) = json(n2) across trees t1/t2. *)
let rec structural_equal t1 n1 t2 n2 =
  match (t1.kinds.(n1), t2.kinds.(n2)) with
  | Kint a, Kint b -> a = b
  | Kstr a, Kstr b -> String.equal a b
  | Karr, Karr ->
    let k1 = t1.child_nodes.(n1) and k2 = t2.child_nodes.(n2) in
    Array.length k1 = Array.length k2
    &&
    let rec go i =
      i >= Array.length k1
      || (structural_equal t1 k1.(i) t2 k2.(i) && go (i + 1))
    in
    go 0
  | Kobj, Kobj ->
    let k1 = t1.child_nodes.(n1) and k2 = t2.child_nodes.(n2) in
    Array.length k1 = Array.length k2
    &&
    let keys1 = t1.child_keys.(n1) in
    let rec go i =
      i >= Array.length k1
      ||
      match lookup t2 n2 keys1.(i) with
      | None -> false
      | Some c2 -> structural_equal t1 k1.(i) t2 c2 && go (i + 1)
    in
    go 0
  | (Kobj | Karr | Kstr _ | Kint _), _ -> false

let equal_across t1 n1 t2 n2 =
  t1.hashes.(n1) = t2.hashes.(n2)
  && t1.sizes.(n1) = t2.sizes.(n2)
  && structural_equal t1 n1 t2 n2

let equal_subtrees t n1 n2 = n1 = n2 || equal_across t n1 t n2

(* Compare a subtree against a constant value without materializing the
   value of the subtree. *)
let rec equal_value_walk t n (v : Value.t) =
  match (t.kinds.(n), v) with
  | Kint a, Value.Num b -> a = b
  | Kstr a, Value.Str b -> String.equal a b
  | Karr, Value.Arr vs ->
    let kids = t.child_nodes.(n) in
    List.length vs = Array.length kids
    && List.for_all2
         (fun c v -> equal_value_walk t c v)
         (Array.to_list kids) vs
  | Kobj, Value.Obj kvs ->
    arity t n = List.length kvs
    && List.for_all
         (fun (k, v) ->
           match lookup t n k with
           | None -> false
           | Some c -> equal_value_walk t c v)
         kvs
  | (Kobj | Karr | Kstr _ | Kint _), _ -> false

let equal_to_value t n v =
  size t n = Value.size v && equal_value_walk t n v

let nodes t = Seq.init (node_count t) Fun.id
let iter f t = Seq.iter f (nodes t)

let nodes_by_height t =
  let h = height t in
  let buckets = Array.make (h + 1) [] in
  (* reverse preorder keeps each bucket in preorder *)
  for n = node_count t - 1 downto 0 do
    buckets.(t.heights.(n)) <- n :: buckets.(t.heights.(n))
  done;
  buckets

let address t n =
  let rec go n acc =
    match t.edges.(n) with
    | Root -> acc
    | Pos i -> go t.parents.(n) (i :: acc)
    | Key k ->
      (* position of the key among the parent's children *)
      let keys = t.child_keys.(t.parents.(n)) in
      let rec find i = if keys.(i) = k then i else find (i + 1) in
      go t.parents.(n) (find 0 :: acc)
  in
  go n []

let pp_node t fmt n =
  let addr = address t n in
  Format.fprintf fmt "@[<h>/%s: %s@]"
    (String.concat "/" (List.map string_of_int addr))
    (match t.kinds.(n) with
    | Kobj -> Printf.sprintf "object(%d children)" (arity t n)
    | Karr -> Printf.sprintf "array(%d elements)" (arity t n)
    | Kstr s -> Printf.sprintf "string %S" s
    | Kint k -> Printf.sprintf "number %d" k)
