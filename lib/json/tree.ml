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

module Int_map = Map.Make (Int)

(* What is built on first use, one whole column (or one object's key
   table) at a time.  A column is [[||]] until built: a tree has at
   least its root, so a built column is never empty.  The record is
   immutable and replaced whole through the tree's one [Atomic], so a
   domain that reads a column reads it filled. *)
type derived = {
  hashes : int array;
  heights : int array;
  depths : int array;
  index : label_index option;
  wide : int array Int_map.t;
      (* object -> open-addressing table of child positions, for
         objects with more than [scan_keys] keys *)
}

let no_derived =
  { hashes = [||]; heights = [||]; depths = [||]; index = None;
    wide = Int_map.empty }

(* The structure every reader uses, built at parse time.  Columns may
   be longer than [n] (a builder's capacity is kept rather than copied
   to length); only the first [n] slots are nodes. *)
type t = {
  n : int;
  kinds : kind array;
  child_nodes : node array array;  (* children in document order *)
  child_keys : string array array;  (* keys, empty for non-objects *)
  parents : node array;  (* -1 for the root *)
  edges : edge array;
  sizes : int array;
  derived : derived Atomic.t;
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

let make n kinds child_nodes child_keys parents edges sizes =
  { n; kinds; child_nodes; child_keys; parents; edges; sizes;
    derived = Atomic.make no_derived }

(* Publish one more built part.  Losing a race only means another
   domain published first; both built the same values. *)
let rec publish t f =
  let d = Atomic.get t.derived in
  if not (Atomic.compare_and_set t.derived d (f d)) then publish t f

(* Duplicate detection hashes keys the way the lexer's cursor does. *)
let key_hash = Lexer.hash_string

let of_value ?(budget = Obs.Budget.unlimited) v =
  let n = Value.size v in
  let kinds = Array.make n Kobj in
  let child_nodes = Array.make n [||] in
  let child_keys = Array.make n [||] in
  let parents = Array.make n (-1) in
  let edges = Array.make n Root in
  let sizes = Array.make n 1 in
  let keys = lazy (Keyset.create ()) in
  let counter = ref 0 in
  let rec build v parent edge depth =
    Obs.Budget.check_depth budget depth;
    Obs.Budget.burn budget 1;
    let id = !counter in
    incr counter;
    parents.(id) <- parent;
    edges.(id) <- edge;
    (match v with
    | Value.Num k ->
      if k < 0 then raise (Value.Invalid "negative number in tree");
      kinds.(id) <- Kint k
    | Value.Str s -> kinds.(id) <- Kstr s
    | Value.Arr vs ->
      kinds.(id) <- Karr;
      let kids = Array.make (List.length vs) 0 in
      List.iteri (fun i v -> kids.(i) <- build v id (Pos i) (depth + 1)) vs;
      child_nodes.(id) <- kids
    | Value.Obj kvs ->
      let keys = Lazy.force keys in
      let mark = Keyset.mark keys in
      let m = List.length kvs in
      let kids = Array.make m 0 and ks = Array.make m "" in
      List.iteri
        (fun i (k, v) ->
          if not (Keyset.add keys mark (key_hash k) k) then
            raise (Value.Invalid (Printf.sprintf "duplicate key %S" k));
          kids.(i) <- build v id (Key k) (depth + 1);
          ks.(i) <- k)
        kvs;
      Keyset.release keys mark;
      child_nodes.(id) <- kids;
      child_keys.(id) <- ks);
    sizes.(id) <- !counter - id;
    id
  in
  ignore (build v (-1) Root 0);
  make n kinds child_nodes child_keys parents edges sizes

(* ---- direct string ingestion --------------------------------------------- *)

(* Growable array: the node count is unknown until the single pass over
   the input completes.  Capacity doubles. *)
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
   Fresh slots keep their fillers ([Kobj]/[1]/[[||]]) and every slot is
   written at most once per parse, so each node only writes the columns
   whose filler is wrong for it — two stores for a container on entry,
   three for a leaf. *)
type builder = {
  mutable b_cap : int;
  mutable b_n : int;
  mutable b_kinds : kind array;
  mutable b_parents : int array;
  mutable b_edges : edge array;
  mutable b_sizes : int array;
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
  b.b_children <- copy [||] b.b_children;
  b.b_keys <- copy [||] b.b_keys;
  b.b_cap <- cap

let new_node b parent edge =
  if b.b_n = b.b_cap then builder_grow b;
  let id = b.b_n in
  b.b_parents.(id) <- parent;
  b.b_edges.(id) <- edge;
  b.b_n <- id + 1;
  id

(* One fused pass: lexing, syntax checking and tree construction, with
   tokens consumed straight off the lexer and every node emitted into
   the flat preorder arrays as it is entered — no token list, no
   [Value.t] intermediate, no separate [Value.size] pre-pass.  Nodes
   are numbered in preorder by construction (JSON text {e is} a
   preorder traversal), so a subtree's size is simply the id counter's
   travel across it.  Positions, error messages and (strict) literal
   admission reuse the {!Parser} helpers verbatim, which is what makes
   this route differentially testable against
   [of_value (Parser.parse_exn input)]. *)
let build_of_lexer ~base_depth ~budget ~keys ~capacity lx =
  (* [capacity] sizes the node columns and the child stacks; both
     double when outgrown.  The columns are kept at their capacity, so
     an over-estimate costs only memory and an under-estimate only
     doublings. *)
  let b = builder capacity in
  (* Children of the container currently being filled sit on top of
     these shared stacks (their frame base is the stack length at
     container entry), and are cut into the exact per-node arrays when
     the container closes — no per-child list cells.  The key stack
     grows only in objects, the id stack in both container kinds, so
     their frame bases differ. *)
  let stack_capacity = min 256 capacity in
  let st_ids = vec ~capacity:stack_capacity 0 in
  let st_keys = vec ~capacity:stack_capacity "" in
  let rec value parent edge depth =
    let k = Lexer.next_kind lx in
    (* Budget parity with the two-stage route: one guard accounts both
       the parse unit and the tree-construction unit that [of_value]
       burns per node, positioned at the value's first token exactly
       like the parser's peek-then-guard.  [depth] is absolute, so the
       ceiling applies to real document nesting when a spill starts
       [base_depth] levels down. *)
    Parser.guard ~units:2 budget lx depth;
    Obs.Metrics.incr "parse.values";
    let id = new_node b parent edge in
    (match k with
    | Lexer.K_lbrace -> obj id depth
    | Lexer.K_lbracket -> arr id depth
    | Lexer.K_nat -> b.b_kinds.(id) <- Kint (Lexer.int_value lx)
    | Lexer.K_string -> b.b_kinds.(id) <- Kstr (Lexer.string_value lx)
    | Lexer.K_neg_int | Lexer.K_float | Lexer.K_true | Lexer.K_false
    | Lexer.K_null ->
      b.b_kinds.(id) <-
        (match Parser.literal_atom `Strict lx k with
        | Parser.Int k -> Kint k
        | Parser.Str s -> Kstr s)
    | Lexer.K_rbrace | Lexer.K_rbracket | Lexer.K_colon | Lexer.K_comma
    | Lexer.K_eof ->
      Parser.unexpected_at lx "a JSON value");
    id
  and obj id depth =
    let base = st_ids.len and kbase = st_keys.len in
    let mark = Keyset.mark keys in
    let rec members () =
      match Lexer.next_kind lx with
      | Lexer.K_string ->
        let h = Lexer.string_hash lx in
        let key = Lexer.string_value lx in
        if not (Keyset.add keys mark h key) then
          Parser.fail_at lx "duplicate object key %S" key;
        Parser.expect_colon lx;
        vec_push st_ids (value id (Key key) (depth + 1));
        vec_push st_keys key;
        (match Lexer.next_kind lx with
        | Lexer.K_comma -> members ()
        | Lexer.K_rbrace -> ()
        | _ -> Parser.unexpected_at lx "',' or '}'")
      | _ -> Parser.unexpected_at lx "a string key"
    in
    (match Lexer.peek_kind lx with
    | Lexer.K_rbrace -> ignore (Lexer.next_kind lx)
    | _ -> members ());
    Keyset.release keys mark;
    let m = st_ids.len - base in
    if m > 0 then begin
      b.b_children.(id) <- Array.sub st_ids.data base m;
      b.b_keys.(id) <- Array.sub st_keys.data kbase m
    end;
    st_ids.len <- base;
    st_keys.len <- kbase;
    b.b_sizes.(id) <- b.b_n - id
  and arr id depth =
    b.b_kinds.(id) <- Karr;
    let base = st_ids.len in
    let rec elements () =
      vec_push st_ids (value id (Pos (st_ids.len - base)) (depth + 1));
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
    b.b_sizes.(id) <- b.b_n - id
  in
  ignore (value (-1) Root base_depth);
  make b.b_n b.b_kinds b.b_children b.b_keys b.b_parents b.b_edges b.b_sizes

(* One value off a longer stream: nothing but the value itself bounds
   its size, so start small rather than from the rest of the input. *)
let of_lexer_exn ?(base_depth = 0) ?(keys = Keyset.create ()) ~budget lx =
  build_of_lexer ~base_depth ~budget ~keys ~capacity:16 lx

let of_string_exn ?budget input =
  let budget = Parser.budget_of budget in
  let lx = Lexer.create input in
  (* the whole input is one value.  Records run 9–14 input bytes per
     node: one node per 12 bytes keeps the columns of a record up to
     3 KB under the minor heap's 256-word limit (an array above it is
     allocated straight into the major heap), at the price of one
     doubling on the denser ones *)
  let t =
    build_of_lexer ~base_depth:0 ~budget ~keys:(Keyset.create ())
      ~capacity:(String.length input / 12) lx
  in
  Parser.expect_eof lx;
  Obs.Metrics.add "parse.direct.bytes" (String.length input);
  Obs.Metrics.incr "parse.direct.docs";
  t

let of_string ?budget input =
  Parser.wrap (fun () -> of_string_exn ?budget input)

let node_count t = t.n
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

let arity t n = Array.length t.child_nodes.(n)
let child_ids t n = t.child_nodes.(n)

let obj_keys t n =
  match t.kinds.(n) with
  | Kobj -> t.child_keys.(n)
  | Karr | Kstr _ | Kint _ -> [||]

(* ---- key lookup ---------------------------------------------------------- *)

(* Objects up to this many keys are scanned; a wider one gets a table
   of its own on its first lookup. *)
let scan_keys = 16

let rec scan keys k i =
  if i >= Array.length keys then -1
  else if String.equal (Array.unsafe_get keys i) k then i
  else scan keys k (i + 1)

(* Linear probing over the positions of [keys], at most half full:
   slot [-1] is empty. *)
let key_table keys =
  let m = Array.length keys in
  let cap = ref 16 in
  while !cap < 2 * m do cap := 2 * !cap done;
  let slots = Array.make !cap (-1) in
  let mask = !cap - 1 in
  Array.iteri
    (fun i k ->
      let j = ref (key_hash k land mask) in
      while slots.(!j) >= 0 do j := (!j + 1) land mask done;
      slots.(!j) <- i)
    keys;
  slots

let rec probe slots keys k j =
  let i = Array.unsafe_get slots j in
  if i < 0 || String.equal keys.(i) k then i
  else probe slots keys k ((j + 1) land (Array.length slots - 1))

let wide_position t n k =
  let keys = t.child_keys.(n) in
  let slots =
    match Int_map.find_opt n (Atomic.get t.derived).wide with
    | Some slots -> slots
    | None ->
      let slots = key_table keys in
      publish t (fun d -> { d with wide = Int_map.add n slots d.wide });
      slots
  in
  probe slots keys k (key_hash k land (Array.length slots - 1))

let lookup t n k =
  match t.kinds.(n) with
  | Kobj ->
    let keys = t.child_keys.(n) in
    let i =
      if Array.length keys <= scan_keys then scan keys k 0
      else wide_position t n k
    in
    if i < 0 then None else Some t.child_nodes.(n).(i)
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
  match (Atomic.get t.derived).index with
  | Some _ -> ()
  | None ->
    Obs.Metrics.span "tree.index.build" (fun () ->
        let n = t.n in
        (* one fuel unit per node: a single bucketing pass *)
        Obs.Budget.burn budget n;
        Obs.Metrics.incr "tree.index.builds";
        let key_buckets : (string, node list) Hashtbl.t = Hashtbl.create 64 in
        let max_ar = ref 0 in
        for nd = 0 to n - 1 do
          max_ar := max !max_ar (Array.length t.child_nodes.(nd))
        done;
        let pos_buckets = Array.make !max_ar [] in
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
        let index = { by_key; by_pos = Array.map Array.of_list pos_buckets } in
        publish t (fun d -> { d with index = Some index }))

let rec index t =
  match (Atomic.get t.derived).index with
  | Some i -> i
  | None ->
    build_index t;
    index t

let key_index t k =
  match Hashtbl.find_opt (index t).by_key k with
  | Some a -> a
  | None -> [||]

let pos_index t p =
  let i = index t in
  if p < 0 || p >= Array.length i.by_pos then [||] else i.by_pos.(p)

let iter_key_index f t = Hashtbl.iter f (index t).by_key
let size t n = t.sizes.(n)

(* ---- columns built on first use ------------------------------------------ *)

let int_hash k = mix (mix 0x811c9dc5 1) k
let str_hash s = mix (mix 0x811c9dc5 2) (Hashtbl.hash s)

(* Children follow their parent in preorder, so one descending pass
   finds every child's hash ready. *)
let hash_column t =
  let hs = Array.make t.n 0 in
  let kh = ref [||] and vh = ref [||] in
  for i = t.n - 1 downto 0 do
    hs.(i) <-
      (match t.kinds.(i) with
      | Kint k -> int_hash k
      | Kstr s -> str_hash s
      | Karr ->
        Array.fold_left (fun h c -> mix h hs.(c)) (mix 0x811c9dc5 3)
          t.child_nodes.(i)
      | Kobj ->
        (* order-insensitive: fold pair hashes in sorted order *)
        let kids = t.child_nodes.(i) and keys = t.child_keys.(i) in
        let m = Array.length kids in
        if Array.length !kh < m then begin
          kh := Array.make m 0;
          vh := Array.make m 0
        end;
        let kh = !kh and vh = !vh in
        for j = 0 to m - 1 do
          kh.(j) <- Hashtbl.hash keys.(j);
          vh.(j) <- hs.(kids.(j))
        done;
        sort_pairs kh vh 0 (m - 1);
        let h = ref (mix 0x811c9dc5 4) in
        for j = 0 to m - 1 do
          h := mix (mix !h kh.(j)) vh.(j)
        done;
        !h)
  done;
  hs

let height_column t =
  let hs = Array.make t.n 0 in
  for i = t.n - 1 downto 1 do
    let p = t.parents.(i) in
    if hs.(i) >= hs.(p) then hs.(p) <- hs.(i) + 1
  done;
  hs

let depth_column t =
  let ds = Array.make t.n 0 in
  for i = 1 to t.n - 1 do
    ds.(i) <- ds.(t.parents.(i)) + 1
  done;
  ds

(* A column, built in full and published on first use. *)
let column get set build t =
  let c = get (Atomic.get t.derived) in
  if Array.length c > 0 then c
  else begin
    let c = build t in
    publish t (set c);
    c
  end

let hashes =
  column (fun d -> d.hashes) (fun c d -> { d with hashes = c }) hash_column

let heights =
  column (fun d -> d.heights) (fun c d -> { d with heights = c }) height_column

let depths =
  column (fun d -> d.depths) (fun c d -> { d with depths = c }) depth_column

let height_of t n = (heights t).(n)
let height t = (heights t).(root)
let depth t n = (depths t).(n)
(* A node without children hashes on the spot, so asking a leaf (a
   scalar [enum] or [EQ] constant) builds no column. *)
let subtree_hash t n =
  match t.kinds.(n) with
  | Kint k -> int_hash k
  | Kstr s -> str_hash s
  | Karr when Array.length t.child_nodes.(n) = 0 -> mix 0x811c9dc5 3
  | Kobj when Array.length t.child_nodes.(n) = 0 -> mix 0x811c9dc5 4
  | Kobj | Karr -> (hashes t).(n)

let rec value_at t n =
  match t.kinds.(n) with
  | Kint k -> Value.Num k
  | Kstr s -> Value.Str s
  | Karr -> Value.Arr (List.map (value_at t) (Array.to_list t.child_nodes.(n)))
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
            (List.map (fun c -> if c = n then v else value_at t c)
               (Array.to_list t.child_nodes.(p)))
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

(* Sizes first: they are built at parse time, hashes perhaps not, and
   a one-node subtree compares faster than it hashes. *)
let equal_across t1 n1 t2 n2 =
  let sz = t1.sizes.(n1) in
  sz = t2.sizes.(n2)
  && (sz = 1 || subtree_hash t1 n1 = subtree_hash t2 n2)
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
  let hs = heights t in
  let buckets = Array.make (hs.(root) + 1) [] in
  (* reverse preorder keeps each bucket in preorder *)
  for n = node_count t - 1 downto 0 do
    buckets.(hs.(n)) <- n :: buckets.(hs.(n))
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
