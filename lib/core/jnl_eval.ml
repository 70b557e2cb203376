module Tree = Jsont.Tree

(* ---- node stores --------------------------------------------------------- *)

module type STORE = Jnl_store.S

(* [sort_uniq a k]: the first [k] entries of [a], ascending and
   distinct — an insertion sort of ints below 16 entries, a merge sort
   above, no comparison closure either way.  [a] itself when that is
   the whole of it. *)
let sort_uniq a k =
  let a =
    if k <= 16 then begin
      for i = 1 to k - 1 do
        let x = a.(i) and j = ref (i - 1) in
        while !j >= 0 && a.(!j) > x do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      done;
      a
    end
    else begin
      let src = ref a and dst = ref (Array.make k 0) in
      let width = ref 1 in
      while !width < k do
        let lo = ref 0 in
        while !lo < k do
          let mid = min k (!lo + !width) and hi = min k (!lo + (2 * !width)) in
          let i = ref !lo and j = ref mid in
          for o = !lo to hi - 1 do
            if !i < mid && (!j >= hi || !src.(!i) <= !src.(!j)) then begin
              !dst.(o) <- !src.(!i);
              incr i
            end
            else begin
              !dst.(o) <- !src.(!j);
              incr j
            end
          done;
          lo := hi
        done;
        let t = !src in
        src := !dst;
        dst := t;
        width := 2 * !width
      done;
      !src
    end
  in
  let m = ref 0 in
  for i = 0 to k - 1 do
    if i = 0 || a.(i) <> a.(!m - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  if !m = Array.length a then a else Array.sub a 0 !m

(* ---- set-at-a-time evaluation over any store ----------------------------- *)

(* Budget accounting: each formula node and each non-deterministic
   path combinator (Alt, Test, Star) burns the store's connective fuel
   (the node count on a tree, one unit on the corpus index); formula
   recursion depth is checked against the budget's ceiling so
   adversarially deep formulas raise {!Obs.Budget.Exhausted} instead of
   [Stack_overflow].  A navigation step burns [1 + touched], where
   [touched] is the bucket or target members it walks. *)

module Make (S : STORE) = struct
  type ctx = {
    s : S.t;
    budget : Obs.Budget.t;
    memo : (Jnl.form, Bitset.t) Hashtbl.t;
    langs : (Rexp.Syntax.t, Rexp.Lang.t) Hashtbl.t;
    keys : (Rexp.Syntax.t, S.key list) Hashtbl.t;
    mutable reorders : int;
  }

  let context ?(budget = Obs.Budget.unlimited) s =
    { s; budget; memo = Hashtbl.create 16; langs = Hashtbl.create 8;
      keys = Hashtbl.create 8; reorders = 0 }

  let reorders ctx = ctx.reorders
  let n ctx = S.n_nodes ctx.s
  let burn ctx k = Obs.Budget.burn ctx.budget k

  let lang ctx e =
    match Hashtbl.find_opt ctx.langs e with
    | Some l -> l
    | None ->
      let l = Rexp.Lang.of_syntax e in
      Hashtbl.add ctx.langs e l;
      l

  (* prepares the store for a bucket walk (a tree builds its label
     index) so the work is charged to this budget *)
  let prepare ctx =
    S.prepare ctx.budget ctx.s;
    Obs.Metrics.incr "jnl.index.hit"

  (* the keys in L(e), off the key table once per context at one fuel
     unit per distinct key *)
  let matching_keys ctx e =
    match Hashtbl.find_opt ctx.keys e with
    | Some ks -> ks
    | None ->
      let l = lang ctx e and ks = ref [] in
      S.iter_keys ctx.s (fun k w ->
          burn ctx 1;
          if Rexp.Lang.matches l w then ks := k :: !ks);
      Hashtbl.add ctx.keys e !ks;
      !ks

  (* A pre-image target, kept symbolic while it is cheaper that way. *)
  type target =
    | All  (* every node: the target of [Exists] *)
    | Value of Jsont.Value.t  (* the nodes equal to a constant *)
    | Arrays of int  (* the arrays with at least that many elements *)
    | Set of Bitset.t * int  (* explicit, with its cardinality *)
    | Few of int array  (* explicit and small: distinct ids, ascending *)

  let set s = Set (s, Bitset.cardinal s)
  let empty = Few [||]

  let card = function
    | Set (_, c) -> c
    | Few a -> Array.length a
    | All | Value _ | Arrays _ -> max_int

  (* Does a step walking [w] members keep its result as a bitset?  Once
     sorting their parents would cost more than the bitset's words. *)
  let bulk ctx w =
    let rec log2 k = if k <= 1 then 0 else 1 + log2 (k lsr 1) in
    w * log2 w > (n ctx / Sys.int_size) + 1

  (* The parents of the (at most [w]) nodes [members] yields, as a
     sorted array. *)
  let few ctx w members =
    let a = Array.make w 0 and k = ref 0 in
    members (fun c ->
        let p = S.parent ctx.s c in
        if p >= 0 then begin
          a.(!k) <- p;
          incr k
        end);
    Few (sort_uniq a !k)

  let passes ctx keep c =
    match keep with
    | `All -> true
    | `In s -> Bitset.mem s c
    | `Element p -> S.has_element ctx.s c p

  (* parents of the bucket members passing [keep]: O(buckets) *)
  let via_buckets ctx bs keep =
    let w = List.fold_left (fun a b -> a + S.length b) 0 bs in
    burn ctx (1 + w);
    if bulk ctx w then begin
      let into = Bitset.create (n ctx) in
      List.iter (fun b -> S.bucket_parents ctx.s b keep into) bs;
      set into
    end
    else
      few ctx w (fun add ->
          List.iter
            (fun b -> S.iter ctx.s b (fun c -> if passes ctx keep c then add c))
            bs)

  let rec nodes ctx = function
    | All -> Bitset.full (n ctx)
    | Set (s, _) -> s
    | Few a ->
      let s = Bitset.create (n ctx) in
      Array.iter (Bitset.add s) a;
      s
    | Value v -> S.equal_nodes ctx.s ctx.budget v
    | Arrays a -> nodes ctx (via_buckets ctx [ S.pos_bucket ctx.s (a - 1) ] `All)

  let edge_passes ctx edge c =
    match edge with
    | `Key k -> S.is_key ctx.s c k
    | `Pos p -> S.edge_pos ctx.s c = p
    | `Test test -> test c

  (* parents of the target members whose incoming edge passes [edge]:
     O(target) *)
  let via_target ctx tgt edge =
    let tgt = match tgt with Set _ | Few _ -> tgt | t -> set (nodes ctx t) in
    let w = card tgt in
    burn ctx (1 + w);
    let walk add =
      let visit c = if edge_passes ctx edge c then add c in
      match tgt with
      | Few a -> Array.iter visit a
      | t -> Bitset.iter visit (nodes ctx t)
    in
    if bulk ctx w then begin
      let into = Bitset.create (n ctx) in
      (match (tgt, edge) with
      | Set (s, _), ((`Key _ | `Pos _) as e) -> S.edge_parents ctx.s s e into
      | _ ->
        walk (fun c ->
            let p = S.parent ctx.s c in
            if p >= 0 then Bitset.add into p));
      set into
    end
    else few ctx w walk

  (* One step through labelled edges: [buckets] lists them, [edge] names
     or tests one, [hint] names the label whose value postings can stand
     in for a [Value] target.  The smaller of bucket and target is
     walked; a [Value] target without value postings is materialized
     first, and the step still counts as one pre-image. *)
  let labelled ctx ~buckets ~edge ~hint tgt =
    prepare ctx;
    let rec step tgt =
      match tgt with
      | All -> via_buckets ctx (buckets ()) `All
      | Arrays a -> via_buckets ctx (buckets ()) (`Element (a - 1))
      | Value v -> (
        match Option.bind hint (fun h -> S.value_bucket ctx.s h v) with
        | Some b -> via_buckets ctx [ b ] `All
        | None -> step (set (nodes ctx tgt)))
      | Set _ | Few _ ->
        let bs = buckets () in
        if card tgt < List.fold_left (fun a b -> a + S.length b) 0 bs then
          via_target ctx tgt edge
        else via_buckets ctx bs (`In (nodes ctx tgt))
    in
    step tgt

  (* Any other array step.  Over every node it is the arrays whose
     arity falls in {!Jnl_step.arity_window}; otherwise the target is
     walked, resolving negative bounds against the parent's arity. *)
  let window ctx i j tgt =
    let arities = Hashtbl.create 8 in
    let len g =
      match Hashtbl.find_opt arities g with
      | Some l -> l
      | None ->
        let l = S.arity ctx.s g in
        Hashtbl.add arities g l;
        l
    in
    let nonneg = i >= 0 && match j with None -> true | Some j -> j >= 0 in
    let edge c =
      let q = S.edge_pos ctx.s c in
      q >= 0
      &&
      if nonneg then q >= i && match j with None -> true | Some j -> q <= j
      else if i = -1 && j = Some (-1) then S.last_child ctx.s c
      else Jnl_step.range_matches ~len:(len (S.parent ctx.s c)) ~pos:q i j
    in
    match tgt with
    | All -> (
      prepare ctx;
      match Jnl_step.arity_window i j with
      | None -> empty
      | Some (a, None) -> Arrays a
      | Some (a, Some b) ->
        set (Bitset.diff (nodes ctx (Arrays a)) (nodes ctx (Arrays (b + 1)))))
    | _ -> via_target ctx tgt (`Test edge)

  (* An upper bound on |⟦ϕ⟧| from bucket lengths alone: the planner's
     cost model.  Reads no postings entry and burns no fuel. *)
  let rec estimate ctx = function
    | Jnl.True | Jnl.Not _ | Jnl.Eq_paths _ -> n ctx
    | Jnl.And (a, b) -> min (estimate ctx a) (estimate ctx b)
    | Jnl.Or (a, b) -> min (n ctx) (estimate ctx a + estimate ctx b)
    | Jnl.Exists p -> est_path ctx p (n ctx)
    | Jnl.Eq_doc (p, v) -> est_value ctx p v

  and est_path ctx p k =
    match p with
    | Jnl.Self -> k
    | Jnl.Key w -> (
      match S.find_key ctx.s w with
      | None -> 0
      | Some key -> min k (S.length (S.key_bucket ctx.s key)))
    | Jnl.Idx i when i >= 0 -> min k (S.length (S.pos_bucket ctx.s i))
    | Jnl.Seq (a, b) -> est_path ctx a (est_path ctx b k)
    | Jnl.Test f -> min k (estimate ctx f)
    | Jnl.Alt (a, b) -> min (n ctx) (est_path ctx a k + est_path ctx b k)
    | Jnl.Star _ -> n ctx
    | Jnl.Idx _ | Jnl.Keys _ | Jnl.Range _ -> k

  (* [Eq_doc]'s target is bounded by the value postings of the path's
     last label *)
  and est_value ctx p v =
    let len h =
      match S.value_bucket ctx.s h v with Some b -> S.length b | None -> n ctx
    in
    match p with
    | Jnl.Seq (a, b) -> est_path ctx a (est_value ctx b v)
    | Jnl.Key w -> (
      match S.find_key ctx.s w with None -> 0 | Some k -> len (`Key k))
    | Jnl.Idx i when i >= 0 -> len (`Pos i)
    | _ -> est_path ctx p (n ctx)

  (* [pre_at ctx d α T] = { n | ∃n' . (n,n') ∈ ⟦α⟧ ∧ n' ∈ T } *)
  let rec pre_at ctx depth (p : Jnl.path) tgt =
    Obs.Budget.check_depth ctx.budget depth;
    match p with
    | Jnl.Self ->
      burn ctx 1;
      tgt
    | Jnl.Key w -> (
      match S.find_key ctx.s w with
      | None ->
        burn ctx 1;
        empty
      | Some k ->
        labelled ctx
          ~buckets:(fun () -> [ S.key_bucket ctx.s k ])
          ~edge:(`Key k) ~hint:(Some (`Key k)) tgt)
    | Jnl.Keys e ->
      let l = lang ctx e in
      labelled ctx
        ~buckets:(fun () -> List.map (S.key_bucket ctx.s) (matching_keys ctx e))
        ~edge:
          (`Test
            (fun c ->
              S.edge_key ctx.s c (fun k ->
                  Rexp.Lang.matches l (S.key_name ctx.s k))))
        ~hint:None tgt
    | Jnl.Idx i -> pre_at ctx depth (Jnl.Range (i, Some i)) tgt
    | Jnl.Range (i, Some j) when i = j && i >= 0 && tgt != All ->
      labelled ctx
        ~buckets:(fun () -> [ S.pos_bucket ctx.s i ])
        ~edge:(`Pos i) ~hint:(Some (`Pos i)) tgt
    | Jnl.Range (i, j) -> window ctx i j tgt
    | Jnl.Seq (a, b) ->
      burn ctx 1;
      pre_at ctx (depth + 1) a (pre_at ctx (depth + 1) b tgt)
    | Jnl.Alt (a, b) -> (
      burn ctx (S.connective_fuel ctx.s);
      match (pre_at ctx (depth + 1) a tgt, pre_at ctx (depth + 1) b tgt) with
      | All, _ | _, All -> All
      | x, y -> set (Bitset.union (nodes ctx x) (nodes ctx y)))
    | Jnl.Test f -> (
      burn ctx (S.connective_fuel ctx.s);
      let sf = eval_at ctx (depth + 1) f in
      match tgt with
      | All -> set sf
      | Few a -> Few (Array.of_seq (Seq.filter (Bitset.mem sf) (Array.to_seq a)))
      | t -> set (Bitset.inter (nodes ctx t) sf))
    | Jnl.Star a -> (
      (* least fixpoint S ⊇ T with pre(a, S) ⊆ S; pre-images distribute
         over union, so each round steps back from the new nodes only *)
      burn ctx (S.connective_fuel ctx.s);
      match tgt with
      | All -> All
      | t ->
        let acc = Bitset.copy (nodes ctx t) in
        let rec grow delta =
          let fresh =
            Bitset.diff (nodes ctx (pre_at ctx (depth + 1) a delta)) acc
          in
          if Bitset.is_empty fresh then set acc
          else begin
            ignore (Bitset.union_into fresh ~into:acc);
            grow (set fresh)
          end
        in
        grow (set acc))

  and eval_at ctx depth (f : Jnl.form) =
    match Hashtbl.find_opt ctx.memo f with
    | Some s -> s
    | None ->
      Obs.Budget.check_depth ctx.budget depth;
      burn ctx (S.connective_fuel ctx.s);
      let d = depth + 1 in
      let result =
        match f with
        | Jnl.True -> Bitset.full (n ctx)
        | Jnl.Not g -> Bitset.complement (eval_at ctx d g)
        | Jnl.And _ -> conj ctx d f
        | Jnl.Or (a, b) -> Bitset.union (eval_at ctx d a) (eval_at ctx d b)
        | Jnl.Exists p -> nodes ctx (pre_at ctx d p All)
        | Jnl.Eq_doc (p, v) ->
          Obs.Metrics.incr "jnl.eq_doc";
          nodes ctx (pre_at ctx d p (Value v))
        | Jnl.Eq_paths (a, b) ->
          Obs.Metrics.incr "jnl.eq_paths";
          S.eq_paths ctx.s ~budget:ctx.budget ~depth ~lang:(lang ctx)
            ~test:(eval_at ctx) a b
      in
      Hashtbl.replace ctx.memo f result;
      result

  (* The planner: conjuncts cheapest first by {!estimate} (stable, so
     ties keep syntactic order), and an empty running intersection
     skips the rest. *)
  and conj ctx depth f =
    let rec flat acc = function
      | Jnl.And (a, b) -> flat (flat acc b) a
      | g -> g :: acc
    in
    let parts = flat [] f in
    S.prepare ctx.budget ctx.s;
    let ranked =
      List.map (fun g -> (estimate ctx g, g)) parts
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map snd
    in
    if not (List.for_all2 ( == ) parts ranked) then
      ctx.reorders <- ctx.reorders + 1;
    let acc = Bitset.copy (eval_at ctx depth (List.hd ranked)) in
    List.iter
      (fun g ->
        if not (Bitset.is_empty acc) then
          ignore (Bitset.inter_into (eval_at ctx depth g) ~into:acc))
      (List.tl ranked);
    acc

  let eval ctx f = eval_at ctx 0 f
  let pre ctx p target = nodes ctx (pre_at ctx 0 p (set target))
  let holds ctx nd f = Bitset.mem (eval ctx f) nd
end

(* ---- the tree store -------------------------------------------------------- *)

(* What per-node successor enumeration needs: the tree, the budget,
   compiled key languages and the set evaluator for tests. *)
type nav = {
  t : Tree.t;
  budget : Obs.Budget.t;
  lang : Rexp.Syntax.t -> Rexp.Lang.t;
  test : int -> Jnl.form -> Bitset.t;
}

let rec succs_at nav depth (p : Jnl.path) n =
  Obs.Budget.check_depth nav.budget depth;
  Obs.Budget.burn nav.budget 1;
  match p with
  | Jnl.Self -> [ n ]
  | Jnl.Key w -> Option.to_list (Jnl_step.key_succ nav.t n w)
  | Jnl.Idx i -> Option.to_list (Jnl_step.idx_succ nav.t n i)
  | Jnl.Keys e -> Jnl_step.keys_succs nav.t n (nav.lang e)
  | Jnl.Range (i, j) -> Jnl_step.range_succs nav.t n i j
  | Jnl.Seq (a, b) ->
    let out =
      List.concat_map
        (succs_at nav (depth + 1) b)
        (succs_at nav (depth + 1) a n)
    in
    List.sort_uniq Int.compare out
  | Jnl.Alt (a, b) ->
    List.sort_uniq Int.compare
      (succs_at nav (depth + 1) a n @ succs_at nav (depth + 1) b n)
  | Jnl.Test f -> if Bitset.mem (nav.test (depth + 1) f) n then [ n ] else []
  | Jnl.Star a ->
    (* BFS closure; each node enters [seen] once, so fuel is burnt at
       most [n_nodes] times by the inner [succs_at] calls *)
    let seen = Hashtbl.create 16 in
    let rec visit acc = function
      | [] -> acc
      | m :: rest ->
        if Hashtbl.mem seen m then visit acc rest
        else begin
          Hashtbl.add seen m ();
          visit (m :: acc) (succs_at nav (depth + 1) a m @ rest)
        end
    in
    List.sort Int.compare (visit [] [ n ])

let eq_paths_at nav depth n a b =
  let sa = succs_at nav (depth + 1) a n in
  match sa with
  | [] -> false
  | _ ->
    let by_hash = Hashtbl.create (List.length sa) in
    List.iter (fun m -> Hashtbl.add by_hash (Tree.subtree_hash nav.t m) m) sa;
    List.exists
      (fun m ->
        List.exists
          (fun m' -> Tree.equal_subtrees nav.t m m')
          (Hashtbl.find_all by_hash (Tree.subtree_hash nav.t m)))
      (succs_at nav (depth + 1) b n)

module Tree_store = struct
  type t = Tree.t
  type key = string
  type bucket = Tree.node array

  let n_nodes = Tree.node_count
  let connective_fuel = Tree.node_count
  let prepare budget t = Tree.build_index ~budget t
  let parent = Tree.parent_id

  let edge_key t c test =
    match Tree.edge_from_parent t c with
    | Tree.Key w -> test w
    | Tree.Pos _ | Tree.Root -> false

  let is_key t c w =
    match Tree.edge_from_parent t c with
    | Tree.Key k -> String.equal k w
    | Tree.Pos _ | Tree.Root -> false

  let edge_pos t c =
    match Tree.edge_from_parent t c with
    | Tree.Pos p -> p
    | Tree.Key _ | Tree.Root -> -1

  let last_child t c =
    let p = edge_pos t c in
    p >= 0 && p = Tree.arity t (Tree.parent_id t c) - 1

  let arity = Tree.arity
  let has_element t g p = Tree.is_arr t g && p < Tree.arity t g
  let find_key _ w = Some w
  let key_name _ w = w
  let iter_keys t f = Tree.iter_key_index (fun w _ -> f w w) t
  let key_bucket = Tree.key_index
  let pos_bucket = Tree.pos_index
  let value_bucket _ _ _ = None

  (* nodes whose subtree equals the constant document [v] *)
  let equal_nodes t budget v =
    let out = Bitset.create (Tree.node_count t) in
    let vt = Tree.of_value ~budget v in
    for n = 0 to Tree.node_count t - 1 do
      if Tree.equal_across t n vt Tree.root then Bitset.add out n
    done;
    out

  let eq_paths t ~budget ~depth ~lang ~test a b =
    let nav = { t; budget; lang; test } in
    let out = Bitset.create (Tree.node_count t) in
    Seq.iter
      (fun n -> if eq_paths_at nav depth n a b then Bitset.add out n)
      (Tree.nodes t);
    out

  let length = Array.length
  let iter _ b f = Array.iter f b

  let bucket_parents t b keep into =
    for i = 0 to Array.length b - 1 do
      let c = b.(i) in
      if
        match keep with
        | `All -> true
        | `In s -> Bitset.mem s c
        | `Element p -> has_element t c p
      then begin
        let p = Tree.parent_id t c in
        if p >= 0 then Bitset.add into p
      end
    done

  let edge_parents t s edge into =
    let n = Bitset.capacity s in
    let c = ref (Bitset.next s 0) in
    while !c < n do
      let g = !c in
      (match (edge, Tree.edge_from_parent t g) with
      | `Key w, Tree.Key k when String.equal k w ->
        Bitset.add into (Tree.parent_id t g)
      | `Pos p, Tree.Pos q when p = q -> Bitset.add into (Tree.parent_id t g)
      | _ -> ());
      c := Bitset.next s (g + 1)
    done
end

include Make (Tree_store)

let tree ctx = ctx.s
let nav ctx =
  { t = ctx.s; budget = ctx.budget; lang = lang ctx; test = eval_at ctx }
let succs ctx p n = succs_at (nav ctx) 0 p n

(* ---- single-node, short-circuiting check -------------------------------- *)

(* [find_succ ctx d α n pred] — is there an α-successor of n satisfying
   [pred]?  CPS style so Seq short-circuits.  One fuel unit per visit;
   [Star] visits each node at most once ([seen]). *)
let rec find_succ ctx depth (p : Jnl.path) n pred =
  Obs.Budget.check_depth ctx.budget depth;
  Obs.Budget.burn ctx.budget 1;
  match p with
  | Jnl.Self -> pred n
  | Jnl.Key w -> (
    match Jnl_step.key_succ ctx.s n w with Some c -> pred c | None -> false)
  | Jnl.Idx i -> (
    match Jnl_step.idx_succ ctx.s n i with Some c -> pred c | None -> false)
  | Jnl.Keys e -> Jnl_step.keys_exists ctx.s n (lang ctx e) pred
  | Jnl.Range (i, j) -> Jnl_step.range_exists ctx.s n i j pred
  | Jnl.Seq (a, b) ->
    find_succ ctx (depth + 1) a n (fun m -> find_succ ctx (depth + 1) b m pred)
  | Jnl.Alt (a, b) ->
    find_succ ctx (depth + 1) a n pred || find_succ ctx (depth + 1) b n pred
  | Jnl.Test f -> check_at_d ctx depth n f && pred n
  | Jnl.Star a ->
    let seen = Hashtbl.create 16 in
    let rec visit m =
      if Hashtbl.mem seen m then false
      else begin
        Hashtbl.add seen m ();
        pred m || find_succ ctx (depth + 1) a m visit
      end
    in
    visit n

and check_at_d ctx depth n (f : Jnl.form) =
  Obs.Budget.check_depth ctx.budget depth;
  Obs.Budget.burn ctx.budget 1;
  match f with
  | Jnl.True -> true
  | Jnl.Not g -> not (check_at_d ctx (depth + 1) n g)
  | Jnl.And (a, b) ->
    check_at_d ctx (depth + 1) n a && check_at_d ctx (depth + 1) n b
  | Jnl.Or (a, b) ->
    check_at_d ctx (depth + 1) n a || check_at_d ctx (depth + 1) n b
  | Jnl.Exists p -> find_succ ctx (depth + 1) p n (fun _ -> true)
  | Jnl.Eq_doc (p, v) ->
    Obs.Metrics.incr "jnl.eq_doc";
    find_succ ctx (depth + 1) p n (fun m -> Tree.equal_to_value ctx.s m v)
  | Jnl.Eq_paths (a, b) ->
    Obs.Metrics.incr "jnl.eq_paths";
    eq_paths_at (nav ctx) depth n a b

let check_at ctx n f = check_at_d ctx 0 n f

let eval_pairs ctx p =
  Seq.fold_left
    (fun acc n ->
      List.fold_left (fun acc m -> (n, m) :: acc) acc (List.rev (succs ctx p n)))
    [] (Tree.nodes ctx.s)
  |> List.rev

let select ?budget v p =
  let t = Tree.of_value ?budget v in
  let ctx = context ?budget t in
  List.map (Tree.value_at t) (succs ctx p Tree.root)

let satisfies ?budget v f =
  let ctx = context ?budget (Tree.of_value ?budget v) in
  check_at ctx Tree.root f

let satisfies_bounded ?budget v f =
  match satisfies ?budget v f with
  | b -> Ok b
  | exception Obs.Budget.Exhausted r -> Error (Obs.Budget.describe r)
