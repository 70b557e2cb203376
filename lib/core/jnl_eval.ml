module Tree = Jsont.Tree

(* ---- node stores --------------------------------------------------------- *)

module type STORE = Jnl_store.S

(* [sort_uniq a k]: the first [k] entries of [a], ascending and
   distinct — no sort when they already ascend, an insertion sort of
   ints below 16 entries, a merge sort above, no comparison closure
   either way.  [a] itself when that is the whole of it. *)
let sort_uniq a k =
  let sorted = ref true and i = ref 1 in
  while !sorted && !i < k do
    sorted := a.(!i - 1) <= a.(!i);
    incr i
  done;
  let a =
    if !sorted then a
    else if k <= 16 then begin
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

(* ---- ascending int arrays ------------------------------------------------- *)

(* the position of [x] in the ascending array [a], or [-1] *)
let find_sorted (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = a.(mid) in
    if v = x then found := mid else if v < x then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* a growing array of ints *)
type buf = { mutable a : int array; mutable k : int }

let buf () = { a = Array.make 16 0; k = 0 }

let push b x =
  if b.k = Array.length b.a then begin
    let a = Array.make (2 * b.k) 0 in
    Array.blit b.a 0 a 0 b.k;
    b.a <- a
  end;
  b.a.(b.k) <- x;
  b.k <- b.k + 1

let contents b = Array.sub b.a 0 b.k

(* the members of the ascending arrays [a] and [b] that are in [a]
   only, in both or in [b] only, as the flags admit: ascending *)
let merge ~left ~both ~right (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 and k = ref 0 in
  let emit x =
    out.(!k) <- x;
    incr k
  in
  let i = ref 0 and j = ref 0 in
  while !i < la || !j < lb do
    if !j >= lb || (!i < la && a.(!i) < b.(!j)) then begin
      if left then emit a.(!i);
      incr i
    end
    else if !i >= la || b.(!j) < a.(!i) then begin
      if right then emit b.(!j);
      incr j
    end
    else begin
      if both then emit a.(!i);
      incr i;
      incr j
    end
  done;
  Array.sub out 0 !k

let filter_sorted keep (a : int array) =
  let out = Array.make (Array.length a) 0 and k = ref 0 in
  Array.iter
    (fun x ->
      if keep x then begin
        out.(!k) <- x;
        incr k
      end)
    a;
  Array.sub out 0 !k

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

  (* A pre-image target, kept symbolic while it is cheaper that way; also
     a demand (below), which is [All], [Roots], [Set] or [Few]. *)
  type target =
    | All  (* every node: the target of [Exists] *)
    | Roots  (* every tree's root *)
    | Value of Jsont.Value.t  (* the nodes equal to a constant *)
    | Arrays of int  (* the arrays with at least that many elements *)
    | Set of Bitset.t * int  (* explicit, with its cardinality *)
    | Few of int array  (* explicit and small: distinct ids, ascending *)

  let set s = Set (s, Bitset.cardinal s)
  let empty = Few [||]

  let card = function
    | Set (_, c) -> c
    | Few a -> Array.length a
    | All | Roots | Value _ | Arrays _ -> max_int

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
      let c = List.fold_left (fun c b -> c + S.bucket_parents ctx.s b keep into) 0 bs in
      Set (into, c)
    end
    else
      few ctx w (fun add ->
          List.iter
            (fun b -> S.iter ctx.s b (fun c -> if passes ctx keep c then add c))
            bs)

  let rec nodes ctx = function
    | All -> Bitset.full (n ctx)
    | Roots -> nodes ctx (Few (S.roots ctx.s))
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
      match (tgt, edge) with
      | Set (s, _), ((`Key _ | `Pos _) as e) -> Set (into, S.edge_parents ctx.s s e into)
      | _ ->
        let k = ref 0 in
        walk (fun c ->
            let p = S.parent ctx.s c in
            if p >= 0 && Bitset.add_new into p then incr k);
        Set (into, !k)
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
      | Roots -> step (Few (S.roots ctx.s))
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

  (* The planner: a conjunction's conjuncts, cheapest first by
     {!estimate} (stable, so ties keep syntactic order). *)
  let plan ctx f =
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
    ranked

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

  (* The planner (see [plan]), and an empty running intersection skips
     the rest. *)
  and conj ctx depth f =
    let ranked = plan ctx f in
    let acc = Bitset.copy (eval_at ctx depth (List.hd ranked)) in
    List.iter
      (fun g ->
        if not (Bitset.is_empty acc) then
          ignore (Bitset.inter_into (eval_at ctx depth g) ~into:acc))
      (List.tl ranked);
    acc

  (* ---- demand-restricted evaluation -------------------------------------- *)

  (* A demand is the set of nodes whose answer is wanted.  Under a
     demand [d], [sat_in] computes ⟦ϕ⟧ ∩ d and [pre_in] the pre-image's
     members in [d].  The demand [All] (every node) is [eval_at] and
     [pre_at], step for step: the same walks, fuel and memo.  Under
     [Roots], [Few] or [Set], a labelled step walks the cheapest of its
     postings, its target and the demand's children — the roots'
     children where the store keeps them — and a sequence first carries
     its demand forward through its steps (the magic-sets rewrite) while
     that walk stays below what its last step walks backward.  A
     demand-side walk stops once it has read as many members as the
     backward walk would, and that walk runs instead.  Results are the
     demand's members, [Few] arrays unless they come from a bulk step;
     set algebra between them burns nothing, as bitset connectives burn
     nothing.  Nothing restricted is memoized. *)

  let is_empty = function
    | Few a -> Array.length a = 0
    | Set (_, c) -> c = 0
    | All | Roots | Value _ | Arrays _ -> false

  let is_root ctx g = S.parent ctx.s g < 0
  let explicit ctx = function Roots -> Few (S.roots ctx.s) | t -> t
  let size ctx d = card (explicit ctx d)

  (* an explicit set's members in ascending order *)
  let iter_members ctx d f =
    match explicit ctx d with
    | Few a -> Array.iter f a
    | t -> Bitset.iter f (nodes ctx t)

  let mem_in ctx = function
    | All -> fun _ -> true
    | Roots -> is_root ctx
    | Few a -> fun g -> find_sorted a g >= 0
    | Set (s, _) -> Bitset.mem s
    | Arrays a -> fun g -> S.has_element ctx.s g (a - 1)
    | Value _ as t -> Bitset.mem (nodes ctx t)

  let filter_in ctx d keep =
    match explicit ctx d with
    | Few a -> Few (filter_sorted keep a)
    | t ->
      let out = Bitset.create (n ctx) and k = ref 0 in
      Bitset.iter
        (fun g ->
          if keep g then begin
            Bitset.add out g;
            incr k
          end)
        (nodes ctx t);
      Set (out, !k)

  (* the parents of roots' children [rc] (ascending) that pass [keep]:
     roots, so already ascending *)
  let root_parents ctx keep rc =
    let out = buf () in
    Array.iter
      (fun c ->
        if keep c then begin
          let p = S.parent ctx.s c in
          if out.k = 0 || out.a.(out.k - 1) <> p then push out p
        end)
      rc;
    Few (contents out)

  let inter ctx x y =
    match (x, y) with
    | All, t | t, All -> t
    | Roots, Roots -> Roots
    | Roots, Few a | Few a, Roots -> Few (filter_sorted (is_root ctx) a)
    | Few a, Few b -> Few (merge ~left:false ~both:true ~right:false a b)
    | ((Roots | Few _) as d), t | t, ((Roots | Few _) as d) ->
      filter_in ctx d (mem_in ctx t)
    | _ -> set (Bitset.inter (nodes ctx x) (nodes ctx y))

  let union ctx x y =
    match (explicit ctx x, explicit ctx y) with
    | All, _ | _, All -> All
    | Few a, Few b -> Few (merge ~left:true ~both:true ~right:true a b)
    | x, y -> set (Bitset.union (nodes ctx x) (nodes ctx y))

  (* [d \ x], [x] an answer under [d] *)
  let diff ctx d x =
    match (explicit ctx d, explicit ctx x) with
    | Few a, Few b -> Few (merge ~left:true ~both:false ~right:false a b)
    | Few a, x -> Few (filter_sorted (fun g -> not (mem_in ctx x g)) a)
    | d, x -> set (Bitset.diff (nodes ctx d) (nodes ctx x))

  (* A labelled step: its buckets, its edge, the label whose value
     postings stand in for a [Value] target, how a parent's children
     are walked for it — [probe c]: does [c]'s edge pass, or may a
     later child's, or none; [one]: at most one child passes — and the
     roots' children through it, where the store keeps them. *)
  type step = {
    buckets : unit -> S.bucket list;
    edge : [ `Key of S.key | `Pos of int | `Test of int -> bool ];
    hint : [ `Key of S.key | `Pos of int ] option;
    probe : int -> [ `Hit | `Skip | `Stop ];
    one : bool;
    roots_of : unit -> int array option;
  }

  let key_step ctx k =
    { buckets = (fun () -> [ S.key_bucket ctx.s k ]); edge = `Key k;
      hint = Some (`Key k);
      probe = (fun c -> if S.is_key ctx.s c k then `Hit else `Skip);
      one = true;
      roots_of = (fun () -> S.root_children ctx.s (`Key k)) }

  (* positions ascend, and an object's children carry none *)
  let pos_step ctx i =
    { buckets = (fun () -> [ S.pos_bucket ctx.s i ]); edge = `Pos i;
      hint = Some (`Pos i);
      probe =
        (fun c ->
          let q = S.edge_pos ctx.s c in
          if q = i then `Hit else if q >= 0 && q < i then `Skip else `Stop);
      one = true;
      roots_of = (fun () -> S.root_children ctx.s (`Pos i)) }

  let keys_step ctx e =
    let l = lang ctx e in
    let test c =
      S.edge_key ctx.s c (fun k -> Rexp.Lang.matches l (S.key_name ctx.s k))
    in
    { buckets = (fun () -> List.map (S.key_bucket ctx.s) (matching_keys ctx e));
      edge = `Test test; hint = None;
      probe = (fun c -> if test c then `Hit else `Skip);
      one = false;
      roots_of =
        (fun () ->
          List.fold_left
            (fun acc k ->
              match (acc, S.root_children ctx.s (`Key k)) with
              | Some a, Some b -> Some (merge ~left:true ~both:true ~right:true a b)
              | _ -> None)
            (Some [||]) (matching_keys ctx e)) }

  (* walks [g]'s children through the step's edge, calling [visit] on
     each that passes until it returns [false]; the children read, at
     least one *)
  let through ctx st g visit =
    let read = ref 0 in
    S.children ctx.s g (fun c ->
        incr read;
        match st.probe c with
        | `Hit -> visit c && not st.one
        | `Skip -> true
        | `Stop -> false);
    max 1 !read

  (* The roots' children through the step, where the store keeps them
     and walking them reads less than [limit] and than the demand's
     children would: every root's, or, for a demand of roots (checked
     member by member), those under the demand. *)
  let root_walk ctx st d limit =
    match d with
    | Roots ->
      Option.bind (st.roots_of ()) (fun rc ->
          if Array.length rc <= limit then Some rc else None)
    | Few a -> (
      match st.roots_of () with
      | Some rc
        when Array.length rc <= limit && Array.length rc <= Array.length a
             && Array.for_all (is_root ctx) a ->
        Some (filter_sorted (fun c -> find_sorted a (S.parent ctx.s c) >= 0) rc)
      | _ -> None)
    | _ -> None

  let value_postings ctx st = function
    | Value v -> Option.bind st.hint (fun h -> S.value_bucket ctx.s h v)
    | _ -> None

  (* what the step walks backward: its value postings [vb], its
     buckets, or the smaller of its buckets and its explicit target *)
  let backward_cost ctx st vb tgt =
    let buckets () = List.fold_left (fun a b -> a + S.length b) 0 (st.buckets ()) in
    match (tgt, vb) with
    | Value _, Some b -> S.length b
    | Value _, None -> n ctx
    | (All | Arrays _), _ -> buckets ()
    | _ -> min (card tgt) (buckets ())

  (* one labelled step under a demand other than [All] *)
  let labelled_in ctx d st tgt =
    S.prepare ctx.budget ctx.s;
    let vb = value_postings ctx st tgt in
    let tgt =
      match (tgt, vb) with
      | Value _, None -> set (nodes ctx tgt)
      | _ -> explicit ctx tgt
    in
    let back = backward_cost ctx st vb tgt in
    let hit = match vb with Some b -> S.mem ctx.s b | None -> mem_in ctx tgt in
    let backward () =
      inter ctx d
        (labelled ctx ~buckets:st.buckets ~edge:st.edge ~hint:st.hint tgt)
    in
    match (root_walk ctx st d back, d) with
    | Some rc, _ ->
      burn ctx (1 + Array.length rc);
      Obs.Metrics.incr "jnl.demand.roots";
      root_parents ctx hit rc
    | None, _ when size ctx d < back ->
      let out = buf () and read = ref 0 in
      (try
         iter_members ctx d (fun g ->
             read :=
               !read
               + through ctx st g (fun c ->
                     if hit c then begin
                       push out g;
                       false
                     end
                     else true);
             if !read > back then raise Exit)
       with Exit -> ());
      if !read > back then begin
        burn ctx !read;
        Obs.Metrics.incr "jnl.demand.capped";
        backward ()
      end
      else begin
        burn ctx (1 + !read);
        Obs.Metrics.incr "jnl.demand.walks";
        Few (contents out)
      end
    | None, _ -> backward ()

  (* The forward image of [d] through a step, read off the roots'
     children or the demand's, within the allowance [left] (less what
     it reads): [None] once that runs out, and where the image is not
     walked (a star).  A test's image is its demand: a superset only
     restricts less what later steps compute. *)
  let rec fwd ctx left d (p : Jnl.path) =
    if is_empty d then Some d
    else
      match p with
      | Jnl.Self | Jnl.Test _ -> Some d
      | Jnl.Star _ -> None
      | Jnl.Seq (a, b) -> Option.bind (fwd ctx left d a) (fun d -> fwd ctx left d b)
      | Jnl.Alt (a, b) ->
        Option.bind (fwd ctx left d a) (fun x ->
            Option.map (union ctx x) (fwd ctx left d b))
      | Jnl.Key w -> (
        match S.find_key ctx.s w with
        | None -> Some empty
        | Some k -> fwd_step ctx left d (key_step ctx k))
      | Jnl.Keys e -> fwd_step ctx left d (keys_step ctx e)
      | Jnl.Idx i when i >= 0 -> fwd_step ctx left d (pos_step ctx i)
      | Jnl.Range (i, Some j) when i = j && i >= 0 ->
        fwd_step ctx left d (pos_step ctx i)
      | Jnl.Idx i -> fwd_window ctx left d i (Some i)
      | Jnl.Range (i, j) -> fwd_window ctx left d i j

  (* [collect g add] adds [g]'s children in the image and returns what
     it read; the walk reads at least one per member, and its image is
     at most as large as the walk, so it may spend half of what is
     left *)
  and fwd_walk ctx left d collect =
    let cap = !left / 2 in
    if size ctx d > cap then None
    else begin
      let out = buf () and read = ref 0 in
      (try
         iter_members ctx d (fun g ->
             read := !read + collect g (push out);
             if !read > cap then raise Exit)
       with Exit -> ());
      if !read > cap then begin
        burn ctx !read;
        Obs.Metrics.incr "jnl.demand.capped";
        None
      end
      else begin
        left := !left - !read;
        burn ctx (1 + !read);
        Obs.Metrics.incr "jnl.demand.walks";
        Some (Few (sort_uniq out.a out.k))
      end
    end

  (* a root walk's image is as large as the walk: leave room for the
     last step to walk it *)
  and fwd_step ctx left d st =
    match (root_walk ctx st d (!left / 2), d) with
    | Some rc, _ ->
      left := !left - Array.length rc;
      burn ctx (1 + Array.length rc);
      Obs.Metrics.incr "jnl.demand.roots";
      Some (Few rc)
    | None, _ ->
      fwd_walk ctx left d (fun g add ->
          through ctx st g (fun c ->
              add c;
              true))

  and fwd_window ctx left d i j =
    let kids = buf () in
    fwd_walk ctx left d (fun g add ->
        kids.k <- 0;
        S.children ctx.s g (fun c ->
            S.edge_pos ctx.s c >= 0
            && begin
              push kids c;
              true
            end);
        for q = 0 to kids.k - 1 do
          if Jnl_step.range_matches ~len:kids.k ~pos:q i j then add kids.a.(q)
        done;
        max 1 kids.k)

  (* What the last step of a sequence walks backward from its target:
     the allowance of the forward walk that would spare it that.  An
     array step from every node walks nothing: it stays symbolic, and
     the step before it tests its arrays. *)
  let rec last_cost ctx (p : Jnl.path) tgt =
    let step st = backward_cost ctx st (value_postings ctx st tgt) tgt in
    match (p, tgt) with
    | Jnl.Self, _ | (Jnl.Idx _ | Jnl.Range _), All -> 0
    | Jnl.Key w, _ -> (
      match S.find_key ctx.s w with None -> 0 | Some k -> step (key_step ctx k))
    | Jnl.Keys e, _ -> step (keys_step ctx e)
    | Jnl.Idx i, _ when i >= 0 -> step (pos_step ctx i)
    | Jnl.Range (i, Some j), _ when i = j && i >= 0 -> step (pos_step ctx i)
    | (Jnl.Idx _ | Jnl.Range _), (Few _ | Set _) -> card tgt
    | (Jnl.Idx _ | Jnl.Range _), _ -> 0
    | Jnl.Test f, _ -> estimate ctx f
    | Jnl.Seq (_, b), _ -> last_cost ctx b tgt
    | Jnl.Alt (a, b), _ -> last_cost ctx a tgt + last_cost ctx b tgt
    | Jnl.Star _, _ -> n ctx

  let rec pre_in ctx depth d (p : Jnl.path) tgt =
    match d with
    | All -> pre_at ctx depth p tgt
    | _ when is_empty d -> empty
    | _ -> (
      Obs.Budget.check_depth ctx.budget depth;
      match p with
      | Jnl.Self ->
        burn ctx 1;
        inter ctx d tgt
      | Jnl.Key w -> (
        match S.find_key ctx.s w with
        | None ->
          burn ctx 1;
          empty
        | Some k -> labelled_in ctx d (key_step ctx k) tgt)
      | Jnl.Keys e -> labelled_in ctx d (keys_step ctx e) tgt
      | Jnl.Idx i when i >= 0 -> labelled_in ctx d (pos_step ctx i) tgt
      | Jnl.Range (i, Some j) when i = j && i >= 0 ->
        labelled_in ctx d (pos_step ctx i) tgt
      | Jnl.Idx i -> inter ctx d (window ctx i (Some i) tgt)
      | Jnl.Range (i, j) -> inter ctx d (window ctx i j tgt)
      | Jnl.Seq _ -> chain ctx depth d p tgt
      | Jnl.Alt (a, b) ->
        burn ctx (S.connective_fuel ctx.s);
        union ctx
          (pre_in ctx (depth + 1) d a tgt)
          (pre_in ctx (depth + 1) d b tgt)
      | Jnl.Test f ->
        burn ctx (S.connective_fuel ctx.s);
        sat_in ctx (depth + 1) (inter ctx d tgt) f
      | Jnl.Star _ -> inter ctx d (pre_at ctx depth p tgt))

  (* A sequence as its steps, first first, each checked at the depth
     [pre_at] checks it at: the demand goes forward through them while
     the walk, and the last step's walk of the image (one read per
     member at least), stay within what the last step walks backward;
     then each step runs backward under its demand. *)
  and chain ctx depth d p tgt =
    let rec flat acc depth = function
      | Jnl.Seq (a, b) ->
        Obs.Budget.check_depth ctx.budget depth;
        burn ctx 1;
        flat ((b, depth + 1) :: acc) (depth + 1) a
      | p -> (p, depth) :: acc
    in
    let steps = Array.of_list (flat [] depth p) in
    let last = Array.length steps - 1 in
    S.prepare ctx.budget ctx.s;
    let left = ref (last_cost ctx (fst steps.(last)) tgt) in
    let demands = Array.make (last + 1) All in
    demands.(0) <- d;
    (try
       for i = 1 to last do
         match fwd ctx left demands.(i - 1) (fst steps.(i - 1)) with
         | Some d ->
           demands.(i) <- d;
           if card d > !left then raise Exit
         | None -> raise Exit
       done
     with Exit -> ());
    let t = ref tgt in
    for i = last downto 0 do
      let s, depth = steps.(i) in
      t := pre_in ctx depth demands.(i) s !t
    done;
    !t

  and sat_in ctx depth d (f : Jnl.form) =
    match d with
    | All -> set (eval_at ctx depth f)
    | _ when is_empty d -> empty
    | _ -> (
      Obs.Budget.check_depth ctx.budget depth;
      burn ctx (S.connective_fuel ctx.s);
      let e = depth + 1 in
      match f with
      | Jnl.True -> d
      | Jnl.Not g -> diff ctx d (sat_in ctx e d g)
      | Jnl.And _ ->
        List.fold_left
          (fun acc g -> if is_empty acc then acc else sat_in ctx e acc g)
          d (plan ctx f)
      | Jnl.Or (a, b) -> union ctx (sat_in ctx e d a) (sat_in ctx e d b)
      | Jnl.Exists p -> pre_in ctx e d p All
      | Jnl.Eq_doc (p, v) ->
        Obs.Metrics.incr "jnl.eq_doc";
        pre_in ctx e d p (Value v)
      | Jnl.Eq_paths (a, b) ->
        Obs.Metrics.incr "jnl.eq_paths";
        inter ctx d
          (set
             (S.eq_paths ctx.s ~budget:ctx.budget ~depth ~lang:(lang ctx)
                ~test:(eval_at ctx) a b)))

  let eval ctx f = eval_at ctx 0 f
  let pre ctx p target = nodes ctx (pre_at ctx 0 p (set target))
  let holds ctx nd f = Bitset.mem (eval ctx f) nd

  type demand = [ `Every | `Roots | `Nodes of int array ]

  let eval_in ctx demand f =
    let elements s = Array.of_list (Bitset.elements s) in
    match demand with
    | `Every -> elements (eval ctx f)
    | (`Roots | `Nodes _) as d -> (
      match
        explicit ctx
          (sat_in ctx 0 (match d with `Roots -> Roots | `Nodes a -> Few a) f)
      with
      | Few a -> a
      | t -> elements (nodes ctx t))
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
  let mem _ b c = find_sorted b c >= 0

  let children t g f =
    let cs = Tree.child_ids t g in
    let i = ref 0 in
    while !i < Array.length cs && f cs.(!i) do
      incr i
    done

  let roots _ = [| Tree.root |]
  let root_children _ _ = None

  let bucket_parents t b keep into =
    let added = ref 0 in
    for i = 0 to Array.length b - 1 do
      let c = b.(i) in
      if
        match keep with
        | `All -> true
        | `In s -> Bitset.mem s c
        | `Element p -> has_element t c p
      then begin
        let p = Tree.parent_id t c in
        if p >= 0 && Bitset.add_new into p then incr added
      end
    done;
    !added

  let edge_parents t s edge into =
    let n = Bitset.capacity s and added = ref 0 in
    let c = ref (Bitset.next s 0) in
    while !c < n do
      let g = !c in
      (match (edge, Tree.edge_from_parent t g) with
      | `Key w, Tree.Key k when String.equal k w ->
        if Bitset.add_new into (Tree.parent_id t g) then incr added
      | `Pos p, Tree.Pos q when p = q ->
        if Bitset.add_new into (Tree.parent_id t g) then incr added
      | _ -> ());
      c := Bitset.next s (g + 1)
    done;
    !added
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
