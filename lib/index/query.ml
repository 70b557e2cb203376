(* Corpus queries: JNL's pre-image evaluator ({!Jlogic.Jnl_eval.Make})
   run over the mapped index as its node store, under the root demand:
   a document is its root's verdict, so only ⟦ϕ⟧ ∩ roots is computed.
   Node ids are corpus-wide (a document's node base plus its local
   preorder id) and a label bucket is a postings slice of them, so a
   step costs its bucket, its target, the roots' children through its
   label or its demand's children, never a scan of the corpus.  The
   two atoms postings
   cannot decide — EQ(α,β), and eq against an object or array
   constant — are relaxed by polarity into a formula that holds
   wherever the query does; only the documents it admits are reparsed
   and evaluated like [eval --files-from].  Lines that failed to parse
   at build time are answered by their parse error, reparsed once per
   open index and budget limits (the reader's error-cell slot).  The
   corpus is checked against the index's size on every query and its
   checksum once per file identity. *)

module Jnl = Jlogic.Jnl
module Bitset = Jlogic.Bitset

type verdict = True | False | Error of string

let verdict_string = function
  | True -> "true"
  | False -> "false"
  | Error m -> "error: " ^ m

(* ---- the index as a node store --------------------------------------------- *)

module Store = struct
  type t = Reader.t
  type key = int

  (* one postings list, each entry then hopped [hops] siblings on (for
     a position past the listed ones) *)
  type bucket = { list : Reader.postings; hops : int; values : bool }

  let n_nodes = Reader.nnodes
  let connective_fuel _ = 1
  let prepare _ _ = ()
  let parent = Reader.node_parent
  let is_key r g k = Reader.node_label r g = Layout.label_key k

  let edge_key r g test =
    let w = Reader.node_label r g in
    w >= 0 && w land 1 = 0 && test (w lsr 1)

  let edge_pos r g =
    let w = Reader.node_label r g in
    if w >= 0 && w land 1 = 1 then w lsr 1 else -1

  let last_child = Reader.node_last

  (* an array element's next sibling: the first node past its
     subtree *)
  let next_sibling r c =
    if Reader.node_last r c then -1 else c + Reader.node_size r c

  let rec hop r c k =
    if k = 0 || c < 0 then c else hop r (next_sibling r c) (k - 1)

  (* node ids are preorder: an array's first element is the next id *)
  let has_element r g p =
    g + 1 < Reader.nnodes r && edge_pos r (g + 1) = 0 && hop r (g + 1) p >= 0

  let arity r g =
    let rec last c =
      if Reader.node_last r c then edge_pos r c + 1
      else last (next_sibling r c)
    in
    if has_element r g 0 then last (g + 1) else 0

  let find_key = Reader.key_id
  let key_name = Reader.key_name

  let iter_keys r f =
    for k = 0 to Reader.nkeys r - 1 do f k (Reader.key_name r k) done

  let postings list = { list; hops = 0; values = false }
  let none = postings Reader.empty_postings
  let key_bucket r k = postings (Reader.key_postings r k)

  (* past the listed positions, hop from the last listed one *)
  let pos_bucket r p =
    let npos = Reader.npos r in
    if p < npos then postings (Reader.pos_postings r p)
    else if npos = 0 then none
    else
      { (postings (Reader.pos_postings r (npos - 1))) with
        hops = p - npos + 1 }

  let value_id r = function
    | Jsont.Value.Str s -> Reader.value_id r (Layout.encode_str s)
    | Jsont.Value.Num n -> Reader.value_id r (Layout.encode_num n)
    | Jsont.Value.Obj _ | Jsont.Value.Arr _ ->
      invalid_arg "Query: eq against a non-scalar is decided by reparsing"

  let pair_bucket r pid =
    { list = Reader.pair_postings r pid; hops = 0; values = true }

  let value_bucket r h v =
    let label =
      match h with `Key k -> Layout.label_key k | `Pos p -> Layout.label_pos p
    in
    Option.bind (value_id r v) (fun vid -> Reader.pair_lookup r ~label ~vid)
    |> Option.fold ~none ~some:(pair_bucket r)
    |> Option.some

  let length b = Reader.length b.list

  (* entry [j], hopped; [-1] when a hop runs off its array *)
  let member r b j =
    let c = Reader.posting r b.list j in
    if b.hops = 0 then c else hop r c b.hops

  let count_hits b =
    if b.values then Obs.Metrics.add "index.query.value_hits" (length b)

  let iter r b f =
    count_hits b;
    for j = 0 to length b - 1 do
      let c = member r b j in
      if c >= 0 then f c
    done

  (* a value bucket hops nothing: its entries ascend *)
  let mem r b c =
    let lo = ref 0 and hi = ref (length b - 1) and found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let v = member r b mid in
      if v = c then found := true else if v < c then lo := mid + 1 else hi := mid - 1
    done;
    !found

  (* node ids are preorder: the first child is the next id, each later
     one the first past its elder sibling's subtree *)
  let children r g f =
    let stop = g + Reader.node_size r g in
    let c = ref (g + 1) in
    while !c < stop && f !c do
      c := !c + Reader.node_size r !c
    done

  let roots r = (Reader.roots r).nodes

  let root_children r = function
    | `Key k -> Some (Reader.root_children r (Layout.label_key k))
    | `Pos p when p < Reader.npos r ->
      Some (Reader.root_children r (Layout.label_pos p))
    | `Pos _ -> None

  let bucket_parents r b keep into =
    count_hits b;
    let added = ref 0 in
    for j = 0 to length b - 1 do
      let c = member r b j in
      if
        c >= 0
        &&
        match keep with
        | `All -> true
        | `In s -> Bitset.mem s c
        | `Element p -> has_element r c p
      then begin
        let p = Reader.node_parent r c in
        if p >= 0 && Bitset.add_new into p then incr added
      end
    done;
    !added

  let edge_parents r s edge into =
    let label =
      match edge with
      | `Key k -> Layout.label_key k
      | `Pos p -> Layout.label_pos p
    in
    let n = Bitset.capacity s and added = ref 0 in
    let c = ref (Bitset.next s 0) in
    while !c < n do
      let g = !c in
      if Reader.node_label r g = label then begin
        let p = Reader.node_parent r g in
        if p >= 0 && Bitset.add_new into p then incr added
      end;
      c := Bitset.next s (g + 1)
    done;
    !added

  let equal_nodes r budget v =
    let out = Bitset.create (Reader.nnodes r) in
    Option.iter
      (fun vid ->
        Reader.iter_value_pairs r vid (fun pid ->
            let b = pair_bucket r pid in
            Obs.Budget.burn budget (length b);
            iter r b (Bitset.add out)))
      (value_id r v);
    out

  let eq_paths _ ~budget:_ ~depth:_ ~lang:_ ~test:_ _ _ =
    invalid_arg "Query: EQ(α,β) is decided by reparsing"
end

module Eval = Jlogic.Jnl_eval.Make (Store)

(* [phi] with each atom postings cannot decide — EQ(α,β), and eq
   against an object or array — replaced, where it occurs positively,
   by the existence of its paths, and by ⊥ where it occurs negatively:
   a formula that holds wherever [phi] does. *)
let rec relax pos (f : Jnl.form) =
  let path = relax_path pos in
  let atom holds = if pos then holds else Jnl.ff in
  match f with
  | Jnl.True -> f
  | Jnl.Not g -> Jnl.Not (relax (not pos) g)
  | Jnl.And (a, b) -> Jnl.And (relax pos a, relax pos b)
  | Jnl.Or (a, b) -> Jnl.Or (relax pos a, relax pos b)
  | Jnl.Exists p -> Jnl.Exists (path p)
  | Jnl.Eq_doc (p, (Jsont.Value.Obj _ | Jsont.Value.Arr _)) ->
    atom (Jnl.Exists (path p))
  | Jnl.Eq_doc (p, v) -> Jnl.Eq_doc (path p, v)
  | Jnl.Eq_paths (a, b) ->
    atom (Jnl.And (Jnl.Exists (path a), Jnl.Exists (path b)))

and relax_path pos (p : Jnl.path) =
  let path = relax_path pos in
  match p with
  | Jnl.Test f -> Jnl.Test (relax pos f)
  | Jnl.Seq (a, b) -> Jnl.Seq (path a, path b)
  | Jnl.Alt (a, b) -> Jnl.Alt (path a, path b)
  | Jnl.Star a -> Jnl.Star (path a)
  | Jnl.Self | Jnl.Key _ | Jnl.Idx _ | Jnl.Keys _ | Jnl.Range _ -> p

(* ---- document reparse ------------------------------------------------------ *)

let root_cell ~fresh_budget phi tree =
  let ctx = Jlogic.Jnl_eval.context ~budget:(fresh_budget ()) tree in
  string_of_bool
    (Obs.Metrics.span "phase.eval" (fun () -> Jlogic.Jnl_eval.holds ctx Jsont.Tree.root phi))

let doc_cell ~fresh_budget phi read =
  let parsed = ref false in
  let cell =
    Par.Batch.cell (fun () ->
        let text = read () in
        let tree =
          Obs.Metrics.span "phase.parse" (fun () ->
              Jsont.Tree.of_string_exn ~budget:(fresh_budget ()) text)
        in
        parsed := true;
        root_cell ~fresh_budget phi tree)
  in
  (cell, !parsed)

(* The verdicts of [docs], read back by byte range and evaluated by
   {!doc_cell}, each with whether its text parsed: a cell that failed
   before that does not depend on [phi]. *)
let reparse r ~corpus ~jobs ~fresh_budget phi docs =
  let text ic d =
    In_channel.seek ic (Int64.of_int (Reader.doc_off r d));
    match In_channel.really_input_string ic (Reader.doc_len r d) with
    | Some s -> s
    | None -> failwith "corpus shorter than the index records"
  in
  let cell text =
    let c, parsed = doc_cell ~fresh_budget phi (fun () -> text) in
    let v =
      match c with
      | "true" -> True
      | "false" -> False
      | c -> Error (String.sub c 7 (String.length c - 7))
    in
    (v, parsed)
  in
  In_channel.with_open_bin corpus (fun ic -> Array.map (text ic) docs)
  |> Par.Batch.map ~jobs cell

(* ---- the stale-corpus check -------------------------------------------------- *)

(* The corpus must hold the bytes the index was built over: its size is
   checked on every query, its checksum whenever its identity differs
   from the one the reader last verified. *)
let check_corpus r corpus =
  let stale why =
    failwith
      (Printf.sprintf "%s: %s (stale index? rebuild with 'index build')" corpus
         why)
  in
  let st =
    match Unix.stat corpus with
    | st -> st
    | exception Unix.Unix_error (e, _, _) ->
      failwith (corpus ^ ": " ^ Unix.error_message e)
  in
  if st.Unix.st_size <> Reader.corpus_len r then
    stale
      (Printf.sprintf "corpus is %d bytes but the index was built over %d"
         st.Unix.st_size (Reader.corpus_len r));
  let id =
    { Reader.file = corpus; size = st.Unix.st_size; mtime = st.Unix.st_mtime;
      inode = st.Unix.st_ino }
  in
  if Reader.verified_corpus r <> Some id then begin
    if Layout.checksum_file corpus <> Reader.corpus_checksum r then
      stale "corpus bytes differ from those the index was built over";
    Reader.set_verified_corpus r id
  end

(* ---- driver ---------------------------------------------------------------- *)

let run ?(jobs = 1) ?corpus
    ?(fresh_budget = fun () -> Obs.Budget.create ()) r phi =
  let corpus =
    match corpus with Some c -> c | None -> Reader.corpus_path r
  in
  try
    Obs.Metrics.span "index.query" @@ fun () ->
    check_corpus r corpus;
    let ctx = Eval.context ~budget:(fresh_budget ()) r in
    let f = relax true phi in
    let sat = Eval.eval_in ctx `Roots f and exact = Jnl.equal f phi in
    Obs.Metrics.add "index.plan.reorders" (Eval.reorders ctx);
    Obs.Metrics.incr
      (if exact then "index.query.postings_only" else "index.query.filtered");
    (* a document is its root's verdict: one merge of the answer with
       the roots.  An error-flagged line's verdict is its parse error:
       read from the reader's slot when the slot holds this corpus file
       and these budget limits, reparsed otherwise — and always when it
       parses under them *)
    let limits = Obs.Budget.limits (fresh_budget ()) in
    let known =
      match (limits, Reader.error_cells r) with
      | Some l, Some c when c.limits = l && c.corpus = corpus -> Some c.failed
      | _ -> None
    in
    let roots = Reader.roots r in
    let verdicts = Array.make (Reader.ndocs r) False in
    let admitted = ref [] and k = ref 0 in
    Array.iter
      (fun g ->
        while roots.nodes.(!k) < g do incr k done;
        let d = roots.docs.(!k) in
        if exact then verdicts.(d) <- True else admitted := (d, false) :: !admitted)
      sat;
    let flagged =
      List.filter_map
        (fun d ->
          match Option.bind known (Reader.Cells.find_opt d) with
          | Some m ->
            verdicts.(d) <- Error m;
            None
          | None -> Some (d, true))
        (Array.to_list roots.errors)
    in
    (* the documents to reparse in line order, each with whether it is
       error-flagged *)
    let todo =
      Array.of_list
        (List.merge (fun (a, _) (b, _) -> Int.compare a b) (List.rev !admitted) flagged)
    in
    let docs = Array.map fst todo in
    Obs.Metrics.add "index.query.reparsed" (Array.length docs);
    if docs <> [||] then begin
      let results = reparse r ~corpus ~jobs ~fresh_budget phi docs in
      Array.iteri (fun i (v, _) -> verdicts.(docs.(i)) <- v) results;
      (* every error-flagged line was just reparsed under [limits] *)
      match (limits, known) with
      | Some limits, None ->
        let failed = ref Reader.Cells.empty in
        Array.iteri
          (fun i (v, parsed) ->
            match v with
            | Error m when (not parsed) && snd todo.(i) ->
              failed := Reader.Cells.add docs.(i) m !failed
            | _ -> ())
          results;
        Reader.set_error_cells r { corpus; limits; failed = !failed }
      | _ -> ()
    end;
    Ok verdicts
  with
  | Reader.Corrupt m -> Result.Error (Reader.path r ^ ": " ^ m)
  | Failure m -> Result.Error m
  | Sys_error m -> Result.Error m
  | Obs.Budget.Exhausted reason -> Result.Error (Obs.Budget.describe reason)
