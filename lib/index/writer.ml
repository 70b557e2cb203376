(* Corpus index construction, in two stages.

   On the [--jobs] lanes each line is lexed once, straight into its
   index columns — parent distance, label word, subtree size and value
   slot, four 32-bit words per node in one [Bytes] per line — with its
   keys and scalar values numbered line-locally.  The loop applies
   exactly the checks and the budget draw of [Tree.of_string], through
   the same {!Jsont.Parser} helpers, so a line is flagged exactly when
   that parse would reject it; no tree is built.

   On the main domain the key and value tables are sorted once; one
   pass rewrites each line's labels to global key ids while it counts
   postings; key and position postings fill by counting sort; and the
   value postings come from one stable radix sort of (label, value id)
   keys carrying their node ids.

   Determinism is load-bearing (the CI gate byte-compares builds with
   different lane counts): documents keep their line order through
   [Par.Batch.map], the key and value tables are sorted, and postings
   fill in node-id order — nothing in the output depends on
   scheduling. *)

module Lexer = Jsont.Lexer
module Parser = Jsont.Parser

type stats = {
  docs : int;
  errors : int;
  nodes : int;
  keys : int;
  key_postings : int;
  pos_postings : int;
  values : int;
  value_pairs : int;
  value_postings : int;
  bytes : int;
}

(* ---- the lanes: one line into its columns -------------------------------- *)

(* Distinct keys, string values or numbers, numbered in order of first
   sight.  Open addressing: [slots] holds id + 1 (0 is empty) and stays
   at most half full.  [words] is a string's hash or the number itself;
   a string is compared in place off the lexer's current token (the
   [named] lexer), so it is allocated once, when first seen. *)
type table = {
  mutable slots : int array;
  mutable words : int array;  (* by id *)
  mutable names : string array;  (* by id; [""] for numbers *)
  mutable count : int;
}

let table () =
  { slots = Array.make 16 0; words = Array.make 8 0; names = Array.make 8 "";
    count = 0 }

let spread w =
  let h = w * 0x1F42D4C957F2D in
  h lxor (h lsr 29)

let rec probe t named w mask i =
  let s = Array.unsafe_get t.slots i in
  if
    s = 0
    || Array.unsafe_get t.words (s - 1) = w
       &&
       match named with
       | None -> true
       | Some lx -> Lexer.string_equal lx (Array.unsafe_get t.names (s - 1))
  then i
  else probe t named w mask ((i + 1) land mask)

let double a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let intern t named w =
  let mask = Array.length t.slots - 1 in
  let i = probe t named w mask (spread w land mask) in
  if t.slots.(i) > 0 then t.slots.(i) - 1
  else begin
    let id = t.count in
    if id = Array.length t.words then begin
      t.words <- double t.words 0;
      t.names <- double t.names ""
    end;
    t.words.(id) <- w;
    (match named with Some lx -> t.names.(id) <- Lexer.string_value lx | None -> ());
    t.slots.(i) <- id + 1;
    t.count <- id + 1;
    if 2 * t.count > Array.length t.slots then begin
      let mask = (2 * Array.length t.slots) - 1 in
      let slots = Array.make (mask + 1) 0 in
      for id = 0 to t.count - 1 do
        let i = ref (spread t.words.(id) land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- id + 1
      done;
      t.slots <- slots
    end;
    id
  end

(* A line's columns while it parses: four word arrays of [cap] words,
   side by side in one buffer, doubled when outgrown. *)
type cols = { mutable cap : int; mutable n : int; mutable b : Bytes.t }

let col_par = 0 (* distance to the parent, 0 at the root *)
let col_lab = 1 (* label word (line-local key ids) with the last-element bit *)
let col_siz = 2 (* subtree size *)
let col_val = 3 (* value slot: string id lsl 1, number id lsl 1 lor 1, or -1 *)

let set c col i v = Layout.set_i32 c.b (4 * ((col * c.cap) + i)) v
let get c col i = Layout.get_i32 c.b (4 * ((col * c.cap) + i))

let resize c cap =
  let b = Bytes.create (16 * cap) in
  for col = 0 to 3 do
    Bytes.blit c.b (4 * col * c.cap) b (4 * col * cap) (4 * c.n)
  done;
  c.b <- b;
  c.cap <- cap

let add_node c parent label =
  if c.n = c.cap then resize c (2 * c.cap);
  let id = c.n in
  set c col_par id (if parent < 0 then 0 else id - parent);
  set c col_lab id label;
  set c col_siz id 1;
  set c col_val id (-1);
  c.n <- id + 1;
  id

(* One line as the index needs it: [cols] holds [nodes] words per
   column ([col_par] and after), and [keys], [strs] and [nums] its
   keys, string values and numbers by local id.  A flagged line has no
   nodes. *)
type line = {
  lineno : int;
  off : int;
  len : int;
  err : bool;
  nodes : int;
  leaves : int;  (* nodes with a value slot *)
  cols : Bytes.t;
  keys : string array;
  strs : string array;
  nums : int array;
}

(* [Tree.of_string ~budget text] without the tree: the same token
   reads, checks, guard per value ([~units:2]), [parse.values] count
   and duplicate-key set, the nodes numbered in the same preorder. *)
let parse_line ~fresh_budget text (lineno, off, len) =
  let budget = fresh_budget () in
  let lx = Lexer.create (String.sub text off len) in
  let named = Some lx in
  (* records run 9–14 bytes per node; a long line grows by doubling *)
  let cap = 16 + min (len / 8) 65536 in
  let c = { cap; n = 0; b = Bytes.create (16 * cap) } in
  let keys = table () and strs = table () and nums = table () in
  let seen = Jsont.Keyset.create () in
  let values = ref 0 and leaves = ref 0 and too_wide = ref (-1) in
  let rec value parent label depth =
    let k = Lexer.next_kind lx in
    Parser.guard ~units:2 budget lx depth;
    incr values;
    let id = add_node c parent label in
    (match k with
    | Lexer.K_lbrace -> obj id depth
    | Lexer.K_lbracket -> arr id depth
    | Lexer.K_nat ->
      incr leaves;
      set c col_val id ((intern nums None (Lexer.int_value lx) lsl 1) lor 1)
    | Lexer.K_string ->
      incr leaves;
      set c col_val id (intern strs named (Lexer.string_hash lx) lsl 1)
    | Lexer.K_neg_int | Lexer.K_float | Lexer.K_true | Lexer.K_false
    | Lexer.K_null ->
      ignore (Parser.literal_atom `Strict lx k)
    | Lexer.K_rbrace | Lexer.K_rbracket | Lexer.K_colon | Lexer.K_comma
    | Lexer.K_eof ->
      Parser.unexpected_at lx "a JSON value");
    id
  and obj id depth =
    let mark = Jsont.Keyset.mark seen in
    let rec members () =
      match Lexer.next_kind lx with
      | Lexer.K_string ->
        let h = Lexer.string_hash lx in
        let kid = intern keys named h in
        let key = keys.names.(kid) in
        if not (Jsont.Keyset.add seen mark h key) then
          Parser.fail_at lx "duplicate object key %S" key;
        Parser.expect_colon lx;
        ignore (value id (Layout.label_key kid) (depth + 1));
        (match Lexer.next_kind lx with
        | Lexer.K_comma -> members ()
        | Lexer.K_rbrace -> ()
        | _ -> Parser.unexpected_at lx "',' or '}'")
      | _ -> Parser.unexpected_at lx "a string key"
    in
    (match Lexer.peek_kind lx with
    | Lexer.K_rbrace -> ignore (Lexer.next_kind lx)
    | _ -> members ());
    Jsont.Keyset.release seen mark;
    set c col_siz id (c.n - id)
  and arr id depth =
    let rec elements p =
      if p > Layout.max_pos_label && !too_wide < 0 then too_wide := p;
      let e = value id (Layout.label_pos p) (depth + 1) in
      match Lexer.next_kind lx with
      | Lexer.K_comma -> elements (p + 1)
      | Lexer.K_rbracket ->
        set c col_lab e (get c col_lab e lor Layout.label_last)
      | _ -> Parser.unexpected_at lx "',' or ']'"
    in
    (match Lexer.peek_kind lx with
    | Lexer.K_rbracket -> ignore (Lexer.next_kind lx)
    | _ -> elements 0);
    set c col_siz id (c.n - id)
  in
  let parsed =
    match
      ignore (value (-1) Layout.label_root 0);
      Parser.expect_eof lx
    with
    | () -> true
    | exception (Parser.Parse_error _ | Lexer.Error _) -> false
  in
  if !values > 0 then Obs.Metrics.add "parse.values" !values;
  if not parsed then
    { lineno; off; len; err = true; nodes = 0; leaves = 0; cols = Bytes.empty;
      keys = [||]; strs = [||]; nums = [||] }
  else begin
    if !too_wide >= 0 then
      failwith
        (Printf.sprintf "line %d: array position %d exceeds the index limit"
           lineno !too_wide);
    if c.cap > c.n then resize c c.n;
    { lineno; off; len; err = false; nodes = c.n; leaves = !leaves; cols = c.b;
      keys = Array.sub keys.names 0 keys.count;
      strs = Array.sub strs.names 0 strs.count;
      nums = Array.sub nums.words 0 nums.count }
  end

(* Split the corpus into (lineno, offset, length) line slices, the
   same way [validate --stream] counts them: every '\n'-delimited
   piece bumps the line number, pieces that [String.trim] would empty
   are skipped, an unterminated last line still counts. *)
let line_slices text =
  let n = String.length text in
  let out = ref [] and lineno = ref 0 and start = ref 0 in
  while !start < n do
    incr lineno;
    let stop =
      match String.index_from_opt text !start '\n' with Some i -> i | None -> n
    in
    let rec blank i =
      i = stop
      ||
      match String.unsafe_get text i with
      | ' ' | '\t' | '\r' | '\012' -> blank (i + 1)
      | _ -> false
    in
    if not (blank !start) then out := (!lineno, !start, stop - !start) :: !out;
    start := stop + 1
  done;
  Array.of_list (List.rev !out)

(* ---- the main domain: tables, columns and postings ----------------------- *)

(* The corpus-wide number of each of [names], numbering new ones in
   order of first sight ([order] newest first). *)
let number ids order names =
  Array.map
    (fun w ->
      match Hashtbl.find_opt ids w with
      | Some g -> g
      | None ->
        let g = Hashtbl.length ids in
        Hashtbl.add ids w g;
        order := w :: !order;
        g)
    names

(* [strs] sorted, and the rank there of each [strs.(i)]. *)
let sorted_ranks strs =
  let idx = Array.init (Array.length strs) Fun.id in
  Array.sort (fun i j -> String.compare strs.(i) strs.(j)) idx;
  let rank = Array.make (Array.length strs) 0 in
  Array.iteri (fun r i -> rank.(i) <- r) idx;
  (Array.map (fun i -> strs.(i)) idx, rank)

let prefix counts n =
  let idx = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    idx.(i + 1) <- idx.(i) + counts.(i)
  done;
  idx

(* Stable LSD radix sort of [keys] (non-negative, below [2^bits]),
   carrying [vals] along. *)
let radix_sort keys vals bits =
  let n = Array.length keys in
  let digit = 11 in
  let mask = (1 lsl digit) - 1 in
  let count = Array.make (mask + 1) 0 in
  let rec pass keys vals tk tv shift =
    if shift >= bits then (keys, vals)
    else begin
      Array.fill count 0 (mask + 1) 0;
      for i = 0 to n - 1 do
        let d = (keys.(i) lsr shift) land mask in
        count.(d) <- count.(d) + 1
      done;
      let sum = ref 0 in
      for d = 0 to mask do
        let c = count.(d) in
        count.(d) <- !sum;
        sum := !sum + c
      done;
      for i = 0 to n - 1 do
        let k = keys.(i) in
        let d = (k lsr shift) land mask in
        let j = count.(d) in
        tk.(j) <- k;
        tv.(j) <- vals.(i);
        count.(d) <- j + 1
      done;
      pass tk tv keys vals (shift + digit)
    end
  in
  pass keys vals (Array.make n 0) (Array.make n 0) 0

let rec bit_width k = if k = 0 then 0 else 1 + bit_width (k lsr 1)

(* Everything the file holds but the document table and the corpus
   path.  The lines' label columns carry global key ids by now. *)
type index = {
  lines : line array;
  nnodes : int;
  keys : string array;
  key_pidx : int array;
  kpost : Bytes.t;
  npos : int;
  pos_pidx : int array;
  ppost : Bytes.t;
  vals : string array;
  pairs : Bytes.t;
  pair_pidx : int array;
  vpost : Bytes.t;
}

let postings n = Bytes.make (Layout.pad8 (n * Layout.posting_bytes)) '\000'

let assemble (lines : line array) =
  let nnodes =
    Array.fold_left
      (fun a l ->
        let a = a + l.nodes in
        if a >= Layout.max_nodes then
          failwith
            (Printf.sprintf
               "line %d: the corpus reaches %d nodes; an index holds fewer \
                than 2^32"
               l.lineno a);
        a)
      0 lines
  in
  (* key and value tables: every line's names numbered corpus-wide,
     then sorted, so the file never depends on the order they were
     first seen in.  A value id is a rank among the encodings of the
     numbers, then the strings. *)
  let kids = Hashtbl.create 64 and korder = ref [] in
  let sids = Hashtbl.create 256 and sorder = ref [] in
  let nids = table () in
  let kmaps = Array.map (fun (l : line) -> number kids korder l.keys) lines in
  let smaps = Array.map (fun l -> number sids sorder l.strs) lines in
  let nmaps = Array.map (fun l -> Array.map (intern nids None) l.nums) lines in
  let keys, krank = sorted_ranks (Array.of_list (List.rev !korder)) in
  let nnums = nids.count in
  let vals, vrank =
    sorted_ranks
      (Array.append
         (Array.init nnums (fun g -> Layout.encode_num nids.words.(g)))
         (Array.of_list (List.rev_map Layout.encode_str !sorder)))
  in
  let nkeys = Array.length keys and nvals = Array.length vals in
  (* one pass over the nodes: labels to global key ids, postings
     counted, one (label, value id) key per scalar leaf *)
  let key_counts = Array.make nkeys 0 in
  let pos_counts = Array.make Layout.pos_cap 0 in
  let max_pos = ref (-1) in
  let nleaves = Array.fold_left (fun a l -> a + l.leaves) 0 lines in
  let vkeys = Array.make nleaves 0 and vnodes = Array.make nleaves 0 in
  let e = ref 0 and kmax = ref 0 and base = ref 0 in
  Array.iteri
    (fun d l ->
      let kmap = kmaps.(d) and smap = smaps.(d) and nmap = nmaps.(d) in
      let lab = 4 * col_lab * l.nodes and vsl = 4 * col_val * l.nodes in
      for i = 0 to l.nodes - 1 do
        let w = Layout.get_i32 l.cols (lab + (4 * i)) in
        let w =
          if w < 0 then w
          else if w land 1 = 0 then begin
            let g = krank.(kmap.(w lsr 1)) in
            key_counts.(g) <- key_counts.(g) + 1;
            Layout.set_i32 l.cols (lab + (4 * i)) (Layout.label_key g);
            Layout.label_key g
          end
          else begin
            let p = (w lsr 1) land Layout.max_pos_label in
            if p > !max_pos then max_pos := p;
            if p < Layout.pos_cap then pos_counts.(p) <- pos_counts.(p) + 1;
            w land lnot Layout.label_last
          end
        in
        let v = Layout.get_i32 l.cols (vsl + (4 * i)) in
        if v >= 0 then begin
          let vid =
            if v land 1 = 0 then vrank.(nnums + smap.(v lsr 1))
            else vrank.(nmap.(v lsr 1))
          in
          (* the root's label is -1 *)
          let k = ((w + 1) * nvals) + vid in
          if k > !kmax then kmax := k;
          vkeys.(!e) <- k;
          vnodes.(!e) <- !base + i;
          incr e
        end
      done;
      base := !base + l.nodes)
    lines;
  let npos = min Layout.pos_cap (!max_pos + 1) in
  let key_pidx = prefix key_counts nkeys in
  let pos_pidx = prefix pos_counts npos in
  (* key and position postings: counting sort, in node-id order *)
  let kpost = postings key_pidx.(nkeys) and ppost = postings pos_pidx.(npos) in
  let kcur = Array.copy key_pidx and pcur = Array.copy pos_pidx in
  let put post cur i g =
    Layout.set_u32 post (cur.(i) * Layout.posting_bytes) g;
    cur.(i) <- cur.(i) + 1
  in
  let base = ref 0 in
  Array.iter
    (fun l ->
      let lab = 4 * col_lab * l.nodes in
      for i = 0 to l.nodes - 1 do
        let w = Layout.get_i32 l.cols (lab + (4 * i)) in
        if w >= 0 then
          if w land 1 = 0 then put kpost kcur (w lsr 1) (!base + i)
          else begin
            let p = (w lsr 1) land Layout.max_pos_label in
            if p < npos then put ppost pcur p (!base + i)
          end
      done;
      base := !base + l.nodes)
    lines;
  (* value postings: the sorted keys' runs are the pairs, in table
     order, and each run's nodes stay in node-id order *)
  let vkeys, vnodes = radix_sort vkeys vnodes (bit_width !kmax) in
  let npairs = ref 0 in
  Array.iteri (fun j k -> if j = 0 || k <> vkeys.(j - 1) then incr npairs) vkeys;
  let pairs = Bytes.create (!npairs * 8) in
  let pair_pidx = Array.make (!npairs + 1) nleaves in
  let vpost = postings nleaves in
  let p = ref (-1) in
  Array.iteri
    (fun j k ->
      if j = 0 || k <> vkeys.(j - 1) then begin
        incr p;
        Layout.set_i32 pairs (!p * 8) ((k / nvals) - 1);
        Layout.set_u32 pairs ((!p * 8) + 4) (k mod nvals);
        pair_pidx.(!p) <- j
      end;
      Layout.set_u32 vpost (j * Layout.posting_bytes) vnodes.(j))
    vkeys;
  { lines; nnodes; keys; key_pidx; kpost; npos; pos_pidx; ppost; vals; pairs;
    pair_pidx; vpost }

(* ---- the file -------------------------------------------------------------- *)

(* A fresh temporary file next to [output]: the pid and a counter name
   it, [O_EXCL] makes it this build's alone, so concurrent builds of
   one output never share (or clobber) a half-written file. *)
let temp_counter = Atomic.make 0

let rec open_temp output =
  let tmp =
    Printf.sprintf "%s.%d-%d.tmp" output (Unix.getpid ())
      (Atomic.fetch_and_add temp_counter 1)
  in
  match
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL; Unix.O_CLOEXEC ]
      0o666
  with
  | fd -> (tmp, fd)
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> open_temp output

(* The process id in an {!open_temp} name of [output], if [name] is
   one. *)
let temp_pid output name =
  let pre = Filename.basename output ^ "." and suf = ".tmp" in
  let lp = String.length pre and ln = String.length name in
  if
    ln > lp + String.length suf
    && String.starts_with ~prefix:pre name
    && String.ends_with ~suffix:suf name
  then
    Scanf.sscanf_opt
      (String.sub name lp (ln - lp - String.length suf))
      "%u-%u%!" (fun pid _ -> pid)
  else None

(* Remove the temporary files of builds of [output] that died before
   their rename (killed by a signal, say): those whose process is gone.
   A live process's file — another build's, in flight — stays. *)
let sweep_temps output =
  let dir = Filename.dirname output in
  let gone pid =
    match Unix.kill pid 0 with
    | () -> false
    | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
    | exception Unix.Unix_error _ -> false
  in
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | names ->
    Array.iter
      (fun name ->
        match temp_pid output name with
        | Some pid when pid > 0 && gone pid -> (
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        | _ -> ())
      names

(* Make the rename durable; a filesystem that cannot sync a directory
   says [EINVAL]. *)
let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try Unix.fsync fd with Unix.Unix_error (Unix.EINVAL, _, _) -> ())

(* Serialization: sections are emitted in file order through one
   channel, folding the body checksum as they go — the node columns
   straight from each line's buffer; the header (which names every
   section offset plus both checksums) is written last by seeking back
   to the start.  The file is fsynced before the rename, its directory
   after it, and the file is removed on every failure, so [output] is
   always either the previous index or the complete new one.  The
   size of the file. *)
let write ~corpus ~output ~text ix =
  let { lines; nnodes; keys; key_pidx; kpost; npos; pos_pidx; ppost; vals;
        pairs; pair_pidx; vpost } =
    ix
  in
  let ndocs = Array.length lines in
  let nkeys = Array.length keys and nvals = Array.length vals in
  let npairs = Array.length pair_pidx - 1 in
  let blob_len strs = Array.fold_left (fun a w -> a + String.length w) 0 strs in
  let sz_column = Layout.pad8 (nnodes * 4) in
  let sz_index n = (n + 1) * 8 in
  let o_doc = Layout.header_bytes in
  let o_par = o_doc + (ndocs * Layout.doc_entry_bytes) in
  let o_lab = o_par + sz_column in
  let o_siz = o_lab + sz_column in
  let o_sidx = o_siz + sz_column in
  let o_blob = o_sidx + sz_index nkeys in
  let o_kpidx = o_blob + Layout.pad8 (blob_len keys) in
  let o_kpost = o_kpidx + sz_index nkeys in
  let o_ppidx = o_kpost + Bytes.length kpost in
  let o_ppost = o_ppidx + sz_index npos in
  let o_vidx = o_ppost + Bytes.length ppost in
  let o_vblob = o_vidx + sz_index nvals in
  let o_pair = o_vblob + Layout.pad8 (blob_len vals) in
  let o_prpidx = o_pair + Bytes.length pairs in
  let o_vpost = o_prpidx + sz_index npairs in
  let o_cpath = o_vpost + Bytes.length vpost in
  let file_size = o_cpath + Layout.pad8 (4 + String.length corpus) in
  let tmp, fd = open_temp output in
  (try
     let oc = Unix.out_channel_of_descr fd in
     set_binary_mode_out oc true;
     Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
         seek_out oc Layout.header_bytes;
         let body_sum = ref Layout.checksum_init in
         let emit_sub b off len =
           body_sum := Layout.checksum_bytes !body_sum b off len;
           Stdlib.output oc b off len
         in
         let emit b = emit_sub b 0 (Bytes.length b) in
         (* document table *)
         let b = Bytes.make (ndocs * Layout.doc_entry_bytes) '\000' in
         let base = ref 0 in
         Array.iteri
           (fun i l ->
             let o = i * Layout.doc_entry_bytes in
             Layout.set_u64 b o l.off;
             Layout.set_u64 b (o + 8) !base;
             Layout.set_u32 b (o + 16) l.len;
             Layout.set_u32 b (o + 20) l.nodes;
             Layout.set_u32 b (o + 24) l.lineno;
             Layout.set_u32 b (o + 28) (if l.err then 1 else 0);
             base := !base + l.nodes)
           lines;
         emit b;
         (* parent distances, labels with the last-element bit, subtree
            sizes *)
         let column col =
           Array.iter
             (fun l -> emit_sub l.cols (4 * col * l.nodes) (4 * l.nodes))
             lines;
           emit (Bytes.make (sz_column - (4 * nnodes)) '\000')
         in
         column col_par;
         column col_lab;
         column col_siz;
         (* a u64 array; a sorted string table as its offset index and
            padded blob *)
         let emit_u64s a =
           let b = Bytes.make (Array.length a * 8) '\000' in
           Array.iteri (fun i v -> Layout.set_u64 b (i * 8) v) a;
           emit b
         in
         let emit_strings strs =
           let offs = Array.make (Array.length strs + 1) 0 in
           Array.iteri
             (fun i w -> offs.(i + 1) <- offs.(i) + String.length w)
             strs;
           emit_u64s offs;
           let b = Bytes.make (Layout.pad8 offs.(Array.length strs)) '\000' in
           Array.iteri
             (fun i w -> Bytes.blit_string w 0 b offs.(i) (String.length w))
             strs;
           emit b
         in
         emit_strings keys;
         emit_u64s key_pidx;
         emit kpost;
         emit_u64s pos_pidx;
         emit ppost;
         emit_strings vals;
         emit pairs;
         emit_u64s pair_pidx;
         emit vpost;
         (* corpus path *)
         let b = Bytes.make (file_size - o_cpath) '\000' in
         Layout.set_u32 b 0 (String.length corpus);
         Bytes.blit_string corpus 0 b 4 (String.length corpus);
         emit b;
         (* header, last: it carries the body checksum *)
         let h = Bytes.make Layout.header_bytes '\000' in
         Bytes.blit_string Layout.magic 0 h 0 8;
         Layout.set_u32 h Layout.Field.version Layout.version;
         Layout.set_u32 h Layout.Field.npos npos;
         Layout.set_u64 h Layout.Field.file_size file_size;
         Layout.set_u64 h Layout.Field.ndocs ndocs;
         Layout.set_u64 h Layout.Field.nnodes nnodes;
         Layout.set_u64 h Layout.Field.nkeys nkeys;
         Layout.set_u64 h Layout.Field.key_entries key_pidx.(nkeys);
         Layout.set_u64 h Layout.Field.pos_entries pos_pidx.(npos);
         Layout.set_u64 h Layout.Field.corpus_len (String.length text);
         Layout.set_u64 h Layout.Field.doc_table o_doc;
         Layout.set_u64 h Layout.Field.parents o_par;
         Layout.set_u64 h Layout.Field.labels o_lab;
         Layout.set_u64 h Layout.Field.strtab_idx o_sidx;
         Layout.set_u64 h Layout.Field.strtab_blob o_blob;
         Layout.set_u64 h Layout.Field.strtab_blob_len (blob_len keys);
         Layout.set_u64 h Layout.Field.key_pidx o_kpidx;
         Layout.set_u64 h Layout.Field.key_post o_kpost;
         Layout.set_u64 h Layout.Field.pos_pidx o_ppidx;
         Layout.set_u64 h Layout.Field.pos_post o_ppost;
         Layout.set_u64 h Layout.Field.corpus_path o_cpath;
         Layout.set_u64 h Layout.Field.nvals nvals;
         Layout.set_u64 h Layout.Field.npairs npairs;
         Layout.set_u64 h Layout.Field.val_entries pair_pidx.(npairs);
         Layout.set_u64 h Layout.Field.valtab_idx o_vidx;
         Layout.set_u64 h Layout.Field.valtab_blob o_vblob;
         Layout.set_u64 h Layout.Field.valtab_blob_len (blob_len vals);
         Layout.set_u64 h Layout.Field.pair_table o_pair;
         Layout.set_u64 h Layout.Field.pair_pidx o_prpidx;
         Layout.set_u64 h Layout.Field.val_post o_vpost;
         Layout.set_u64 h Layout.Field.sizes o_siz;
         Layout.set_u64 h Layout.Field.corpus_checksum
           (Layout.checksum_text Layout.checksum_init text);
         Layout.set_u64 h Layout.Field.body_checksum !body_sum;
         let hsum =
           Layout.checksum_bytes Layout.checksum_init h 0
             Layout.Field.header_checksum
         in
         Layout.set_u64 h Layout.Field.header_checksum hsum;
         seek_out oc 0;
         output_bytes oc h;
         flush oc;
         Unix.fsync fd);
     Sys.rename tmp output
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  fsync_dir (Filename.dirname output);
  file_size

let build ?(jobs = 1) ?(fresh_budget = fun () -> Obs.Budget.create ())
    ~corpus ~output () =
  try
    Obs.Metrics.span "index.build" @@ fun () ->
    sweep_temps output;
    let text, lines =
      Obs.Metrics.span "index.build.parse" (fun () ->
          let text = In_channel.with_open_bin corpus In_channel.input_all in
          (text, Par.Batch.map ~jobs (parse_line ~fresh_budget text) (line_slices text)))
    in
    let ix = Obs.Metrics.span "index.build.assemble" (fun () -> assemble lines) in
    let bytes =
      Obs.Metrics.span "index.build.write" (fun () -> write ~corpus ~output ~text ix)
    in
    let s =
      { docs = Array.length lines;
        errors = Array.fold_left (fun a l -> if l.err then a + 1 else a) 0 lines;
        nodes = ix.nnodes;
        keys = Array.length ix.keys;
        key_postings = ix.key_pidx.(Array.length ix.keys);
        pos_postings = ix.pos_pidx.(ix.npos);
        values = Array.length ix.vals;
        value_pairs = Array.length ix.pair_pidx - 1;
        value_postings = ix.pair_pidx.(Array.length ix.pair_pidx - 1);
        bytes }
    in
    Obs.Metrics.add "index.build.docs" s.docs;
    Obs.Metrics.add "index.build.errors" s.errors;
    Obs.Metrics.add "index.build.nodes" s.nodes;
    Obs.Metrics.add "index.build.keys" s.keys;
    Obs.Metrics.add "index.build.postings" (s.key_postings + s.pos_postings);
    Obs.Metrics.add "index.build.values" s.values;
    Obs.Metrics.add "index.build.value_postings" s.value_postings;
    Obs.Metrics.add "index.build.bytes" s.bytes;
    Ok s
  with
  | Failure m -> Error m
  | Sys_error m -> Error m
  | Unix.Unix_error (e, _, arg) -> Error (arg ^ ": " ^ Unix.error_message e)
  | Obs.Budget.Exhausted r -> Error (Obs.Budget.describe r)
