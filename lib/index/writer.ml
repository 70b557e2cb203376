(* Corpus index construction: parse every NDJSON line into a flat
   tree, strip each tree down to its parent/edge-label columns, and
   serialize the lot as the mmap-friendly layout of {!Layout}.

   Determinism is load-bearing (the CI gate byte-compares builds with
   different lane counts): documents keep their line order through
   [Par.Batch.map], the key table is sorted lexicographically, and
   postings fill in node-id order — nothing in the output depends on
   scheduling. *)

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
  value_dropped : int;
  bytes : int;
}

module Ints = Hashtbl.Make (Int)

(* One parsed document, reduced to what the index stores.  [labels]
   uses a doc-local key numbering ([lkeys]) remapped to the global
   sorted table during assembly; [vals] likewise uses a doc-local
   scalar-value numbering ([lvals], canonically encoded). *)
type draw = {
  lineno : int;
  off : int;
  len : int;
  parents : int array;  (* local parent id, -1 for the root *)
  sizes : int array;  (* subtree sizes *)
  labels : int array;  (* local encoding: key k -> k lsl 1, pos p -> p lsl 1 or 1 *)
  lasts : bool array;  (* last element of its array *)
  lkeys : string array;
  vals : int array;  (* local value id of each scalar leaf, -1 elsewhere;
                        its pair id after assembly *)
  lvals : string array;
  err : bool;
}

let parse_doc ~fresh_budget ~values ~lineno ~off text =
  let len = String.length text in
  let failed =
    { lineno; off; len; parents = [||]; sizes = [||]; labels = [||];
      lasts = [||]; lkeys = [||]; vals = [||]; lvals = [||]; err = true }
  in
  match Jsont.Tree.of_string ~budget:(fresh_budget ()) text with
  | Error _ -> failed
  | Ok t ->
    let n = Jsont.Tree.node_count t in
    let parents = Array.make n (-1) in
    let sizes = Array.init n (Jsont.Tree.size t) in
    let labels = Array.make n (-1) in
    let lasts = Array.make n false in
    let vals = Array.make (if values then n else 0) (-1) in
    let ktab = Hashtbl.create 16 in
    let klist = ref [] in
    let nkeys = ref 0 in
    let vtab = Hashtbl.create 16 in
    let vlist = ref [] in
    let nvals = ref 0 in
    let scalar i enc =
      match Hashtbl.find_opt vtab enc with
      | Some v -> vals.(i) <- v
      | None ->
        Hashtbl.add vtab enc !nvals;
        vlist := enc :: !vlist;
        vals.(i) <- !nvals;
        incr nvals
    in
    for i = 0 to n - 1 do
      parents.(i) <- Jsont.Tree.parent_id t i;
      (if values then
         match Jsont.Tree.kind t i with
         | Jsont.Tree.Kstr s -> scalar i (Layout.encode_str s)
         | Jsont.Tree.Kint v -> scalar i (Layout.encode_num v)
         | Jsont.Tree.Kobj | Jsont.Tree.Karr -> ());
      match Jsont.Tree.edge_from_parent t i with
      | Jsont.Tree.Root -> ()
      | Jsont.Tree.Key w ->
        let k =
          match Hashtbl.find_opt ktab w with
          | Some k -> k
          | None ->
            let k = !nkeys in
            Hashtbl.add ktab w k;
            klist := w :: !klist;
            incr nkeys;
            k
        in
        labels.(i) <- k lsl 1
      | Jsont.Tree.Pos p ->
        if p > Layout.max_pos_label then
          failwith
            (Printf.sprintf "line %d: array position %d exceeds the index limit"
               lineno p);
        labels.(i) <- (p lsl 1) lor 1;
        lasts.(i) <- p = Jsont.Tree.arity t parents.(i) - 1
    done;
    let lkeys = Array.of_list (List.rev !klist) in
    let lvals = Array.of_list (List.rev !vlist) in
    { lineno; off; len; parents; sizes; labels; lasts; lkeys; vals; lvals;
      err = false }

(* Split the corpus into (lineno, offset, length) line slices, the
   same way [validate --stream] counts them: every '\n'-delimited
   piece bumps the line number, trim-blank pieces are skipped, an
   unterminated last line still counts. *)
let line_slices text =
  let n = String.length text in
  let out = ref [] in
  let lineno = ref 0 in
  let start = ref 0 in
  let flush_line stop =
    incr lineno;
    let len = stop - !start in
    if String.trim (String.sub text !start len) <> "" then
      out := (!lineno, !start, len) :: !out
  in
  for i = 0 to n - 1 do
    if String.unsafe_get text i = '\n' then begin
      flush_line i;
      start := i + 1
    end
  done;
  if !start < n then flush_line n;
  Array.of_list (List.rev !out)

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
   channel, folding the body checksum as they go; the header (which
   names every section offset plus both checksums) is written last by
   seeking back to the start.  The file is fsynced before the rename,
   its directory after it, and the file is removed on every failure, so
   [output] is always either the previous index or the complete new
   one. *)
let build ?(jobs = 1) ?(pos_cap = Layout.default_pos_cap)
    ?(value_cap = Layout.default_value_cap) ?(no_values = false)
    ?(fresh_budget = fun () -> Obs.Budget.create ()) ~corpus ~output () =
  try
    let refuse what cap = failwith (Printf.sprintf "%s cap %d is negative" what cap) in
    if pos_cap < 0 then refuse "position" pos_cap;
    if value_cap < 0 then refuse "value" value_cap;
    Obs.Metrics.span "index.build" @@ fun () ->
    sweep_temps output;
    let text = In_channel.with_open_bin corpus In_channel.input_all in
    let slices = line_slices text in
    let docs =
      Par.Batch.map ~jobs
        (fun (lineno, off, len) ->
          parse_doc ~fresh_budget ~values:(not no_values) ~lineno ~off
            (String.sub text off len))
        slices
    in
    let ndocs = Array.length docs in
    let errors = Array.fold_left (fun a d -> if d.err then a + 1 else a) 0 docs in
    (* global key table: sorted, so the file never depends on the
       order keys were first seen *)
    let keyset = Hashtbl.create 256 in
    Array.iter
      (fun d -> Array.iter (fun w -> Hashtbl.replace keyset w ()) d.lkeys)
      docs;
    let keys = Hashtbl.fold (fun w () acc -> w :: acc) keyset [] in
    let keys = Array.of_list (List.sort String.compare keys) in
    let nkeys = Array.length keys in
    let gid = Hashtbl.create 256 in
    Array.iteri (fun i w -> Hashtbl.add gid w i) keys;
    (* remap each document's labels to global key ids, in place *)
    Array.iter
      (fun d ->
        let map = Array.map (fun w -> Hashtbl.find gid w) d.lkeys in
        Array.iteri
          (fun i lab ->
            if lab >= 0 && lab land 1 = 0 then
              d.labels.(i) <- map.(lab lsr 1) lsl 1)
          d.labels)
      docs;
    (* node ids and subtree sizes are postings words *)
    let nnodes =
      Array.fold_left
        (fun a d ->
          let a = a + Array.length d.parents in
          if a >= Layout.max_nodes then
            failwith
              (Printf.sprintf
                 "line %d: the corpus reaches %d nodes; an index holds fewer \
                  than 2^32"
                 d.lineno a);
          a)
        0 docs
    in
    (* postings shape: count entries per label, then prefix-sum *)
    let max_pos = ref (-1) in
    Array.iter
      (fun d ->
        Array.iter
          (fun lab ->
            if lab >= 0 && lab land 1 = 1 then
              if lab lsr 1 > !max_pos then max_pos := lab lsr 1)
          d.labels)
      docs;
    (* position 0 always keeps its list (when any array has elements):
       "a non-empty array" is read off it *)
    let npos = min (max 1 pos_cap) (!max_pos + 1) in
    let key_counts = Array.make (nkeys + 1) 0 in
    let pos_counts = Array.make (npos + 1) 0 in
    Array.iter
      (fun d ->
        Array.iter
          (fun lab ->
            if lab >= 0 then
              if lab land 1 = 0 then
                key_counts.(lab lsr 1) <- key_counts.(lab lsr 1) + 1
              else begin
                let p = lab lsr 1 in
                if p < npos then pos_counts.(p) <- pos_counts.(p) + 1
              end)
          d.labels)
      docs;
    let prefix counts n =
      let idx = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        idx.(i + 1) <- idx.(i) + counts.(i)
      done;
      idx
    in
    let key_pidx = prefix key_counts nkeys in
    let pos_pidx = prefix pos_counts npos in
    let key_entries = key_pidx.(nkeys) in
    let pos_entries = pos_pidx.(npos) in
    (* value table: every distinct scalar, sorted by canonical encoding
       — like the key table, independent of discovery order *)
    let valset = Hashtbl.create 256 in
    Array.iter
      (fun d -> Array.iter (fun v -> Hashtbl.replace valset v ()) d.lvals)
      docs;
    let vals = Hashtbl.fold (fun v () acc -> v :: acc) valset [] in
    let vals = Array.of_list (List.sort String.compare vals) in
    let nvals = Array.length vals in
    let vgid = Hashtbl.create 256 in
    Array.iteri (fun i v -> Hashtbl.add vgid v i) vals;
    (* (leaf-label, value-id) pairs: number, sort, count, cap,
       prefix-sum.  A pair is one integer, the label word (-1 at a root,
       below 2^30) above the 32-bit value id, so integer order is the
       table's (label, value id) order.  Each scalar leaf's [vals] entry
       becomes its pair's id, first in order of discovery, then in table
       order.  A pair whose list exceeds [value_cap] stays in the table
       with an empty range — queries can tell "capped" from "absent". *)
    let pair_ids = Ints.create 256 in
    let found = ref [] in
    Array.iter
      (fun d ->
        let map = Array.map (fun v -> Hashtbl.find vgid v) d.lvals in
        Array.iteri
          (fun i v ->
            if v >= 0 then begin
              let key = (d.labels.(i) lsl 32) lor map.(v) in
              d.vals.(i) <-
                (match Ints.find_opt pair_ids key with
                | Some p -> p
                | None ->
                  let p = Ints.length pair_ids in
                  Ints.add pair_ids key p;
                  found := key :: !found;
                  p)
            end)
          d.vals)
      docs;
    let found = Array.of_list (List.rev !found) in
    let npairs = Array.length found in
    let order = Array.init npairs Fun.id in
    Array.sort (fun a b -> Int.compare found.(a) found.(b)) order;
    let pairs = Array.map (fun p -> found.(p)) order in
    let rank = Array.make npairs 0 in
    Array.iteri (fun pid p -> rank.(p) <- pid) order;
    let pair_counts = Array.make (npairs + 1) 0 in
    Array.iter
      (fun d ->
        Array.iteri
          (fun i p ->
            if p >= 0 then begin
              let pid = rank.(p) in
              d.vals.(i) <- pid;
              pair_counts.(pid) <- pair_counts.(pid) + 1
            end)
          d.vals)
      docs;
    let pair_kept = Array.make npairs true in
    let val_dropped = ref 0 in
    for pid = 0 to npairs - 1 do
      if pair_counts.(pid) > value_cap then begin
        pair_kept.(pid) <- false;
        val_dropped := !val_dropped + pair_counts.(pid);
        pair_counts.(pid) <- 0
      end
    done;
    let pair_pidx = prefix pair_counts npairs in
    let val_entries = pair_pidx.(npairs) in
    let val_dropped = !val_dropped in
    (* section sizes and offsets *)
    let blob_len = Array.fold_left (fun a w -> a + String.length w) 0 keys in
    let sz_doc = ndocs * Layout.doc_entry_bytes in
    let sz_par = Layout.pad8 (nnodes * 4) in
    let sz_lab = Layout.pad8 (nnodes * 4) in
    let sz_siz = Layout.pad8 (nnodes * 4) in
    let sz_sidx = (nkeys + 1) * 8 in
    let sz_blob = Layout.pad8 blob_len in
    let sz_kpidx = (nkeys + 1) * 8 in
    let postings n = Layout.pad8 (n * Layout.posting_bytes) in
    let sz_kpost = postings key_entries in
    let sz_ppidx = (npos + 1) * 8 in
    let sz_ppost = postings pos_entries in
    let vblob_len = Array.fold_left (fun a v -> a + String.length v) 0 vals in
    let sz_vidx = (nvals + 1) * 8 in
    let sz_vblob = Layout.pad8 vblob_len in
    let sz_pair = npairs * 8 in
    let sz_prpidx = (npairs + 1) * 8 in
    let sz_vpost = postings val_entries in
    let sz_cpath = Layout.pad8 (4 + String.length corpus) in
    let o_doc = Layout.header_bytes in
    let o_par = o_doc + sz_doc in
    let o_lab = o_par + sz_par in
    let o_siz = o_lab + sz_lab in
    let o_sidx = o_siz + sz_siz in
    let o_blob = o_sidx + sz_sidx in
    let o_kpidx = o_blob + sz_blob in
    let o_kpost = o_kpidx + sz_kpidx in
    let o_ppidx = o_kpost + sz_kpost in
    let o_ppost = o_ppidx + sz_ppidx in
    let o_vidx = o_ppost + sz_ppost in
    let o_vblob = o_vidx + sz_vidx in
    let o_pair = o_vblob + sz_vblob in
    let o_prpidx = o_pair + sz_pair in
    let o_vpost = o_prpidx + sz_prpidx in
    let o_cpath = o_vpost + sz_vpost in
    let file_size = o_cpath + sz_cpath in
    let tmp, fd = open_temp output in
    (try
       let oc = Unix.out_channel_of_descr fd in
       set_binary_mode_out oc true;
       Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
           seek_out oc Layout.header_bytes;
           let body_sum = ref Layout.checksum_init in
           let emit b =
             body_sum := Layout.checksum_bytes !body_sum b 0 (Bytes.length b);
             output_bytes oc b
           in
           (* document table *)
           let b = Bytes.make sz_doc '\000' in
           let base = ref 0 in
           Array.iteri
             (fun i d ->
               let o = i * Layout.doc_entry_bytes in
               Layout.set_u64 b o d.off;
               Layout.set_u64 b (o + 8) !base;
               Layout.set_u32 b (o + 16) d.len;
               Layout.set_u32 b (o + 20) (Array.length d.parents);
               Layout.set_u32 b (o + 24) d.lineno;
               Layout.set_u32 b (o + 28) (if d.err then 1 else 0);
               base := !base + Array.length d.parents)
             docs;
           emit b;
           (* parent distances (0 at a root), labels with the last-element
              bit, subtree sizes *)
           let column get =
             let b = Bytes.make sz_par '\000' in
             let j = ref 0 in
             Array.iter
               (fun d ->
                 for i = 0 to Array.length d.parents - 1 do
                   Layout.set_i32 b (!j * 4) (get d i);
                   incr j
                 done)
               docs;
             b
           in
           emit
             (column (fun d i ->
                  if d.parents.(i) < 0 then 0 else i - d.parents.(i)));
           emit
             (column (fun d i ->
                  if d.lasts.(i) then d.labels.(i) lor Layout.label_last
                  else d.labels.(i)));
           emit (column (fun d i -> d.sizes.(i)));
           (* a u64 array; a sorted string table as its offset index
              and padded blob *)
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
           (* postings: cursor per label, filled in node-id order *)
           emit_u64s key_pidx;
           let kpost = Bytes.make sz_kpost '\000' in
           let ppost = Bytes.make sz_ppost '\000' in
           let vpost = Bytes.make sz_vpost '\000' in
           let kcur = Array.copy key_pidx in
           let pcur = Array.copy pos_pidx in
           let vcur = Array.copy pair_pidx in
           let put post cur i g =
             Layout.set_u32 post (cur.(i) * Layout.posting_bytes) g;
             cur.(i) <- cur.(i) + 1
           in
           let base = ref 0 in
           Array.iter
             (fun d ->
               Array.iteri
                 (fun node lab ->
                   let g = !base + node in
                   (if Array.length d.vals > 0 && d.vals.(node) >= 0 then
                      let pid = d.vals.(node) in
                      if pair_kept.(pid) then put vpost vcur pid g);
                   if lab >= 0 then
                     if lab land 1 = 0 then put kpost kcur (lab lsr 1) g
                     else if lab lsr 1 < npos then put ppost pcur (lab lsr 1) g)
                 d.labels;
               base := !base + Array.length d.labels)
             docs;
           emit kpost;
           emit_u64s pos_pidx;
           emit ppost;
           emit_strings vals;
           (* pair table, pair postings index, value postings *)
           let b = Bytes.make sz_pair '\000' in
           Array.iteri
             (fun i p ->
               Layout.set_i32 b (i * 8) (p asr 32);
               Layout.set_u32 b ((i * 8) + 4) (p land 0xFFFF_FFFF))
             pairs;
           emit b;
           emit_u64s pair_pidx;
           emit vpost;
           (* corpus path *)
           let b = Bytes.make sz_cpath '\000' in
           Layout.set_u32 b 0 (String.length corpus);
           Bytes.blit_string corpus 0 b 4 (String.length corpus);
           emit b;
           (* header, last: it carries the body checksum *)
           let h = Bytes.make Layout.header_bytes '\000' in
           Bytes.blit_string Layout.magic 0 h 0 8;
           Layout.set_u32 h Layout.Field.version Layout.version;
           Layout.set_u32 h Layout.Field.pos_cap npos;
           Layout.set_u64 h Layout.Field.file_size file_size;
           Layout.set_u64 h Layout.Field.ndocs ndocs;
           Layout.set_u64 h Layout.Field.nnodes nnodes;
           Layout.set_u64 h Layout.Field.nkeys nkeys;
           Layout.set_u64 h Layout.Field.key_entries key_entries;
           Layout.set_u64 h Layout.Field.pos_entries pos_entries;
           Layout.set_u64 h Layout.Field.corpus_len (String.length text);
           Layout.set_u64 h Layout.Field.doc_table o_doc;
           Layout.set_u64 h Layout.Field.parents o_par;
           Layout.set_u64 h Layout.Field.labels o_lab;
           Layout.set_u64 h Layout.Field.strtab_idx o_sidx;
           Layout.set_u64 h Layout.Field.strtab_blob o_blob;
           Layout.set_u64 h Layout.Field.strtab_blob_len blob_len;
           Layout.set_u64 h Layout.Field.key_pidx o_kpidx;
           Layout.set_u64 h Layout.Field.key_post o_kpost;
           Layout.set_u64 h Layout.Field.pos_pidx o_ppidx;
           Layout.set_u64 h Layout.Field.pos_post o_ppost;
           Layout.set_u64 h Layout.Field.corpus_path o_cpath;
           Layout.set_u32 h Layout.Field.flags
             (if no_values then Layout.flag_no_values else 0);
           Layout.set_u32 h Layout.Field.value_cap (min value_cap 0xFFFFFFFF);
           Layout.set_u64 h Layout.Field.nvals nvals;
           Layout.set_u64 h Layout.Field.npairs npairs;
           Layout.set_u64 h Layout.Field.val_entries val_entries;
           Layout.set_u64 h Layout.Field.val_dropped val_dropped;
           Layout.set_u64 h Layout.Field.valtab_idx o_vidx;
           Layout.set_u64 h Layout.Field.valtab_blob o_vblob;
           Layout.set_u64 h Layout.Field.valtab_blob_len vblob_len;
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
    Obs.Metrics.add "index.build.docs" ndocs;
    Obs.Metrics.add "index.build.errors" errors;
    Obs.Metrics.add "index.build.nodes" nnodes;
    Obs.Metrics.add "index.build.keys" nkeys;
    Obs.Metrics.add "index.build.postings" (key_entries + pos_entries);
    Obs.Metrics.add "index.build.values" nvals;
    Obs.Metrics.add "index.build.value_postings" val_entries;
    Obs.Metrics.add "index.build.value_dropped" val_dropped;
    Obs.Metrics.add "index.build.bytes" file_size;
    Ok
      { docs = ndocs; errors; nodes = nnodes; keys = nkeys;
        key_postings = key_entries; pos_postings = pos_entries;
        values = nvals; value_pairs = npairs; value_postings = val_entries;
        value_dropped = val_dropped; bytes = file_size }
  with
  | Failure m -> Error m
  | Sys_error m -> Error m
  | Unix.Unix_error (e, _, arg) -> Error (arg ^ ": " ^ Unix.error_message e)
  | Obs.Budget.Exhausted r -> Error (Obs.Budget.describe r)
