(* Memory-mapped index reader.  Everything cheap is validated once at
   open — magic, version, checksums, every section extent, the
   monotonicity of all offset tables — so the per-entry accessors can
   trust section bounds and only re-check the values postings and
   columns store (node ids, parent distances, subtree sizes), raising
   [Corrupt] on the ones a checksum-less open ([~verify_body:false])
   could let through. *)

exception Corrupt of string

module Cells = Map.Make (Int)

type error_cells = {
  corpus : string;
  limits : int option * int;
  failed : string Cells.t;
}

type corpus_id = { file : string; size : int; mtime : float; inode : int }

type t = {
  path : string;
  buf : Layout.buf;
  size : int;
  ndocs : int;
  nnodes : int;
  nkeys : int;
  npos : int;
  key_entries : int;
  pos_entries : int;
  corpus_len : int;
  corpus_sum : int;
  corpus_path : string;
  nvals : int;
  npairs : int;
  val_entries : int;
  o_doc : int;
  o_par : int;
  o_lab : int;
  o_siz : int;
  o_sidx : int;
  o_blob : int;
  blob_len : int;
  o_kpidx : int;
  o_kpost : int;
  o_ppidx : int;
  o_ppost : int;
  o_vidx : int;
  o_vblob : int;
  vblob_len : int;
  o_pair : int;
  o_prpidx : int;
  o_vpost : int;
  cells : error_cells option Atomic.t;
  verified : corpus_id option Atomic.t;
}

let path t = t.path
let file_size t = t.size
let ndocs t = t.ndocs
let nnodes t = t.nnodes
let nkeys t = t.nkeys
let npos t = t.npos
let key_entries t = t.key_entries
let pos_entries t = t.pos_entries
let corpus_path t = t.corpus_path
let corpus_len t = t.corpus_len
let corpus_checksum t = t.corpus_sum
let nvals t = t.nvals
let npairs t = t.npairs
let val_entries t = t.val_entries
let val_blob_len t = t.vblob_len
let close _ = ()

(* a generous ceiling on any count or offset: large enough for any
   real corpus, small enough that size arithmetic cannot overflow *)
let sane = 1 lsl 44

let open_ ?(verify_body = true) path =
  let err fmt = Printf.ksprintf (fun m -> Error (path ^ ": " ^ m)) fmt in
  match
    let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let size = (Unix.fstat fd).Unix.st_size in
        if size < Layout.header_bytes then
          err "too small for an index header (%d bytes)" size
        else
          let buf =
            Bigarray.array1_of_genarray
              (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |])
          in
          let u64 = Layout.get_u64_ba buf in
          let module F = Layout.Field in
          let m8 = Layout.string_ba buf 0 8 in
          if String.sub m8 0 7 <> Layout.magic_prefix then
            err "bad magic (not a corpus index file)"
          else if m8 <> Layout.magic then
            (* the version check runs before the header checksum: older
               headers place their fields elsewhere, so nothing beyond
               the magic/version words can be trusted *)
            err "unsupported index version %c (this build reads version %d; \
                 rebuild with 'index build')"
              m8.[7] Layout.version
          else if Layout.get_u32_ba buf F.version <> Layout.version then
            err "unsupported index version %d (this build reads version %d; \
                 rebuild with 'index build')"
              (Layout.get_u32_ba buf F.version) Layout.version
          else if
            Layout.checksum_ba Layout.checksum_init buf 0 F.header_checksum
            <> u64 F.header_checksum
          then err "header checksum mismatch (corrupted index?)"
          else if u64 F.file_size <> size then
            err "declared file size %d does not match actual %d (truncated?)"
              (u64 F.file_size) size
          else if size land 7 <> 0 then
            err "file size %d is not 8-byte aligned (truncated?)" size
          else begin
            let ndocs = u64 F.ndocs and nnodes = u64 F.nnodes in
            let nkeys = u64 F.nkeys in
            let key_entries = u64 F.key_entries in
            let pos_entries = u64 F.pos_entries in
            let corpus_len = u64 F.corpus_len in
            let npos = Layout.get_u32_ba buf F.npos in
            let blob_len = u64 F.strtab_blob_len in
            let nvals = u64 F.nvals and npairs = u64 F.npairs in
            let val_entries = u64 F.val_entries in
            let vblob_len = u64 F.valtab_blob_len in
            let counts =
              [ ("documents", ndocs); ("nodes", nnodes); ("keys", nkeys);
                ("key postings", key_entries); ("position postings", pos_entries);
                ("corpus bytes", corpus_len); ("position lists", npos);
                ("string bytes", blob_len); ("values", nvals);
                ("value pairs", npairs); ("value postings", val_entries);
                ("value bytes", vblob_len) ]
            in
            match
              List.find_opt (fun (_, v) -> v < 0 || v > sane) counts
            with
            | Some (what, v) ->
              err "header at %d: oversized %s count %d" F.ndocs what v
            | None ->
              let o_doc = u64 F.doc_table and o_par = u64 F.parents in
              let o_lab = u64 F.labels and o_siz = u64 F.sizes in
              let o_sidx = u64 F.strtab_idx in
              let o_blob = u64 F.strtab_blob and o_kpidx = u64 F.key_pidx in
              let o_kpost = u64 F.key_post and o_ppidx = u64 F.pos_pidx in
              let o_ppost = u64 F.pos_post and o_cpath = u64 F.corpus_path in
              let o_vidx = u64 F.valtab_idx and o_vblob = u64 F.valtab_blob in
              let o_pair = u64 F.pair_table and o_prpidx = u64 F.pair_pidx in
              let o_vpost = u64 F.val_post in
              let postings n = Layout.pad8 (n * Layout.posting_bytes) in
              let sections =
                [ ("document table", o_doc, ndocs * Layout.doc_entry_bytes);
                  ("parent column", o_par, Layout.pad8 (nnodes * 4));
                  ("label column", o_lab, Layout.pad8 (nnodes * 4));
                  ("size column", o_siz, Layout.pad8 (nnodes * 4));
                  ("string index", o_sidx, (nkeys + 1) * 8);
                  ("string blob", o_blob, Layout.pad8 blob_len);
                  ("key postings index", o_kpidx, (nkeys + 1) * 8);
                  ("key postings", o_kpost, postings key_entries);
                  ("position postings index", o_ppidx, (npos + 1) * 8);
                  ("position postings", o_ppost, postings pos_entries);
                  ("value index", o_vidx, (nvals + 1) * 8);
                  ("value blob", o_vblob, Layout.pad8 vblob_len);
                  ("pair table", o_pair, npairs * 8);
                  ("pair postings index", o_prpidx, (npairs + 1) * 8);
                  ("value postings", o_vpost, postings val_entries);
                  ("corpus path", o_cpath, 4) ]
              in
              let bad_section =
                List.find_opt
                  (fun (_, o, sz) ->
                    o < Layout.header_bytes || o land 7 <> 0 || o > size
                    || sz < 0 || o + sz > size)
                  sections
              in
              (match bad_section with
              | Some (what, o, sz) ->
                err "%s section [%d, %d) exceeds or misaligns the %d-byte file"
                  what o (o + sz) size
              | None ->
                (* offset tables: monotonic, anchored at both ends *)
                let table what o n last =
                  let ok = ref None in
                  let prev = ref 0 in
                  (if Layout.get_u64_ba buf o <> 0 then
                     ok := Some (what, 0, Layout.get_u64_ba buf o));
                  for i = 1 to n do
                    let v = Layout.get_u64_ba buf (o + (i * 8)) in
                    if !ok = None && (v < !prev || v > last) then
                      ok := Some (what, i, v);
                    prev := v
                  done;
                  if !ok = None && !prev <> last then
                    ok := Some (what, n, !prev);
                  !ok
                in
                let bad_table =
                  List.find_map
                    (fun (what, o, n, last) -> table what o n last)
                    [ ("string index", o_sidx, nkeys, blob_len);
                      ("key postings index", o_kpidx, nkeys, key_entries);
                      ("position postings index", o_ppidx, npos, pos_entries);
                      ("value index", o_vidx, nvals, vblob_len);
                      ("pair postings index", o_prpidx, npairs, val_entries) ]
                in
                match bad_table with
                | Some (what, i, v) ->
                  err "%s entry %d holds %d: not monotonic or out of range"
                    what i v
                | None ->
                  (* pair table: strictly sorted by (label, value id) —
                     the binary search depends on it — and every value
                     id inside the value table *)
                  let bad_pair = ref None in
                  let plab = ref min_int and pvid = ref (-1) in
                  for i = 0 to npairs - 1 do
                    let lab = Layout.get_i32_ba buf (o_pair + (i * 8)) in
                    let vid = Layout.get_u32_ba buf (o_pair + (i * 8) + 4) in
                    if
                      !bad_pair = None
                      && (vid >= nvals
                         || lab < !plab
                         || (lab = !plab && vid <= !pvid))
                    then bad_pair := Some i;
                    plab := lab;
                    pvid := vid
                  done;
                  match !bad_pair with
                  | Some i -> err "pair table entry %d is not sorted or names a value out of range" i
                  | None ->
                  (* document table: node ranges tile [0, nnodes),
                     byte ranges stay inside the corpus *)
                  let bad_doc = ref None in
                  let base = ref 0 in
                  for d = 0 to ndocs - 1 do
                    let o = o_doc + (d * Layout.doc_entry_bytes) in
                    let off = Layout.get_u64_ba buf o in
                    let nb = Layout.get_u64_ba buf (o + 8) in
                    let len = Layout.get_u32_ba buf (o + 16) in
                    let cnt = Layout.get_u32_ba buf (o + 20) in
                    if !bad_doc = None
                       && (nb <> !base || off < 0 || off + len > corpus_len)
                    then bad_doc := Some d;
                    base := !base + cnt
                  done;
                  if !bad_doc = None && !base <> nnodes then
                    bad_doc := Some ndocs;
                  (match !bad_doc with
                  | Some d -> err "document table entry %d is inconsistent" d
                  | None ->
                    let cplen = Layout.get_u32_ba buf o_cpath in
                    if o_cpath + 4 + cplen > size then
                      err "corpus path at %d overruns the file" o_cpath
                    else begin
                      let corpus_path =
                        Layout.string_ba buf (o_cpath + 4) cplen
                      in
                      if
                        verify_body
                        && Layout.checksum_ba Layout.checksum_init buf
                             Layout.header_bytes (size - Layout.header_bytes)
                           <> u64 F.body_checksum
                      then err "body checksum mismatch (corrupted index?)"
                      else
                        Ok
                          { path; buf; size; ndocs; nnodes; nkeys; npos;
                            key_entries; pos_entries; corpus_len;
                            corpus_sum = u64 F.corpus_checksum; corpus_path;
                            nvals; npairs; val_entries;
                            o_doc; o_par; o_lab; o_siz; o_sidx; o_blob; blob_len;
                            o_kpidx; o_kpost; o_ppidx; o_ppost;
                            o_vidx; o_vblob; vblob_len; o_pair; o_prpidx;
                            o_vpost; cells = Atomic.make None;
                            verified = Atomic.make None }
                    end))
          end)
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
    Error (path ^ ": " ^ Unix.error_message e)
  | exception Sys_error m -> Error m

(* ---- document table -------------------------------------------------------- *)

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

let doc_field t d off =
  if d < 0 || d >= t.ndocs then
    corrupt "document id %d out of range (index holds %d)" d t.ndocs;
  t.o_doc + (d * Layout.doc_entry_bytes) + off

let doc_off t d = Layout.get_u64_ba t.buf (doc_field t d 0)
let doc_node_base t d = Layout.get_u64_ba t.buf (doc_field t d 8)
let doc_len t d = Layout.get_u32_ba t.buf (doc_field t d 16)
let doc_lineno t d = Layout.get_u32_ba t.buf (doc_field t d 24)
let doc_err t d = Layout.get_u32_ba t.buf (doc_field t d 28) land 1 = 1

(* one slot, replaced whole: readers on other domains see the old
   record or the new one, never a mix *)
let error_cells t = Atomic.get t.cells
let set_error_cells t c = Atomic.set t.cells (Some c)
let verified_corpus t = Atomic.get t.verified
let set_verified_corpus t c = Atomic.set t.verified (Some c)

(* ---- string table ---------------------------------------------------------- *)

let key_name t k =
  if k < 0 || k >= t.nkeys then
    corrupt "key id %d out of range (table holds %d)" k t.nkeys;
  let off = Layout.get_u64_ba t.buf (t.o_sidx + (k * 8)) in
  let stop = Layout.get_u64_ba t.buf (t.o_sidx + ((k + 1) * 8)) in
  Layout.string_ba t.buf (t.o_blob + off) (stop - off)

let key_id t w =
  let lo = ref 0 and hi = ref (t.nkeys - 1) and found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare w (key_name t mid) in
    if c = 0 then found := Some mid
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  !found

(* ---- postings -------------------------------------------------------------- *)

(* One word of a column or postings list, read in place.  Local, so the
   per-entry accessors below compile to a load and their checks. *)
external get32 : Layout.buf -> int -> int32 = "%caml_bigstring_get32"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] word b off =
  let v = get32 b off in
  Int32.to_int (if Sys.big_endian then bswap32 v else v)

type postings = { what : string; off : int; start : int; len : int }

let empty_postings = { what = "empty"; off = 0; start = 0; len = 0 }
let length l = l.len

(* entries [start, stop) of one list, from its prefix-sum index *)
let postings t ~what ~idx ~n ~entries ~post k =
  if k < 0 || k >= n then corrupt "%s id %d out of range" what k;
  let start = Layout.get_u64_ba t.buf (idx + (k * 8)) in
  let stop = Layout.get_u64_ba t.buf (idx + ((k + 1) * 8)) in
  if start > stop || stop > entries then
    corrupt "%s postings range [%d, %d) out of bounds" what start stop;
  { what; off = post + (start * Layout.posting_bytes); start; len = stop - start }

let key_postings t k =
  postings t ~what:"key" ~idx:t.o_kpidx ~n:t.nkeys ~entries:t.key_entries
    ~post:t.o_kpost k

let pos_postings t p =
  postings t ~what:"position" ~idx:t.o_ppidx ~n:t.npos ~entries:t.pos_entries
    ~post:t.o_ppost p

let posting t l j =
  if j < 0 || j >= l.len then
    corrupt "%s postings entry %d out of range" l.what (l.start + j);
  let g = word t.buf (l.off + (j * Layout.posting_bytes)) land 0xFFFF_FFFF in
  if g >= t.nnodes then
    corrupt "%s postings entry %d names node %d of %d" l.what (l.start + j) g
      t.nnodes;
  g

(* ---- value table and (label, value) postings ------------------------------- *)

let val_name t v =
  if v < 0 || v >= t.nvals then
    corrupt "value id %d out of range (table holds %d)" v t.nvals;
  let off = Layout.get_u64_ba t.buf (t.o_vidx + (v * 8)) in
  let stop = Layout.get_u64_ba t.buf (t.o_vidx + ((v + 1) * 8)) in
  Layout.string_ba t.buf (t.o_vblob + off) (stop - off)

let value_id t enc =
  let lo = ref 0 and hi = ref (t.nvals - 1) and found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = String.compare enc (val_name t mid) in
    if c = 0 then found := Some mid
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  !found

let pair_key t i =
  let lab = Layout.get_i32_ba t.buf (t.o_pair + (i * 8)) in
  let vid = Layout.get_u32_ba t.buf (t.o_pair + (i * 8) + 4) in
  (lab, vid)

(* the first pair at or after [lo] that is not below (label, vid) *)
let pair_bound t lo ~label ~vid =
  let lo = ref lo and hi = ref t.npairs in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare (pair_key t mid) (label, vid) < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let pair_lookup t ~label ~vid =
  let i = pair_bound t 0 ~label ~vid in
  if i < t.npairs && pair_key t i = (label, vid) then Some i else None

(* One binary search per label group: the table is sorted by label
   first, so the pairs of [vid] sit one per group at most. *)
let iter_value_pairs t vid f =
  let i = ref 0 in
  while !i < t.npairs do
    let label, _ = pair_key t !i in
    let j = pair_bound t !i ~label ~vid in
    if j < t.npairs && pair_key t j = (label, vid) then f j;
    i := pair_bound t j ~label:(label + 1) ~vid:(-1)
  done

let pair_postings t p =
  postings t ~what:"pair" ~idx:t.o_prpidx ~n:t.npairs ~entries:t.val_entries
    ~post:t.o_vpost p

(* ---- structure columns ----------------------------------------------------- *)

let[@inline] node_word t ~col g =
  if g < 0 || g >= t.nnodes then
    corrupt "node %d out of range (index holds %d)" g t.nnodes;
  word t.buf (col + (g * 4))

let node_parent t g =
  let d = node_word t ~col:t.o_par g in
  if d < 0 || d > g then corrupt "parent distance %d of node %d out of range" d g;
  if d = 0 then -1 else g - d

let node_label t g =
  let w = node_word t ~col:t.o_lab g in
  if w < 0 then w else w land lnot Layout.label_last

let node_last t g =
  let w = node_word t ~col:t.o_lab g in
  w >= 0 && w land Layout.label_last <> 0

let node_size t g =
  let s = node_word t ~col:t.o_siz g land 0xFFFF_FFFF in
  if s < 1 || s > t.nnodes - g then
    corrupt "subtree size %d of node %d out of range (index holds %d)" s g
      t.nnodes;
  s
