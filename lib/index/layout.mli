(** On-disk layout of the persistent corpus index (format [JLIXIDX5]).

    One index file describes one NDJSON corpus: a string table of the
    distinct object keys, label → postings lists of corpus-wide node
    ids for key edges and for array positions below {!pos_cap}, a
    sorted scalar-value table with one postings list per (leaf-label,
    value-id) pair (the [eq]-pushdown seeds), the per-node parent,
    label and subtree-size columns, and a per-document table (byte
    offset/length in the corpus, node count, node base) — everything
    the query planner needs to answer navigational queries and rooted
    scalar equalities without reparsing, plus the byte offsets to
    reparse exactly the surviving documents for general predicates.

    Every integer is little-endian and every section is padded to an
    8-byte boundary, so the file can be memory-mapped and walked with
    fixed-width loads; the header is versioned and checksummed, a
    second checksum covers the body so bit flips and truncations are
    rejected at open instead of surfacing as garbage answers, and a
    third covers the corpus bytes the index was built over, so a
    rewritten corpus is refused as stale. *)

val magic : string
(** ["JLIXIDX5"], the first 8 bytes of every index file. *)

val magic_prefix : string
(** ["JLIXIDX"] — shared by every format version; a file carrying the
    prefix but another version digit is refused with a versioned
    error, not "bad magic". *)

val version : int
(** Current format version, stored at offset 8. *)

val header_bytes : int
(** Total header size; the body starts here. *)

val pos_cap : int
(** [1024]: how many array-position postings lists are materialized at
    most (positions [0 .. pos_cap-1]).  Higher positions still carry
    edge labels in the per-node label column; a step through one hops
    siblings from the last listed position. *)

val doc_entry_bytes : int
(** Size of one document-table entry. *)

val posting_bytes : int
(** Size of one postings entry: a [u32] corpus-wide node id. *)

val max_nodes : int
(** [2^32]: a corpus must hold fewer nodes, so every node id and
    subtree size fits a postings word. *)

(** {1 Scalar-value encoding}

    The value table stores each distinct scalar once, keyed by a kind
    byte plus a canonical payload; numbers render as canonical decimal
    of the model natural, so [1], [1.0] and [1e0] (wherever a notation
    parses at all) map to one value id. *)

val encode_str : string -> string
val encode_num : int -> string

(** Field offsets inside the header, for the writer and reader (and
    the fault-injection tests, which corrupt them surgically). *)
module Field : sig
  val version : int
  val npos : int
  val file_size : int
  val ndocs : int
  val nnodes : int
  val nkeys : int
  val key_entries : int
  val pos_entries : int
  val corpus_len : int
  val doc_table : int
  val parents : int
  val labels : int
  val strtab_idx : int
  val strtab_blob : int
  val strtab_blob_len : int
  val key_pidx : int
  val key_post : int
  val pos_pidx : int
  val pos_post : int
  val corpus_path : int
  val nvals : int
  val npairs : int
  val val_entries : int
  val valtab_idx : int
  val valtab_blob : int
  val valtab_blob_len : int
  val pair_table : int
  val pair_pidx : int
  val val_post : int
  val sizes : int
  val corpus_checksum : int
  val body_checksum : int
  val header_checksum : int
end

(** {1 Edge-label encoding}

    Each node's incoming edge is one 32-bit word: key edges carry the
    (string-table) key id, position edges the position, the root a
    sentinel.  The parent column stores each node's distance to its
    parent ([0] at a document root), so a corpus-wide node id finds
    its parent without a document lookup; the size column stores each
    node's subtree size, so an array element's next sibling is one
    read away. *)

val label_root : int
val label_key : int -> int
val label_pos : int -> int
val max_pos_label : int
(** Largest array position representable in a label word; wider arrays
    are rejected at build time with a structured error. *)

val label_last : int
(** Bit 30 of a position word: the node is the last element of its
    array.  Never set on key or root words. *)

(** {1 Checksums}

    FNV-style multiplicative folding over 32-bit little-endian words —
    sections are 8-byte padded, so the stream is always word-aligned.
    Not cryptographic; it exists to catch corruption and truncation. *)

val checksum_init : int

val checksum_bytes : int -> Bytes.t -> int -> int -> int
(** [checksum_bytes h b off len] folds [len] bytes ([len] a multiple
    of 4) into [h]. *)

val checksum_text : int -> string -> int
(** Folds a whole string of any length, its last word padded with zero
    bytes: the corpus checksum. *)

val checksum_file : string -> int
(** [checksum_text checksum_init] of a file's bytes, read in chunks.
    @raise Sys_error when the file cannot be read. *)

(** {1 Little-endian accessors over [Bytes.t]} *)

val set_u32 : Bytes.t -> int -> int -> unit
val set_u64 : Bytes.t -> int -> int -> unit
val set_i32 : Bytes.t -> int -> int -> unit
val get_u32 : Bytes.t -> int -> int
val get_u64 : Bytes.t -> int -> int
val get_i32 : Bytes.t -> int -> int

(** {1 Accessors over a memory-mapped file}

    The reader never copies the file: sections are decoded in place
    through these. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val get_u32_ba : buf -> int -> int
val get_u64_ba : buf -> int -> int
val get_i32_ba : buf -> int -> int

val string_ba : buf -> int -> int -> string
(** [string_ba b off len] copies [len] bytes out as a string. *)

val checksum_ba : int -> buf -> int -> int -> int
(** {!checksum_bytes} over a mapped buffer. *)

val pad8 : int -> int
(** Round up to the next multiple of 8. *)
