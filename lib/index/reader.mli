(** Memory-mapped access to a corpus index file.

    {!open_} maps the file ({!Unix.map_file}, read-only — a
    [chmod 444] index works) and validates everything cheap before
    returning: magic, version, header checksum, declared-vs-actual
    file size, section offsets/extents/alignment, string-table and
    postings-index monotonicity, document-table consistency, and (by
    default) the full body checksum — so bit flips, truncations and
    oversized declared counts surface as positioned [Error] messages
    at open, never as exceptions or wild reads later.

    Accessors that walk postings are bounds-checked against the
    validated extents and raise {!Corrupt} (with a description) on
    out-of-range data the open-time sweep cannot see — the query
    planner folds that into an error verdict. *)

exception Corrupt of string
(** Out-of-range data met while reading postings or columns. *)

type t

val open_ : ?verify_body:bool -> string -> (t, string) result
(** [open_ path] maps and validates [path].  [verify_body] (default
    [true]) additionally checksums the whole body — one sequential
    pass; disable it to pay only O(header + tables) at open.  A file
    carrying an earlier format version (e.g. the v1 magic
    ["JLIXIDX1"]) is refused with a positioned "unsupported index
    version" error naming the version found and the one this build
    reads. *)

val close : t -> unit
(** Drop the mapping eagerly (also dropped by the GC). *)

val path : t -> string
val file_size : t -> int
val ndocs : t -> int
val nnodes : t -> int
val nkeys : t -> int

val npos : t -> int
(** Number of materialized array-position postings lists: positions
    [0 .. npos-1] can seed a postings-only query. *)

val key_entries : t -> int
val pos_entries : t -> int
val corpus_path : t -> string
val corpus_len : t -> int

val corpus_checksum : t -> int
(** {!Layout.checksum_text} of the corpus bytes the index was built
    over. *)

val nvals : t -> int
(** Distinct scalar values in the value table. *)

val npairs : t -> int
(** Distinct (leaf-label, value-id) postings lists. *)

val val_entries : t -> int
(** Entries across all value postings lists. *)

val val_blob_len : t -> int
(** Bytes of the encoded value blob. *)

(** {1 Document table} *)

val doc_lineno : t -> int -> int
val doc_off : t -> int -> int
val doc_len : t -> int -> int
val doc_node_base : t -> int -> int
val doc_err : t -> int -> bool
(** Did this line fail to parse at build time?  (Queries answer its
    parse error, reparsed or read from the error-line cells below.) *)

(** {1 Error-line cells}

    What reparsing the error-flagged lines ({!doc_err}) gave, kept for
    the life of the open index.  A line's parse depends only on its
    bytes and on the budget limits ({!Obs.Budget.limits}) it runs
    under, never on the formula, so the query driver fills this slot
    the first time it reparses those lines under limits without a
    deadline and reads it on later queries with the same corpus file
    and limits. *)

module Cells : Map.S with type key = int

type error_cells = {
  corpus : string;  (** the corpus file the lines were read from *)
  limits : int option * int;  (** {!Obs.Budget.limits} of their budget *)
  failed : string Cells.t;
      (** document id to error message, for every error-flagged line
          that failed to parse under [limits]; an error-flagged line
          absent here parsed, and its verdict depends on the formula *)
}

val error_cells : t -> error_cells option
(** The slot: [None] until a query fills it. *)

val set_error_cells : t -> error_cells -> unit
(** Replace the slot (atomically: concurrent queries read the previous
    record or this one). *)

(** {1 The verified corpus}

    The identity of the corpus file whose bytes last matched
    {!corpus_checksum}, so queries rehash a corpus only when its
    identity changes. *)

type corpus_id = {
  file : string;  (** the path it was read from *)
  size : int;
  mtime : float;
  inode : int;
}

val verified_corpus : t -> corpus_id option
(** [None] until a query verifies a corpus. *)

val set_verified_corpus : t -> corpus_id -> unit
(** Replace the slot, atomically like {!set_error_cells}. *)

(** {1 String table} *)

val key_id : t -> string -> int option
(** Binary search over the sorted table. *)

val key_name : t -> int -> string

(** {1 Postings}

    A postings list is a contiguous run of corpus-wide node ids,
    ascending, one {!Layout.posting_bytes} word each. *)

type postings
(** One list: a slice of the key, position or value postings section,
    its extent checked against the section when it is made. *)

val empty_postings : postings

val length : postings -> int

val key_postings : t -> int -> postings
(** The nodes whose incoming edge is that key id. *)

val pos_postings : t -> int -> postings
(** The nodes whose incoming edge is that position ([< npos]). *)

val posting : t -> postings -> int -> int
(** [posting r l j] is entry [j] of [l], a corpus-wide node id.
    @raise Corrupt on [j] outside the list or an id outside the
    corpus. *)

(** {1 Value table and (label, value) postings}

    Scalars are keyed by their canonical {!Layout.encode_str} /
    {!Layout.encode_num} encoding.  Every pair in the table keeps its
    whole postings list, and a pair {e absent} from the table occurs
    nowhere in the corpus — which is what lets the query planner
    conclude [false] from absence. *)

val value_id : t -> string -> int option
(** Binary search of the sorted value table by encoded scalar. *)

val val_name : t -> int -> string
(** The encoded scalar of one value id. *)

val pair_lookup : t -> label:int -> vid:int -> int option
(** Binary search of the pair table by ({!Layout} edge-label word,
    value id); [Some pid] indexes {!pair_postings}. *)

val pair_postings : t -> int -> postings
(** One pair's value postings: the scalar leaves reached by the pair's
    label and holding its value. *)

val iter_value_pairs : t -> int -> (int -> unit) -> unit
(** [iter_value_pairs r vid f] calls [f pid] for every pair of value
    [vid], whatever its label — one binary search per label group of
    the pair table, never a sweep of it. *)

(** {1 Structure columns}

    Indexed by corpus-wide node id: documents occupy consecutive id
    ranges in line order, each in preorder.
    @raise Corrupt on an id outside the corpus, a stored parent
    outside it or a subtree size reaching past its last node. *)

val node_parent : t -> int -> int
(** Corpus-wide id of the parent; [-1] at a document root. *)

val node_label : t -> int -> int
(** The {!Layout} edge-label word, last-element bit cleared
    ({!Layout.label_root} at a document root). *)

val node_last : t -> int -> bool
(** Is the node the last element of its array? *)

val node_size : t -> int -> int
(** Number of nodes in the node's subtree, itself included: for an
    array element that is not the last, [g + node_size r g] is its next
    sibling. *)
