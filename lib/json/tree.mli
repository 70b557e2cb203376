(** The formal JSON tree model of Section 3.1.

    A JSON tree is a structure [J = (D, Obj, Arr, Str, Int, A, O, val)]
    where [D] is a tree domain partitioned into object, array, string
    and number nodes, [O] is the key-labelled object-child relation
    (keys pairwise distinct per node), [A] is the position-labelled
    array-child relation, and [val] assigns atoms their values.

    This module realizes that structure over flat arrays: nodes are
    dense integer identifiers in {e preorder} (the root is [0] and the
    subtree of [n] occupies the contiguous range
    [n .. n + size t n - 1]).

    Parsing builds only what every reader uses: each node's kind,
    children, object keys, parent, incoming edge and subtree size.  The
    rest is built on first use, one whole column in one O(|D|) pass:
    {!subtree_hash} (read by {!equal_subtrees} and {!equal_across},
    and so by [enum], [uniqueItems] and [EQ]), {!height_of}, {!height}
    and {!nodes_by_height} (the bottom-up oracles), {!depth}, and the
    label index.  {!lookup} scans an
    object's own keys when it has at most 16 and builds, on the first
    lookup into a wider object, a table for that object (O(its keys)).
    So

    - child access by key or index is O(1) expected,
    - [json(n)] subtree equality ({!equal_subtrees}) is O(1) expected
      (hash comparison, structurally verified on collision),

    which is what the linear-time evaluation results of the paper
    (Propositions 1, 3, 6) assume of the substrate.

    A tree is safe to share between domains: whatever is built on first
    use is built in full and then published through one [Atomic], so a
    domain that sees it sees it filled (two domains may both build the
    same part; either copy is kept). *)

type t
(** An immutable JSON tree. *)

type node = int
(** Node identifier: [0 .. node_count t - 1], in preorder. *)

type kind =
  | Kobj  (** an object node *)
  | Karr  (** an array node *)
  | Kstr of string  (** a string leaf carrying its value *)
  | Kint of int  (** a number leaf carrying its value *)

type edge = Root | Key of string | Pos of int
(** How a node is reached from its parent: object edges are labelled
    with keys (relation [O]), array edges with positions (relation
    [A]); the root has no incoming edge. *)

val of_value : ?budget:Obs.Budget.t -> Value.t -> t
(** Build the tree of a value.  [budget] bounds the construction: one
    fuel unit per node, recursion depth against the budget's ceiling —
    so adversarially deep values raise {!Obs.Budget.Exhausted} instead
    of [Stack_overflow].  @raise Value.Invalid on invalid values
    (duplicate keys / negative numbers). *)

val of_string : ?budget:Obs.Budget.t -> string -> (t, Parser.error) result
(** [of_string input] builds the tree straight from JSON text in a
    single fused pass: lexing, syntax checking and flat-array
    construction happen together, with no token list and no {!Value.t}
    intermediate.  Literals are admitted as by the [`Strict] parser.
    The result is indistinguishable from
    [of_value (Parser.parse_exn input)] — same node numbering, hashes,
    sizes, error messages and positions, and the same total fuel draw
    (two units per value: parse + construction) — the two-stage route
    is kept as the differential oracle.  Counters:
    [parse.direct.bytes], [parse.direct.docs], [parse.values]. *)

val of_string_exn : ?budget:Obs.Budget.t -> string -> t
(** Like {!of_string}.  @raise Parser.Parse_error on failure (including
    budget exhaustion).  @raise Lexer.Error on malformed input. *)

val of_lexer_exn :
  ?base_depth:int -> ?keys:Keyset.t -> budget:Obs.Budget.t -> Lexer.t -> t
(** [of_lexer_exn ~budget lx] parses {e one} JSON value off an existing
    lexer with the same fused pass as {!of_string} — no trailing-input
    check, so the caller can keep consuming [lx] afterwards.  The
    budget guard runs with depths offset by [base_depth] ({!depth}
    stays tree-relative), which lets the streaming validator spill a
    subtree [base_depth] levels into a document while keeping the
    global nesting ceiling exact.  Duplicate keys are detected in
    [keys] (default: a fresh set), so a caller reading the enclosing
    objects through a set of its own passes that one.  Its columns
    start small and double, so the cost follows the value parsed, not
    the input that follows it.  @raise Parser.Parse_error, @raise
    Lexer.Error like {!of_string_exn}. *)

val to_value : t -> Value.t
(** Inverse of {!of_value} (up to object pair order). *)

val value_at : t -> node -> Value.t
(** [value_at t n] is [json(n)]: the JSON value of the subtree rooted at
    [n] — itself a valid JSON document (compositionality, §3.1). *)

val root : node
(** The root node, always [0]. *)

val node_count : t -> int
(** [|D|], the number of nodes. *)

val kind : t -> node -> kind
val is_obj : t -> node -> bool
val is_arr : t -> node -> bool
val is_str : t -> node -> bool
val is_int : t -> node -> bool

val str_value : t -> node -> string option
(** [val(n)] for string nodes. *)

val int_value : t -> node -> int option
(** [val(n)] for number nodes. *)

val obj_children : t -> node -> (string * node) list
(** Key-labelled children (empty unless [n] is an object), in document
    order. *)

val arr_children : t -> node -> node array
(** Position-labelled children (empty unless [n] is an array); element
    [i] is the child reached through edge [i]. *)

val child_ids : t -> node -> node array
(** All children in document order, as the tree's own backing array —
    {b do not mutate}.  Allocation-free, for hot evaluation loops. *)

val obj_keys : t -> node -> string array
(** The keys of an object node in document order, as the tree's own
    backing array — {b do not mutate}; [[||]] for non-objects.
    Pairs with {!child_ids}: [obj_keys t n] and [child_ids t n] are
    parallel arrays for object nodes. *)

val arity : t -> node -> int
(** Number of children. *)

val lookup : t -> node -> string -> node option
(** [lookup t n k] resolves the navigation instruction [n\[k\]]:
    the unique child of object [n] under key [k].  O(1) expected: an
    object of at most 16 keys is scanned, a wider one probes a table
    built on its first lookup. *)

val nth : t -> node -> int -> node option
(** [nth t n i] resolves [n\[i\]] on array nodes.  Negative [i] counts
    from the end ([-1] is the last element), cf. the dual operator
    remark in §4.2. *)

val parent : t -> node -> node option
(** [None] only for the root. *)

val parent_id : t -> node -> node
(** Allocation-free {!parent}: [-1] for the root.  For hot pre-image
    loops. *)

val edge_from_parent : t -> node -> edge
(** The incoming edge label. *)

(** {1 Label index}

    The edge relations [O] (key-labelled) and [A] (position-labelled)
    grouped by label, so a backward navigation step can touch only the
    edges carrying its label instead of sweeping all [|D|] nodes.
    Built lazily — the first accessor call pays one O(|D|) bucketing
    pass ([tree.index.build] span, [tree.index.builds] counter) — and
    cached on the tree thereafter. *)

val build_index : ?budget:Obs.Budget.t -> t -> unit
(** Force construction of the label index.  [budget] is charged one
    fuel unit per node; the accessors below build with an unlimited
    budget when the index is absent, so call this first to account the
    work. *)

val key_index : t -> string -> node array
(** [key_index t w] lists the nodes whose incoming edge is [Key w], in
    preorder ([[||]] when the key occurs nowhere). *)

val pos_index : t -> int -> node array
(** [pos_index t p] lists the nodes whose incoming edge is [Pos p]
    ([[||]] for [p < 0] or past the widest array). *)

val iter_key_index : (string -> node array -> unit) -> t -> unit
(** Iterate over all distinct object keys and their edge buckets (order
    unspecified). *)

val size : t -> node -> int
(** Number of nodes of the subtree rooted at [n]. *)

val height_of : t -> node -> int
(** Height of the subtree rooted at [n] (leaves have height [0]).  The
    first call on a tree builds every node's height, in O(|D|). *)

val height : t -> int
(** Height of the whole tree. *)

val depth : t -> node -> int
(** Distance from the root.  The first call on a tree builds every
    node's depth, in O(|D|). *)

val subtree_hash : t -> node -> int
(** Structural hash of [json(n)], equal for structurally equal
    subtrees (object key order insensitive), and the same for a tree
    built by {!of_value} or {!of_string}.  A node without children
    hashes on the spot; the first call on any other node builds every
    node's hash, in O(|D|) plus sorting each object's members. *)

val equal_subtrees : t -> node -> node -> bool
(** [equal_subtrees t n1 n2] decides [json(n1) = json(n2)].  Exact:
    size and hash comparison fast path, structural walk on agreement. *)

val equal_across : t -> node -> t -> node -> bool
(** Subtree equality across two different trees. *)

val equal_to_value : t -> node -> Value.t -> bool
(** [equal_to_value t n a] decides [json(n) = A] for a constant
    document [A] (the [EQ(α, A)] and [~(A)] atomic tests). *)

val substitute : t -> node -> Value.t -> Value.t
(** [substitute t n v] is the document of [t] with [json(n)] replaced
    by [v]: only the root-to-[n] spine is rebuilt, siblings convert
    via {!value_at}.  [substitute t root v = v].
    @raise Invalid_argument on an out-of-range node. *)

val nodes : t -> node Seq.t
(** All nodes in preorder. *)

val iter : (node -> unit) -> t -> unit
(** Preorder iteration. *)

val nodes_by_height : t -> node list array
(** [nodes_by_height t] groups node ids by subtree height — index [h]
    lists the nodes of height exactly [h].  Used by the bottom-up
    recursive-JSL evaluator (Proposition 9). *)

val address : t -> node -> int list
(** The tree-domain address of [n]: the sequence of child positions
    from the root, i.e. the element of [D ⊆ N*] the node stands for. *)

val pp_node : t -> Format.formatter -> node -> unit
(** Debug rendering: address, kind and value of a node. *)
