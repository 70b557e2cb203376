(** What the set-at-a-time JNL evaluator ({!Jnl_eval.Make}) reads of a
    forest of JSON trees: one in-memory {!Jsont.Tree.t}, or a whole
    corpus through its on-disk index.  Nodes are dense ids
    [0 .. n_nodes-1], each tree in preorder, so a node's first child is
    the next id. *)
module type S = sig
  type t

  type key
  (** An object key as the store names it. *)

  type bucket
  (** The nodes reached through one edge label. *)

  val n_nodes : t -> int

  val connective_fuel : t -> int
  (** Fuel one boolean connective or path combinator burns: the node
      count where connectives sweep every node, less where fuel must
      follow the postings touched rather than the store's size. *)

  val prepare : Obs.Budget.t -> t -> unit
  (** Make the buckets available, charging the budget. *)

  val parent : t -> int -> int
  (** [-1] at a root. *)

  val is_key : t -> int -> key -> bool
  (** Is the node's incoming edge this key? *)

  val edge_key : t -> int -> (key -> bool) -> bool
  (** Is the incoming edge a key edge whose key passes the test? *)

  val edge_pos : t -> int -> int
  (** The incoming edge's array position; [-1] for a key edge or a
      root. *)

  val last_child : t -> int -> bool
  (** Is the node the last element of its array? *)

  val arity : t -> int -> int
  (** Number of elements of an array node. *)

  val has_element : t -> int -> int -> bool
  (** [has_element t g p]: is [g] an array with an element at [p]? *)

  val find_key : t -> string -> key option
  (** [None]: no edge anywhere carries the key. *)

  val key_name : t -> key -> string

  val iter_keys : t -> (key -> string -> unit) -> unit
  (** Every key with at least one edge. *)

  val key_bucket : t -> key -> bucket

  val pos_bucket : t -> int -> bucket
  (** The nodes whose incoming edge is that non-negative position. *)

  val value_bucket :
    t -> [ `Key of key | `Pos of int ] -> Jsont.Value.t -> bucket option
  (** The nodes reached by that label whose subtree equals the
      constant, if the store keeps such postings. *)

  val equal_nodes : t -> Obs.Budget.t -> Jsont.Value.t -> Bitset.t
  (** Every node whose subtree equals the constant. *)

  val eq_paths :
    t -> budget:Obs.Budget.t -> depth:int ->
    lang:(Rexp.Syntax.t -> Rexp.Lang.t) -> test:(int -> Jnl.form -> Bitset.t) ->
    Jnl.path -> Jnl.path -> Bitset.t
  (** [⟦EQ(α, β)⟧]; [test depth ϕ] is the evaluator's own [⟦ϕ⟧]. *)

  val length : bucket -> int
  val iter : t -> bucket -> (int -> unit) -> unit

  val mem : t -> bucket -> int -> bool
  (** Is the node a member of a {!value_bucket}?  Buckets list their
      members ascending, so this is a binary search. *)

  (** {2 Forward steps}

      What a demand-restricted step ({!Jnl_eval.Make.eval_in}) reads
      to walk from the nodes whose answer is wanted to their
      children. *)

  val children : t -> int -> (int -> bool) -> unit
  (** [children t g f] calls [f] on [g]'s children in document order
      until it returns [false]. *)

  val roots : t -> int array
  (** Every tree's root, ascending. *)

  val root_children : t -> [ `Key of key | `Pos of int ] -> int array option
  (** The roots' children through that label, ascending, if the store
      keeps them. *)

  (** {2 Bulk steps}

      A step whose result the evaluator keeps as a bitset runs as one
      of these: a single loop inside the store over its columns, with
      no closure call per member.  They visit the members {!iter} and
      a walk of the set would visit, and the evaluator charges the same
      fuel for them. *)

  val bucket_parents :
    t -> bucket -> [ `All | `In of Bitset.t | `Element of int ] ->
    Bitset.t -> int
  (** [bucket_parents t b keep into] adds to [into] the parents of
      [b]'s members: all of them, those in a set, or those that are
      arrays with an element at position [p] ([`Element p]); the
      result is how many [into] did not hold. *)

  val edge_parents :
    t -> Bitset.t -> [ `Key of key | `Pos of int ] -> Bitset.t -> int
  (** [edge_parents t s edge into] adds to [into] the parents of [s]'s
      members whose incoming edge is that key or that position, and
      counts the new ones likewise. *)
end
