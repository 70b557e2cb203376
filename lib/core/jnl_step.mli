(** The shared semantics of single JNL navigation steps.

    Every engine that interprets a [Key]/[Keys]/[Idx]/[Range] step —
    the set-at-a-time pre-image evaluator and the nodal successor
    enumerator in {!Jnl_eval}, the JSL evaluator's range modalities,
    the {!Jautomaton} run computation, and the datalog EDB encoding —
    must implement {e the same} relation ⟦α⟧.  This module is that
    single implementation; the evaluators contain no step logic of
    their own.

    {2 Negative indices and ranges}

    Array steps address positions RFC 9535-style: a negative index [i]
    denotes position [len + i] of an array of arity [len] ([-1] is the
    last element), and is out of range when [len + i < 0].  A range
    [Range (i, j)] denotes the inclusive window [lo..hi] where each
    negative bound is first offset by [len], then [lo] is clamped up
    to [0] and [hi] down to [len - 1]; the window is empty when
    [lo > hi].  [j = None] is [+∞].  Both directions of evaluation —
    forward successor enumeration and backward pre-image — normalize
    against the {e parent array's} arity, so they define the same
    edge set. *)

(** {1 Normalization} *)

val norm_idx : len:int -> int -> int option
(** [norm_idx ~len i] is the absolute position addressed by index [i]
    in an array of arity [len], or [None] when out of range. *)

val norm_range : len:int -> int -> int option -> (int * int) option
(** [norm_range ~len i j] is the inclusive, in-bounds window
    [Some (lo, hi)] selected by [Range (i, j)] on an array of arity
    [len], or [None] when the selection is empty. *)

val range_matches : len:int -> pos:int -> int -> int option -> bool
(** Does the array edge at position [pos] fall in [Range (i, j)]? *)

(** {1 Forward direction: successors of a node} *)

val key_succ : Jsont.Tree.t -> Jsont.Tree.node -> string -> Jsont.Tree.node option
val idx_succ : Jsont.Tree.t -> Jsont.Tree.node -> int -> Jsont.Tree.node option

val range_succs :
  Jsont.Tree.t -> Jsont.Tree.node -> int -> int option -> Jsont.Tree.node list
(** Children selected by [Range (i, j)], in document order. *)

val range_exists :
  Jsont.Tree.t -> Jsont.Tree.node -> int -> int option ->
  (Jsont.Tree.node -> bool) -> bool
(** Short-circuiting [∃ child ∈ Range (i, j) window. pred child]. *)

val keys_succs :
  Jsont.Tree.t -> Jsont.Tree.node -> Rexp.Lang.t -> Jsont.Tree.node list
(** Children reached through a key in the language, in document
    order. *)

val keys_exists :
  Jsont.Tree.t -> Jsont.Tree.node -> Rexp.Lang.t ->
  (Jsont.Tree.node -> bool) -> bool

(** {1 Backward direction} *)

val arity_window : int -> int option -> (int * int option) option
(** [arity_window i j] is the set of array arities [len] for which
    [Range (i, j)] selects at least one element, as an interval
    [Some (lo, hi)] ([hi = None] is unbounded; [lo >= 1]), or [None]
    when it selects nothing at any arity.  [Idx i] is [Range (i, Some
    i)].  The pre-image of a window step over {e every} node is the
    set of arrays with an arity in this interval. *)
