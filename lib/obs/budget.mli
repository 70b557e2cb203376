(** Resource budgets for the evaluation stack.

    A {!t} bundles the three hard limits every entry point of the
    library (parsing, tree construction, JNL/JSL evaluation, streaming
    validation, satisfiability search) checks while it works:

    - {b fuel}: a node-count allowance.  Every unit of work — a parsed
      value, a visited tree node, a candidate document tried by the
      satisfiability search — burns fuel; running out raises
      {!Exhausted}[ Fuel].
    - {b depth}: a recursion-depth ceiling (default
      {!default_max_depth}).  All recursive descents (the parser, tree
      construction, the formula evaluators, the streaming skipper)
      check their current depth against it, so adversarially nested
      inputs yield a structured error instead of [Stack_overflow].
    - {b deadline}: an elapsed-time cutoff measured on the {e monotonic}
      clock ({!now_mono}), checked periodically while fuel is burned, so
      a stuck search fails fast instead of stalling a request.  The
      monotonic source matters for long-lived processes: an NTP step of
      the wall clock neither fires a deadline early nor defers it.

    Budgets are cheap: an unlimited budget burns no memory traffic at
    all, a fuel/deadline budget costs one branch and one subtraction
    per unit of work.  A budget with fuel or a deadline is mutable and
    must not be shared between concurrent evaluations; {!unlimited} and
    {!depth_limited} budgets are stateless and freely shareable. *)

type reason =
  | Fuel  (** the node-count allowance was spent *)
  | Depth  (** the recursion-depth ceiling was hit *)
  | Deadline  (** the wall-clock cutoff passed *)

exception Exhausted of reason
(** Raised by {!burn} / {!check_depth}.  Library entry points that
    return [result] catch it and surface {!describe}[ reason]. *)

type t

val default_max_depth : int
(** [10_000] — the documented default nesting ceiling, shared by the
    JSON parser and the streaming validator. *)

val unlimited : t
(** No limits at all.  Stateless; safe to share. *)

val depth_limited : int -> t
(** Only a recursion-depth ceiling.  Stateless; safe to share. *)

val create :
  ?fuel:int -> ?max_depth:int -> ?timeout_ms:int -> unit -> t
(** [create ()] limits depth to {!default_max_depth} and nothing else.
    [?fuel] enables node-count accounting; [?timeout_ms] arms a
    deadline [timeout_ms] milliseconds of monotonic time from now. *)

val now_mono : unit -> float
(** Seconds on the monotonic clock (arbitrary epoch, never steps).
    The {e only} time source deadlines are armed from and checked
    against. *)

val set_clock_for_tests : (unit -> float) option -> unit
(** Replace ({!Some}) or restore ([None]) the clock behind
    {!now_mono}.  Test apparatus: deadline regressions drive a stubbed
    clock deterministically instead of sleeping.  Process-global; not
    for production code. *)

val max_depth : t -> int

val limits : t -> (int option * int) option
(** [limits b] is [Some (fuel, max_depth)] for a budget without a
    deadline and [None] for one with a deadline.  [fuel] is the
    allowance left ([None] without fuel accounting), so on a fresh
    budget it is the fuel limit.  Work under a budget without a
    deadline is deterministic: two fresh budgets with equal limits fail
    the same work at the same point, so a result computed under one
    stands for the other. *)

val check_depth : t -> int -> unit
(** [check_depth b d] raises {!Exhausted}[ Depth] iff [d > max_depth b]. *)

val burn : t -> int -> unit
(** [burn b cost] consumes [cost] fuel units and periodically (every
    {!deadline_stride} calls) checks the deadline.  Raises {!Exhausted}
    with the matching reason. *)

val deadline_stride : int
(** How many {!burn} calls pass between two wall-clock reads. *)

val string_of_reason : reason -> string
val pp_reason : Format.formatter -> reason -> unit

val describe : reason -> string
(** A one-line, user-facing message, e.g.
    ["resource budget exhausted: recursion depth limit reached"]. *)
