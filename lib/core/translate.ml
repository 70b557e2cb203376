exception Out_of_scope of string

let out_of_scope fmt = Format.kasprintf (fun s -> raise (Out_of_scope s)) fmt

(* ---- JSL → JNL (polynomial) --------------------------------------------- *)

(* word-shaped key languages become deterministic [Key] steps, so the
   deterministic JSL fragment lands in deterministic JNL *)
let key_step e =
  match Rexp.Syntax.as_word e with
  | Some w -> Jnl.Key w
  | None -> Jnl.Keys e

let rec jsl_to_jnl_inner (f : Jsl.t) : Jnl.form =
  match f with
  | Jsl.True -> Jnl.True
  | Jsl.Not g -> Jnl.Not (jsl_to_jnl_inner g)
  | Jsl.And (a, b) -> Jnl.And (jsl_to_jnl_inner a, jsl_to_jnl_inner b)
  | Jsl.Or (a, b) -> Jnl.Or (jsl_to_jnl_inner a, jsl_to_jnl_inner b)
  | Jsl.Test (Jsl.Eq_doc v) -> Jnl.Eq_doc (Jnl.Self, v)
  | Jsl.Test nt ->
    out_of_scope "node test %s is outside Theorem 2's JSL fragment"
      (Format.asprintf "%a" Jsl.pp (Jsl.Test nt))
  | Jsl.Dia_keys (e, g) ->
    Jnl.Exists (Jnl.Seq (key_step e, Jnl.Test (jsl_to_jnl_inner g)))
  | Jsl.Dia_range (i, j, g) ->
    Jnl.Exists (Jnl.Seq (Jnl.Range (i, j), Jnl.Test (jsl_to_jnl_inner g)))
  | Jsl.Box_keys (e, g) ->
    (* □_e ϕ ≡ ¬◇_e ¬ϕ *)
    Jnl.Not
      (Jnl.Exists (Jnl.Seq (key_step e, Jnl.Test (Jnl.Not (jsl_to_jnl_inner g)))))
  | Jsl.Box_range (i, j, g) ->
    Jnl.Not
      (Jnl.Exists
         (Jnl.Seq (Jnl.Range (i, j), Jnl.Test (Jnl.Not (jsl_to_jnl_inner g)))))
  | Jsl.Var v -> out_of_scope "recursion symbol $%s (Theorem 2 is non-recursive)" v

let jsl_to_jnl f =
  match jsl_to_jnl_inner f with
  | g -> Ok g
  | exception Out_of_scope m -> Error m

(* ---- JNL → JSL (worst-case exponential) ---------------------------------- *)

(* [trans_path α k] is a JSL formula satisfied at n iff some α-successor
   of n satisfies k — the continuation-passing rendering of the
   top-symbol substitution in the proof of Theorem 2.  [Alt] duplicates
   the continuation, which is where the exponential blow-up lives. *)
let rec trans_path (p : Jnl.path) (k : Jsl.t) : Jsl.t =
  match p with
  | Jnl.Self -> k
  | Jnl.Key w -> Jsl.Dia_keys (Rexp.Syntax.literal w, k)
  | Jnl.Keys e -> Jsl.Dia_keys (e, k)
  | Jnl.Idx i ->
    if i < 0 then
      out_of_scope "negative index %d is not expressible in JSL ranges" i
    else Jsl.Dia_range (i, Some i, k)
  | Jnl.Range (i, j) ->
    if i < 0 then out_of_scope "negative range start %d" i
    else Jsl.Dia_range (i, j, k)
  | Jnl.Seq (a, b) -> trans_path a (trans_path b k)
  | Jnl.Alt (a, b) -> Jsl.Or (trans_path a k, trans_path b k)
  | Jnl.Test f -> Jsl.And (trans_form f, k)
  | Jnl.Star _ ->
    out_of_scope "Kleene star has no counterpart in non-recursive JSL"

and trans_form (f : Jnl.form) : Jsl.t =
  match f with
  | Jnl.True -> Jsl.True
  | Jnl.Not g -> Jsl.Not (trans_form g)
  | Jnl.And (a, b) -> Jsl.And (trans_form a, trans_form b)
  | Jnl.Or (a, b) -> Jsl.Or (trans_form a, trans_form b)
  | Jnl.Exists p -> trans_path p Jsl.True
  | Jnl.Eq_doc (p, v) -> trans_path p (Jsl.Test (Jsl.Eq_doc v))
  | Jnl.Eq_paths _ ->
    out_of_scope "EQ(α,β) is not expressible in JSL (Theorem 2's premise)"

let jnl_to_jsl f =
  match trans_form f with
  | g -> Ok g
  | exception Out_of_scope m -> Error m

let alt_chain n =
  let step = Jnl.Alt (Jnl.Key "a", Jnl.Key "b") in
  let rec chain k = if k <= 1 then step else Jnl.Seq (step, chain (k - 1)) in
  Jnl.Exists (chain (max 1 n))
