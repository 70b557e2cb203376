module Tree = Jsont.Tree

type t = { defs : (string * Jsl.t) list; base : Jsl.t }

(* Symbols occurring outside the scope of any modal operator — the
   edges of the precedence graph. *)
let nonmodal_vars f =
  let rec go acc (f : Jsl.t) =
    match f with
    | Jsl.True | Jsl.Test _ -> acc
    | Jsl.Var v -> v :: acc
    | Jsl.Not g -> go acc g
    | Jsl.And (a, b) | Jsl.Or (a, b) -> go (go acc a) b
    | Jsl.Dia_keys _ | Jsl.Box_keys _ | Jsl.Dia_range _ | Jsl.Box_range _ ->
      acc
  in
  List.sort_uniq String.compare (go [] f)

(* Each symbol's first definition, by name. *)
let definitions t =
  let table = Hashtbl.create (List.length t.defs) in
  List.iter
    (fun (v, def) -> if not (Hashtbl.mem table v) then Hashtbl.add table v def)
    t.defs;
  table

(* The precedence graph's edges out of a symbol, from its first
   definition; [] when it has none. *)
let successors t =
  let graph = Hashtbl.create (List.length t.defs) in
  Hashtbl.iter (fun v def -> Hashtbl.add graph v (nonmodal_vars def)) (definitions t);
  fun v -> Option.value ~default:[] (Hashtbl.find_opt graph v)

exception Ill_formed of string

let ill_formed fmt = Printf.ksprintf (fun m -> raise (Ill_formed m)) fmt

(* Definitions are looked up in one table, so the cost is linear in the
   formulas.  Errors are the first in order of the first failing
   check. *)
let well_formed t =
  let count = Hashtbl.create (List.length t.defs) in
  List.iter
    (fun (v, _) ->
      Hashtbl.replace count v (1 + Option.value ~default:0 (Hashtbl.find_opt count v)))
    t.defs;
  match
    List.iter
      (fun (v, _) ->
        if Hashtbl.find count v > 1 then ill_formed "symbol $%s defined twice" v)
      t.defs;
    List.iter
      (fun f ->
        List.iter
          (fun v -> if not (Hashtbl.mem count v) then ill_formed "undefined symbol $%s" v)
          (Jsl.free_vars f))
      (t.base :: List.map snd t.defs);
    (* acyclicity of the precedence graph by DFS *)
    let succs = successors t in
    let color = Hashtbl.create (Hashtbl.length count) in
    let rec visit v =
      match Hashtbl.find_opt color v with
      | Some `Done -> ()
      | Some `Active -> ill_formed "precedence cycle through $%s" v
      | None ->
        Hashtbl.replace color v `Active;
        List.iter visit (succs v);
        Hashtbl.replace color v `Done
    in
    List.iter (fun (v, _) -> visit v) t.defs
  with
  | () -> Ok ()
  | exception Ill_formed m -> Error m

let make ~defs ~base =
  let t = { defs; base } in
  match well_formed t with Ok () -> Ok t | Error _ as e -> e

let make_exn ~defs ~base =
  match make ~defs ~base with
  | Ok t -> t
  | Error m -> invalid_arg ("Jsl_rec.make_exn: " ^ m)

let size t =
  List.fold_left (fun acc (_, f) -> acc + 1 + Jsl.size f) (Jsl.size t.base) t.defs

(* Definitions in dependency-first order of the precedence graph, so a
   symbol is always computed after the symbols it references outside
   modal operators. *)
let topo_defs t =
  let succs = successors t and defs = definitions t in
  let visited = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit v =
    if not (Hashtbl.mem visited v) then begin
      Hashtbl.add visited v ();
      List.iter visit (succs v);
      match Hashtbl.find_opt defs v with
      | Some def -> order := (v, def) :: !order
      | None -> ()
    end
  in
  List.iter (fun (v, _) -> visit v) t.defs;
  List.rev !order

let unfold t ~height =
  let budget0 = height + 1 in
  let rec expand budget (f : Jsl.t) : Jsl.t =
    match f with
    | Jsl.Var v ->
      if budget <= 0 then Jsl.ff
      else expand budget (List.assoc v t.defs)
    | Jsl.True | Jsl.Test _ -> f
    | Jsl.Not g -> Jsl.Not (expand budget g)
    | Jsl.And (a, b) -> Jsl.And (expand budget a, expand budget b)
    | Jsl.Or (a, b) -> Jsl.Or (expand budget a, expand budget b)
    | Jsl.Dia_keys (e, g) -> Jsl.Dia_keys (e, expand (budget - 1) g)
    | Jsl.Box_keys (e, g) -> Jsl.Box_keys (e, expand (budget - 1) g)
    | Jsl.Dia_range (i, j, g) -> Jsl.Dia_range (i, j, expand (budget - 1) g)
    | Jsl.Box_range (i, j, g) -> Jsl.Box_range (i, j, expand (budget - 1) g)
  in
  expand budget0 t.base

(* Bottom-up evaluation by height (Proposition 9). *)
let build_table ?budget tree t =
  let ctx = Jsl.context ?budget tree in
  let n = Tree.node_count tree in
  let table = Hashtbl.create (List.length t.defs) in
  List.iter (fun (v, _) -> Hashtbl.add table v (Bitset.create n)) t.defs;
  let env v node = Bitset.mem (Hashtbl.find table v) node in
  let ordered = topo_defs t in
  Array.iter
    (fun bucket ->
      List.iter
        (fun (v, def) ->
          let set = Hashtbl.find table v in
          List.iter
            (fun node ->
              if Jsl.node_eval ctx ~env node def then Bitset.add set node)
            bucket)
        ordered)
    (Tree.nodes_by_height tree);
  (ctx, env, table)

let sat_table ?budget tree t =
  let _, _, table = build_table ?budget tree t in
  List.map (fun (v, _) -> (v, Hashtbl.find table v)) t.defs

let holds_at ?budget tree t node =
  let ctx, env, _ = build_table ?budget tree t in
  Jsl.node_eval ctx ~env node t.base

let validates ?budget v t =
  holds_at ?budget (Jsont.Tree.of_value ?budget v) t Tree.root

let validates_by_unfolding v t =
  let tree = Tree.of_value v in
  let f = unfold t ~height:(Tree.height tree) in
  let ctx = Jsl.context tree in
  Jsl.holds ctx Tree.root f

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (v, def) -> Format.fprintf fmt "$%s = %a@," v Jsl.pp def)
    t.defs;
  Format.fprintf fmt "%a@]" Jsl.pp t.base

(* ---- concrete syntax ------------------------------------------------------- *)

let to_string t =
  let buf = Buffer.create 128 in
  List.iter
    (fun (v, def) ->
      Buffer.add_string buf (Printf.sprintf "$%s = %s;\n" v (Jsl.to_string def)))
    t.defs;
  Buffer.add_string buf (Jsl.to_string t.base);
  Buffer.contents buf

(* split on top-level ';' — not inside "strings" or /regex literals/ *)
let split_statements input =
  let parts = ref [] in
  let buf = Buffer.create 64 in
  let n = String.length input in
  let i = ref 0 in
  let mode = ref `Plain in
  while !i < n do
    let ch = input.[!i] in
    (match !mode with
    | `Plain -> (
      match ch with
      | ';' ->
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf
      | '"' ->
        mode := `String;
        Buffer.add_char buf ch
      | '/' ->
        mode := `Regex;
        Buffer.add_char buf ch
      | c -> Buffer.add_char buf c)
    | `String -> (
      Buffer.add_char buf ch;
      match ch with
      | '\\' when !i + 1 < n ->
        incr i;
        Buffer.add_char buf input.[!i]
      | '"' -> mode := `Plain
      | _ -> ())
    | `Regex -> (
      Buffer.add_char buf ch;
      match ch with
      | '\\' when !i + 1 < n ->
        incr i;
        Buffer.add_char buf input.[!i]
      | '/' -> mode := `Plain
      | _ -> ()));
    incr i
  done;
  parts := Buffer.contents buf :: !parts;
  List.rev !parts

let parse input =
  let statements = split_statements input in
  let trim = String.trim in
  let rec go defs = function
    | [] -> Error "missing base expression"
    | [ base_text ] -> (
      match Jsl.parse (trim base_text) with
      | Error m -> Error ("base expression: " ^ m)
      | Ok base -> make ~defs:(List.rev defs) ~base)
    | def_text :: rest -> (
      let def_text = trim def_text in
      match String.index_opt def_text '=' with
      | Some eq
        when String.length def_text > 0
             && def_text.[0] = '$'
             && not (String.contains (String.sub def_text 0 eq) '(') -> (
        let name = trim (String.sub def_text 1 (eq - 1)) in
        let body = String.sub def_text (eq + 1) (String.length def_text - eq - 1) in
        if name = "" then Error "empty definition name"
        else
          match Jsl.parse (trim body) with
          | Error m -> Error (Printf.sprintf "definition $%s: %s" name m)
          | Ok f -> go ((name, f) :: defs) rest)
      | _ -> Error (Printf.sprintf "expected a definition, got %S" def_text))
  in
  go [] statements

let parse_exn input =
  match parse input with
  | Ok t -> t
  | Error m -> invalid_arg ("Jsl_rec.parse_exn: " ^ m)
