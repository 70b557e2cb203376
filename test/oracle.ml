(* The differential oracle shared by the suites.  Theorems 1 and 2 let
   this system answer one question by several routes; the oracle names
   each route once, and every route that covers a case must print the
   same cell on it, byte for byte.

   Adding a route: write it as a function from the case to the exact
   bytes its CLI cell prints (a verdict, rows, or [error: …] through
   [Par.Batch.cell]), name it, say which cases it covers, and add it to
   its kind's [routes].  Every suite that runs the kind then checks it
   on its own cases.  A route that charges a budget exactly as another
   does joins that route's group, and the group's [sweep] runs it under
   tiny fuel, depth and deadline budgets.

   Kinds: [Validate] (a schema or recursive JSL formula, and a
   document's text), [Parse] (a text, whole, fed, or cut into
   documents), [Root] (a JNL formula or JSONPath at every line of a
   corpus), [Pipeline] (an aggregation pipeline over a collection) and
   [Filter] (a find filter and projection over a collection).

   Groups charge budgets differently by design, so budgets are swept
   inside a group only.  The known differences, until every route
   reports one error class:
   - tree against stream validation: the tree route parses under one
     budget and validates under another, the stream routes fuse both
     under one;
   - index against reparse: a document answered from postings is
     charged per query, one unit per connective, a reparsed one per
     node, so [index query --fuel N] and [eval --files-from --fuel N]
     can disagree. *)

module Plan = Jschema.Validate.Plan
module Lexer = Jsont.Lexer
module Parser = Jsont.Parser
module Tree = Jsont.Tree
module Value = Jsont.Value

type 'case route = { name : string; covers : 'case -> bool; run : 'case -> string }

let route ?(covers = fun _ -> true) name run = { name; covers; run }

(* [s] around byte [i], for a failure message *)
let around s i =
  let from = max 0 (i - 80) in
  let len = max 0 (min (String.length s - from) 240) in
  (if from > 0 then "…" else "")
  ^ String.sub s from len
  ^ if from + len < String.length s then "…" else ""

(* Every route that covers [case] prints one cell on it: [want case]
   when given, else the first covering route's.  [what] names the case
   and [show] prints it. *)
let agree ~what ~show ?want routes case =
  let cells =
    List.filter_map
      (fun r -> if r.covers case then Some (r.name, r.run case) else None)
      routes
  in
  let expected =
    match want with Some w -> Some ("expected", w case) | None -> List.nth_opt cells 0
  in
  Option.iter
    (fun (by, cell) ->
      List.iter
        (fun (name, got) ->
          if got <> cell then begin
            let n = min (String.length got) (String.length cell) in
            let rec at i = if i < n && got.[i] = cell.[i] then at (i + 1) else i in
            let i = at 0 in
            Alcotest.failf "%s: %s prints %S, %s %S on %s" what name (around got i)
              by (around cell i) (around (show case) 0)
          end)
        cells)
    expected

let render e = Format.asprintf "%a" Parser.pp_error e

(* ---- how the feed lexer receives a text ---------------------------------- *)

(* a feed lexer that receives [chunks] one refill at a time (empty
   chunks are skipped: a refill feeds at least one byte or closes) *)
let feed chunks =
  let pending = ref (List.filter (fun chunk -> chunk <> "") chunks) in
  Lexer.create_feed
    ~refill:(fun lx ->
      match !pending with
      | [] -> Lexer.close lx
      | chunk :: rest ->
        pending := rest;
        Lexer.feed_string lx chunk)
    ()

(* a named way to cut a text into the chunks a feed lexer receives *)
type chunking = string * (string -> string list)

let slices size : chunking =
  ( Printf.sprintf "fed %d" size,
    fun text ->
      let n = String.length text in
      List.init ((n + size - 1) / size) (fun i ->
          String.sub text (i * size) (min size (n - (i * size)))) )

(* the text in two at [cut] (a cut at either end leaves one) *)
let cut_at cut : chunking =
  ( Printf.sprintf "chunked@%d" cut,
    fun text -> [ String.sub text 0 cut; String.sub text cut (String.length text - cut) ] )

let every_cut text = List.init (String.length text + 1) Fun.id

(* 1 and 7 bytes, and the readers' 64 KiB slices *)
let fixed_slices = List.map slices [ 1; 7; Par.Batch.slice_bytes ]

(* A budget sweep: [under name budget] at each of [fuels] (0 to 40),
   depth 1 to [depth], and deadlines of 0, 1 and 2 ticks on a clock
   that moves one second per read, so a deadline fires after as many
   clock reads on every route whose charges are the same. *)
let sweep ?(fuels = List.init 41 Fun.id) ?(depth = 4) under =
  List.iter
    (fun f -> under (Printf.sprintf "fuel %d" f) (fun () -> Obs.Budget.create ~fuel:f ()))
    fuels;
  for d = 1 to depth do
    under (Printf.sprintf "depth %d" d) (fun () -> Obs.Budget.create ~max_depth:d ())
  done;
  let now = ref 0. in
  Obs.Budget.set_clock_for_tests
    (Some
       (fun () ->
         now := !now +. 1.;
         !now));
  Fun.protect
    ~finally:(fun () -> Obs.Budget.set_clock_for_tests None)
    (fun () ->
      List.iter
        (fun ticks ->
          under (Printf.sprintf "deadline %d" ticks) (fun () ->
              Obs.Budget.create ~timeout_ms:(1000 * ticks) ()))
        [ 0; 1; 2 ])

(* ---- validate ------------------------------------------------------------ *)

module Validate = struct
  type source = Schema of Jschema.Schema.document | Jsl of Jlogic.Jsl_rec.t

  let verdict b = if b then "valid" else "INVALID"
  let cell f = Par.Batch.cell (fun () -> verdict (f ()))

  (* The stream group: the plan on a text whole and fed in [feeds], one
     fused budget from [budget] per document, charged alike. *)
  let stream_routes ?(prefix = "") ?(feeds = fixed_slices) ?budget plan =
    let budget () = Option.map (fun b -> b ()) budget in
    route (prefix ^ "stream") (fun text ->
        cell (fun () -> Plan.run_stream ?budget:(budget ()) plan text))
    :: List.map
         (fun (name, chunks) ->
           route (prefix ^ name) (fun text ->
               cell (fun () -> Plan.run_lexer ?budget:(budget ()) plan (feed (chunks text)))))
         feeds

  (* the plan on the tree of a text, and its stream group; [cuts] feed
     the text in two at each cut instead of in [feeds] *)
  let plan_routes ?prefix ?feeds ?cuts plan =
    let feeds = match cuts with Some cuts -> Some (List.map cut_at cuts) | None -> feeds in
    route (Option.value prefix ~default:"" ^ "tree") (fun text ->
        cell (fun () -> Plan.run_tree plan (Tree.of_string_exn text)))
    :: stream_routes ?prefix ?feeds plan

  (* The interpreters cover the documents [Parser.parse] accepts: their
     parse errors are not the CLI's cells. *)
  let interpreter name f =
    route name
      ~covers:(fun text -> Result.is_ok (Parser.parse text))
      (fun text -> cell (fun () -> f (Parser.parse_exn text)))

  (* Every route of [source], each plan compiled once under the CLI's
     default budget: the interpreters, the compiled plan's routes, and
     the routes of the [Plan.of_jsl] plan of its Theorem 3 translation.
     A schema's recursive JSL interpreter runs on the translation only
     with [jsl_rec]: it takes seconds on the widest schemas. *)
  let routes ?(jsl_rec = false) ?feeds source =
    let budget () = Obs.Budget.create () in
    let r, own =
      match source with
      | Schema s ->
        ( Jschema.To_jsl.document s,
          interpreter "interpreter" (Jschema.Validate.validates s)
          :: plan_routes ~prefix:"compile " ?feeds (Plan.compile ~budget:(budget ()) s) )
      | Jsl r -> (r, [])
    in
    let jsl_rec =
      match source with
      | Jsl _ -> true
      | Schema _ -> jsl_rec
    in
    own
    @ (if jsl_rec then [ interpreter "Jsl_rec" (fun v -> Jlogic.Jsl_rec.validates v r) ]
       else [])
    @ plan_routes ~prefix:"of_jsl " ?feeds
        (Plan.of_jsl ~budget:(budget ()) ~defs:r.Jlogic.Jsl_rec.defs r.Jlogic.Jsl_rec.base)

  (* the daemon's VALIDATE (by the id SCHEMA returns) and VALIDATEI
     (inline), through client [c] *)
  let daemon c schema_text =
    let answer = function Ok cell -> cell | Error m -> "ERR " ^ m in
    let id = answer (Jserve.Client.put_schema c schema_text) in
    [ route "VALIDATE" (fun text -> answer (Jserve.Client.validate c ~schema_id:id text));
      route "VALIDATEI" (fun text ->
          answer (Jserve.Client.validate_inline c ~schema:schema_text text)) ]

  (* every route prints the verdict of each [(text, verdict)] *)
  let check ~what routes cases =
    List.iter
      (fun (text, v) -> agree ~what ~show:Fun.id ~want:(fun _ -> verdict v) routes text)
      cases

  (* every route prints one cell on each text *)
  let agree ~what routes texts = List.iter (agree ~what ~show:Fun.id routes) texts

  (* the stream group agrees on [texts] under every budget of [sweep] *)
  let sweep ~what ?fuels ?depth plan texts =
    sweep ?fuels ?depth (fun name budget ->
        agree ~what:(what ^ ", " ^ name) (stream_routes ~budget plan) texts)
end

(* ---- parse --------------------------------------------------------------- *)

module Parse = struct
  (* A tree as a cell: each node's kind, edge, parent, size, height,
     depth and subtree hash in node order, so two trees print alike
     only when they are identical. *)
  let tree_cell t =
    let b = Buffer.create 256 in
    let int i =
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int i)
    in
    for n = 0 to Tree.node_count t - 1 do
      (match Tree.kind t n with
      | Tree.Kobj -> Buffer.add_char b '{'
      | Tree.Karr -> Buffer.add_char b '['
      | Tree.Kstr s -> Buffer.add_string b ("\"" ^ String.escaped s ^ "\"")
      | Tree.Kint i -> int i);
      (match Tree.edge_from_parent t n with
      | Tree.Root -> ()
      | Tree.Key k -> Buffer.add_string b (" .\"" ^ String.escaped k ^ "\"")
      | Tree.Pos i -> int i);
      List.iter int
        [ Tree.parent_id t n; Tree.size t n; Tree.height_of t n; Tree.depth t n;
          Tree.subtree_hash t n ];
      Buffer.add_char b '\n'
    done;
    Buffer.contents b

  (* the tree of a text fed in [chunks], with [Tree.of_string]'s
     end-of-input check *)
  let fed_tree ?(budget = Obs.Budget.create ()) chunks =
    let lx = feed chunks in
    let t = Tree.of_lexer_exn ~budget lx in
    (match Lexer.next lx with
    | _, Lexer.Eof -> ()
    | pos, tok -> Parser.unexpected pos tok "end of input");
    t

  let tree name f = route name (fun text -> Par.Batch.cell (fun () -> tree_cell (f text)))

  (* The fused group: [Tree.of_string] and the feed lexer's tree at
     each of [feeds], one budget from [budget] per text, charged
     alike. *)
  let fused_routes ?(feeds = List.map slices [ 1; 2; 3; 7; 64 ]) ?budget () =
    let budget () = Option.map (fun b -> b ()) budget in
    tree "Tree.of_string" (fun text -> Tree.of_string_exn ?budget:(budget ()) text)
    :: List.map
         (fun (name, chunks) -> tree name (fun text -> fed_tree ?budget:(budget ()) (chunks text)))
         feeds

  (* one document's text: the tree of [Parser.parse]'s value, and the
     fused group *)
  let routes ?feeds () =
    tree "Tree.of_value ∘ Parser.parse" (fun text -> Tree.of_value (Parser.parse_exn text))
    :: fused_routes ?feeds ()

  let agree ~what routes texts = List.iter (agree ~what ~show:Fun.id routes) texts

  (* the fused group agrees on [texts] under every budget of [sweep] *)
  let sweep ~what ?fuels ?depth texts =
    sweep ?fuels ?depth (fun name budget ->
        agree ~what:(what ^ ", " ^ name) (fused_routes ~budget ()) texts)

  (* An NDJSON text's documents as [line<TAB>text] rows: the lines split
     by hand (numbered from 1, blank ones skipped), and [Par.Batch.lines]
     and [Par.Batch.values] on 1, 2 and 4 lanes reading 1-byte, 7-byte
     and 64 KiB slices.  [values] covers the texts whose every non-blank
     line is one value with nothing around it: only there does it cut
     as the lines do. *)
  let ndjson_routes =
    let rows f =
      let b = Buffer.create 256 in
      f (fun lineno doc -> Printf.bprintf b "%d\t%S\n" lineno doc);
      Buffer.contents b
    in
    let one_per_line text =
      List.for_all
        (fun line ->
          String.trim line = "" || (String.trim line = line && Result.is_ok (Parser.parse line)))
        (String.split_on_char '\n' text)
    in
    let batch ?covers name cut =
      List.concat_map
        (fun jobs ->
          List.map
            (fun chunk_bytes ->
              route ?covers (Printf.sprintf "%s jobs %d chunk %d" name jobs chunk_bytes)
                (fun text ->
                  let path = Filename.temp_file "oracle" ".ndjson" in
                  Fun.protect
                    ~finally:(fun () -> Sys.remove path)
                    (fun () ->
                      Out_channel.with_open_bin path (fun oc ->
                          Out_channel.output_string oc text);
                      rows (fun emit ->
                          In_channel.with_open_bin path (cut ~jobs ~chunk_bytes Fun.id emit)))))
            [ 1; 7; Par.Batch.slice_bytes ])
        [ 1; 2; 4 ]
    in
    route "split on newlines" (fun text ->
        rows (fun emit ->
            List.iteri
              (fun i line -> if String.trim line <> "" then emit (i + 1) line)
              (String.split_on_char '\n' text)))
    :: batch "lines" (fun ~jobs ~chunk_bytes f -> Par.Batch.lines ~jobs ~chunk_bytes f)
    @ batch ~covers:one_per_line "values" (fun ~jobs ~chunk_bytes f ->
          Par.Batch.values ~jobs ~chunk_bytes f)
end

(* ---- JNL at the root of each line of a corpus ----------------------------- *)

module Root = struct
  type question = Jnl of Jlogic.Jnl.form | Jsonpath of string

  let form = function
    | Jnl phi -> phi
    | Jsonpath p -> Jlogic.Jnl.Exists (Jquery.Jsonpath.parse_exn p)

  let show = function Jnl phi -> Jlogic.Jnl.to_string phi | Jsonpath p -> p

  (* the index's rows: one [line<TAB>verdict] per document *)
  let index_rows r verdicts =
    String.concat ""
      (Array.to_list
         (Array.mapi
            (fun d v ->
              Printf.sprintf "%d\t%s\n" (Jindex.Reader.doc_lineno r d)
                (Jindex.Query.verdict_string v))
            verdicts))

  (* A question at the root of every non-blank line of [corpus], as
     [index query] prints it: the per-document cell that reparse and
     [eval --files-from] share, the set and per-node evaluators under
     the root demand, a JSONPath's selection, and, given a [reader] of
     the corpus's index, [query] over it ([Query.run] on two lanes) and
     the daemon's [INDEXQ] through [client].  The per-line routes run
     on two lanes, as [eval --files-from --jobs 2] maps its files. *)
  let routes ?reader ?(query = fun r phi -> Jindex.Query.run ~jobs:2 r phi) ?client corpus =
    let fresh_budget () = Obs.Budget.create () in
    (* each line's tree, built once: the evaluators share it *)
    let lines =
      List.filter_map
        (fun (n, line) ->
          if String.trim line = "" then None
          else
            Some
              ( n,
                line,
                match Tree.of_string ~budget:(fresh_budget ()) line with
                | Ok tree -> Ok tree
                | Error e -> Error ("error: " ^ render e) ))
        (List.mapi (fun i line -> (i + 1, line)) (String.split_on_char '\n' corpus))
      |> Array.of_list
    in
    let per_line f q =
      Par.Batch.map ~jobs:2
        (fun (n, line, tree) -> Printf.sprintf "%d\t%s\n" n (f q line tree))
        lines
      |> Array.to_list |> String.concat ""
    in
    let on_tree f =
      per_line (fun q _ -> function
        | Error cell -> cell
        | Ok tree ->
          Par.Batch.cell (fun () ->
              string_of_bool (f (Jlogic.Jnl_eval.context ~budget:(fresh_budget ()) tree) q)))
    in
    [ route "doc_cell"
        (per_line (fun q line _ ->
             fst (Jindex.Query.doc_cell ~fresh_budget (form q) (fun () -> line))));
      route "check_at" (on_tree (fun ctx q -> Jlogic.Jnl_eval.check_at ctx Tree.root (form q)));
      route "eval_in Roots"
        (on_tree (fun ctx q -> Jlogic.Jnl_eval.eval_in ctx `Roots (form q) <> [||]));
      route "Jsonpath.select"
        ~covers:(function Jsonpath _ -> true | Jnl _ -> false)
        (on_tree (fun ctx q ->
             match q with
             | Jsonpath p ->
               Jquery.Jsonpath.select_nodes (Jlogic.Jnl_eval.tree ctx)
                 (Jquery.Jsonpath.parse_exn p)
               <> []
             | Jnl _ -> assert false)) ]
    @ (match reader with
      | None -> []
      | Some r ->
        [ route "Query.run" (fun q ->
              match query r (form q) with
              | Ok verdicts -> index_rows r verdicts
              | Error m -> "ERR " ^ m) ])
    @
    match client with
    | None -> []
    | Some (c, index) ->
      [ route "INDEXQ" (fun q ->
            match Jserve.Client.index_query c ~index (Jlogic.Jnl.to_string (form q)) with
            | Ok rows -> rows
            | Error m -> "ERR " ^ m) ]

  let agree ~what routes questions = List.iter (agree ~what ~show routes) questions
end

(* ---- aggregation pipelines ----------------------------------------------- *)

let show_values vs = String.concat "\n" (List.map Value.to_string vs)

module Pipeline = struct
  module Agg = Jquery.Mongo_agg

  (* A pipeline's text over the documents [texts]: [Mongo_agg.run] and
     [run_docs], the streaming prefix by [apply_doc] on each document's
     tree sharded at 1 and 2 jobs and the blocking suffix by [run_docs],
     and [run_via_jnl] on the navigational core. *)
  (* the streaming prefix of [pl] over [jobs] lanes, each document
     ingested from its text by [ingest], then the blocking suffix in
     input order *)
  let sharded ~jobs ~ingest pl texts =
    let streaming, blocking = Agg.split_streaming pl in
    Par.Batch.map ~jobs (fun text -> Agg.apply_doc streaming (ingest text)) texts
    |> Array.to_list |> List.concat |> Agg.run_docs blocking |> List.map Agg.doc_value

  let routes texts =
    let vs = List.map Parser.parse_exn texts in
    let out f ptext = Par.Batch.cell (fun () -> show_values (f (Agg.parse_string_exn ptext))) in
    let sharded jobs pl =
      sharded ~jobs
        ~ingest:(fun text -> Agg.doc_of_tree (Tree.of_string_exn text))
        pl (Array.of_list texts)
    in
    [ route "run" (out (fun pl -> Agg.run pl vs));
      route "run_docs"
        (out (fun pl -> List.map Agg.doc_value (Agg.run_docs pl (List.map Agg.doc_of_value vs))));
      route "apply_doc jobs 1" (out (sharded 1));
      route "apply_doc jobs 2" (out (sharded 2));
      route "run_via_jnl"
        ~covers:(fun ptext -> Agg.navigational (Agg.parse_string_exn ptext))
        (out (fun pl ->
             match Agg.run_via_jnl pl vs with Ok out -> out | Error m -> failwith m)) ]

  let agree ~what routes pipelines = List.iter (agree ~what ~show:Fun.id routes) pipelines
end

(* ---- find filters -------------------------------------------------------- *)

module Filter = struct
  module Mongo = Jquery.Mongo

  (* A filter's text and a projection's over the documents [vs]: the
     documents [Mongo.matches] keeps, those the JSL translation keeps
     and, on Theorem 2's fragment, the JNL translation (these three
     without a projection: theirs is [find]'s), [Mongo.find] then
     [Mongo.project], and the [of_find] pipeline. *)
  let routes vs =
    let parse (ftext, ptext) =
      ( Mongo.parse_string_exn ftext,
        Option.map
          (fun p -> Result.get_ok (Mongo.parse_projection (Parser.parse_exn p)))
          ptext )
    in
    let trees = Array.of_list (List.map Tree.of_value vs) in
    let out f case =
      let filter, p = parse case in
      let docs = f filter in
      show_values (match p with None -> docs | Some p -> List.map (Mongo.project p) docs)
    in
    let unprojected (_, p) = p = None in
    [ route "matches" ~covers:unprojected (out (fun f -> List.filter (Mongo.matches f) vs));
      route "JSL" ~covers:unprojected
        (out (fun f ->
             let jsl = Mongo.to_jsl f in
             List.filter (fun d -> Jlogic.Jsl.validates d jsl) vs));
      route "JNL"
        ~covers:(fun (ftext, p) ->
          p = None && Result.is_ok (Mongo.to_jnl (Mongo.parse_string_exn ftext)))
        (out (fun f ->
             let jnl = Result.get_ok (Mongo.to_jnl f) in
             List.filteri
               (fun i _ ->
                 Jlogic.Jnl_eval.holds (Jlogic.Jnl_eval.context trees.(i)) Tree.root jnl)
               vs));
      route "find" (out (fun f -> Mongo.find f vs));
      route "of_find" (fun case ->
          let f, p = parse case in
          show_values (Jquery.Mongo_agg.run (Jquery.Mongo_agg.of_find f p) vs)) ]

  let agree ~what routes cases =
    List.iter
      (agree ~what
         ~show:(fun (f, p) -> f ^ Option.fold ~none:"" ~some:(( ^ ) " projected by ") p)
         routes)
      cases
end

(* Gen_formula never draws [Unique]; turning every [Arr] test into one
   puts uniqueness (and its spill) wherever the generator puts array
   tests. *)
let rec arr_to_unique (f : Jlogic.Jsl.t) : Jlogic.Jsl.t =
  let open Jlogic.Jsl in
  match f with
  | Test Is_arr -> Test Unique
  | True | Test _ | Var _ -> f
  | Not g -> Not (arr_to_unique g)
  | And (a, b) -> And (arr_to_unique a, arr_to_unique b)
  | Or (a, b) -> Or (arr_to_unique a, arr_to_unique b)
  | Dia_keys (e, g) -> Dia_keys (e, arr_to_unique g)
  | Box_keys (e, g) -> Box_keys (e, arr_to_unique g)
  | Dia_range (i, j, g) -> Dia_range (i, j, arr_to_unique g)
  | Box_range (i, j, g) -> Box_range (i, j, arr_to_unique g)
