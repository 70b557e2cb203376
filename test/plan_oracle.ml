(* The JSL-on-plan differential shared by the suites: a formula compiled
   by [Validate.Plan.of_jsl] must get the same verdict from the plan's
   tree executor, its stream executor on the whole text, its stream
   executor fed the text in two chunks, and the JSL interpreter. *)

module Plan = Jschema.Validate.Plan
module Lexer = Jsont.Lexer
module Parser = Jsont.Parser

(* a feed lexer that receives [text] in two chunks, split at [cut] (a
   cut at either end leaves one) *)
let two_chunks text cut =
  let pending =
    ref
      (List.filter
         (fun chunk -> chunk <> "")
         [ String.sub text 0 cut; String.sub text cut (String.length text - cut) ])
  in
  Lexer.create_feed
    ~refill:(fun lx ->
      match !pending with
      | [] -> Lexer.close lx
      | chunk :: rest ->
        pending := rest;
        Lexer.feed_string lx chunk)
    ()

let render e = Format.asprintf "%a" Parser.pp_error e

(* The plan routes on [text]: tree, stream, and stream fed in two chunks
   at each of [cuts].  Errors are rendered, so routes compare byte for
   byte. *)
let routes plan text ~cuts =
  let outcome f =
    match Parser.wrap f with Ok b -> Ok b | Error e -> Error (render e)
  in
  ("tree", outcome (fun () -> Plan.run_tree plan (Jsont.Tree.of_string_exn text)))
  :: ("stream", outcome (fun () -> Plan.run_stream plan text))
  :: List.map
       (fun cut ->
         ( Printf.sprintf "chunked@%d" cut,
           outcome (fun () -> Plan.run_lexer plan (two_chunks text cut)) ))
       cuts

let show = function Ok b -> string_of_bool b | Error m -> "error " ^ m

(* Every route must answer [expected] on [text]; [what] names the case. *)
let check ~what ~expected plan text ~cuts =
  List.iter
    (fun (route, got) ->
      if got <> Ok expected then
        Alcotest.failf "%s: %s says %s, expected %b on %s" what route (show got)
          expected text)
    (routes plan text ~cuts)

let every_cut text = List.init (String.length text + 1) Fun.id

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
