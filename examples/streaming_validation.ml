(* Streaming validation: the §6 conjecture in action.  A JSON-lines
   feed is validated against a JSL formula compiled to the validation
   plan ([Validate.Plan.of_jsl]) and run straight off the token stream
   ([run_stream]): no tree is built, and memory follows the formula and
   the nesting depth, not the documents.

   Run with: dune exec examples/streaming_validation.exe *)

module Value = Jsont.Value
module Plan = Jschema.Validate.Plan
open Jlogic

let counter = Obs.Metrics.counter_value

let () =
  Obs.Metrics.set_enabled true;
  (* the shape every event must have *)
  let event_schema =
    Jsl.conj
      [ Jsl.Test Jsl.Is_obj;
        Jsl.dia_key "kind" (Jsl.Test Jsl.Is_str);
        Jsl.dia_key "seq" (Jsl.Test (Jsl.Min 0));
        Jsl.box_key "payload" (Jsl.Test (Jsl.Min_ch 0)) ]
  in
  let plan = Plan.of_jsl event_schema in
  Printf.printf "formula of size %d compiled to %d plan nodes\n"
    (Jsl.size event_schema) (Plan.node_count plan);

  (* build a feed: 1000 events, a few malformed *)
  let rng = Jworkload.Prng.create 99 in
  let event i =
    let base =
      [ ("kind", Value.Str (Jworkload.Prng.choose rng [ "click"; "view"; "buy" ]));
        ("seq", Value.Num i);
        ("payload", Jworkload.Gen_json.sized rng 40) ]
    in
    if i mod 97 = 0 then Value.Obj (List.remove_assoc "kind" base) (* corrupt *)
    else Value.Obj base
  in
  let feed = List.init 1000 event in
  let lines = List.map Value.to_string feed in
  let bytes = List.fold_left (fun acc l -> acc + String.length l) 0 lines in
  Printf.printf "feed: %d events, %d bytes\n" (List.length lines) bytes;

  (* stream-validate every line *)
  let valid = ref 0 and invalid = ref 0 in
  let t0 = Sys.time () in
  List.iter
    (fun line ->
      match Jsont.Parser.wrap (fun () -> Plan.run_stream plan line) with
      | Ok true -> incr valid
      | Ok false -> incr invalid
      | Error e -> Format.printf "lex/parse error: %a@." Jsont.Parser.pp_error e)
    lines;
  let dt = Sys.time () -. t0 in
  Printf.printf "valid=%d invalid=%d  (%d corrupted on purpose)\n" !valid !invalid
    (List.length (List.filter (fun i -> i mod 97 = 0) (List.init 1000 Fun.id)));
  Printf.printf "throughput: %.1f MB/s\n" (float_of_int bytes /. 1e6 /. dt);
  Printf.printf
    "validate.stream.runs=%d validate.stream.spills=%d \
     validate.stream.skipped_bytes=%d\n"
    (counter "validate.stream.runs")
    (counter "validate.stream.spills")
    (counter "validate.stream.skipped_bytes");

  (* even a single huge document needs no proportional memory: the
     payload no formula node constrains is skipped, never built *)
  let huge =
    Value.to_string
      (Value.Obj
         [ ("kind", Value.Str "bulk");
           ("seq", Value.Num 1);
           ("payload", Jworkload.Gen_json.sized (Jworkload.Prng.create 1) 200_000) ])
  in
  Obs.Metrics.reset ();
  let ok = Plan.run_stream plan huge in
  Printf.printf
    "\n200k-value document (%d bytes): valid=%b, %d bytes skipped, %d spills\n"
    (String.length huge) ok
    (counter "validate.stream.skipped_bytes")
    (counter "validate.stream.spills")
