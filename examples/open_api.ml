(* Documenting APIs (§6): the paper's third future-work area, end to
   end — infer a schema from observed API responses, validate new
   traffic against it, check a proposed evolution for breaking changes,
   and generate fresh example documents from the schema.

   Run with: dune exec examples/open_api.exe *)

open Jlogic
module Value = Jsont.Value

let observed_responses =
  List.map Jsont.Parser.parse_exn
    [ {|{"status":"ok","user":{"id":17,"name":"Sue"},"latency_ms":12}|};
      {|{"status":"ok","user":{"id":42,"name":"John"},"latency_ms":48}|};
      {|{"status":"error","code":503,"latency_ms":3}|};
      {|{"status":"ok","user":{"id":7,"name":"Ana"},"latency_ms":30}|};
      {|{"status":"error","code":404,"latency_ms":1}|} ]

let () =
  (* 1. Learn a schema from the traffic (the §5.2 "learn JSON Schemas
        from examples" motivation). *)
  let inferred = Jschema.Infer.infer_document observed_responses in
  print_endline "schema inferred from 5 observed responses:";
  print_endline (Jsont.Printer.pretty (Jschema.Schema.to_value inferred));

  (* 2. Validate fresh traffic. *)
  let fresh =
    List.map Jsont.Parser.parse_exn
      [ {|{"status":"ok","user":{"id":3,"name":"Li"},"latency_ms":9}|};
        {|{"status":"melted","latency_ms":9}|};
        {|{"status":"ok","latency_ms":"fast"}|} ]
  in
  print_endline "\nvalidating fresh traffic:";
  List.iter
    (fun d ->
      Printf.printf "  %-60s %s\n" (Value.to_string d)
        (if Jschema.Validate.validates inferred d then "valid" else "INVALID"))
    fresh;

  (* 3. The API evolves: status becomes an enum, latency gets a bound.
        Is the documented contract still honoured by old producers? *)
  let v2 =
    Jschema.Parse.of_string_exn
      {|{
        "type": "object",
        "required": ["status", "latency_ms"],
        "properties": {
          "status": { "enum": ["ok", "error"] },
          "latency_ms": { "type": "number", "maximum": 1000 },
          "user": { "type": "object", "required": ["id", "name"] },
          "code": { "type": "number" }
        }
      }|}
  in
  let base doc = (Jschema.To_jsl.document doc).Jsl_rec.base in
  print_endline "\ninferred -> v2 compatibility:";
  (match Contain.schema_compatible ~old_:(base inferred) ~new_:(base v2) () with
  | Contain.Yes -> print_endline "  compatible — v2 accepts everything the inferred contract allows"
  | Contain.No w ->
    print_endline "  BREAKING — allowed by the inferred contract, rejected by v2:";
    Printf.printf "  %s\n" (Value.to_string w)
  | Contain.Inconclusive m -> Printf.printf "  inconclusive: %s\n" m);

  (* 4. Generate documentation examples straight from the schema. *)
  print_endline "\ngenerated examples for the v2 docs:";
  List.iter
    (fun v -> Printf.printf "  %s\n" (Value.to_string v))
    (fst (Jsl_sat.models ~limit:3 (base v2)));

  (* 5. And the round trip the paper emphasises: the schema is a JSON
        document, so it can itself be validated/queried. *)
  let as_json = Jschema.Schema.to_value v2 in
  Printf.printf "\nthe v2 schema is itself a %d-value JSON document; "
    (Value.size as_json);
  Printf.printf "its property names: %s\n"
    (String.concat ", "
       (List.map Value.to_string (Jquery.Jsonpath.select_exn as_json "$.properties.*.type")))
