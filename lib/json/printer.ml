let compact = Value.to_string

let pretty v =
  let buf = Buffer.create 256 in
  let pad depth = Buffer.add_string buf (String.make (depth * 2) ' ') in
  let string s = Value.escape_to_buffer buf s in
  let rec go depth = function
    | (Value.Num _ | Value.Str _) as v -> Value.write_compact buf v
    | Value.Arr [] -> Buffer.add_string buf "[]"
    | Value.Obj [] -> Buffer.add_string buf "{}"
    | Value.Arr vs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          go (depth + 1) v)
        vs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf ']'
    | Value.Obj kvs ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (depth + 1);
          string k;
          Buffer.add_string buf ": ";
          go (depth + 1) v)
        kvs;
      Buffer.add_char buf '\n';
      pad depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf
