let map ?(jobs = 1) f items =
  Obs.Metrics.add "par.batch.docs" (Array.length items);
  Obs.Metrics.span "par.batch.run" (fun () ->
      let pool = Pool.create jobs in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () -> Pool.map pool f items))

let map_pool pool f items =
  Obs.Metrics.add "par.batch.docs" (Array.length items);
  Obs.Metrics.span "par.batch.run" (fun () -> Pool.map pool f items)

let cell f =
  match Jsont.Parser.wrap f with
  | Ok r -> r
  | Error e -> Format.asprintf "error: %a" Jsont.Parser.pp_error e
  | exception (Failure m | Sys_error m) -> "error: " ^ m
  | exception Obs.Budget.Exhausted r -> "error: " ^ Obs.Budget.describe r

(* ---- streamed input: the window loop and the reader ----------------------- *)

let slice_bytes = 65536

(* [read push] calls [push lineno doc] for each document in input
   order.  Documents go to the pool in windows of about [window] bytes,
   so input memory is one window plus the longest document at any lane
   count; one lane runs each document as it comes. *)
let in_windows ~jobs ~chunk_bytes f emit read =
  if chunk_bytes < 1 then invalid_arg "Par.Batch: chunk_bytes < 1";
  Obs.Metrics.span "par.batch.run" @@ fun () ->
  let pool = Pool.create jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let window = chunk_bytes * 32 * (Pool.lanes pool - 1) in
  let pending = ref [] and pending_bytes = ref 0 in
  let flush () =
    let batch = Array.of_list (List.rev !pending) in
    pending := [];
    pending_bytes := 0;
    Obs.Metrics.add "par.batch.docs" (Array.length batch);
    let results = Pool.map pool (fun (_, doc) -> f doc) batch in
    Array.iteri (fun i r -> emit (fst batch.(i)) r) results
  in
  read (fun lineno doc ->
      if window = 0 then begin
        Obs.Metrics.incr "par.batch.docs";
        emit lineno (f doc)
      end
      else begin
        pending := (lineno, doc) :: !pending;
        pending_bytes := !pending_bytes + String.length doc;
        if !pending_bytes >= window then flush ()
      end);
  if !pending <> [] then flush ()

(* [line lineno s] on every line of [ic], read in [chunk_bytes] slices:
   the reader [lines] and [values] share.  Only '\n' ends a line; lines
   are numbered from 1, and an unterminated last line counts. *)
let each_line ~chunk_bytes ic line =
  let lineno = ref 0 in
  let line s =
    incr lineno;
    line !lineno s
  in
  let chunk = Bytes.create chunk_bytes in
  let carry = Buffer.create 256 in
  (* a line wholly inside one chunk is copied out once; only a line
     straddling chunks goes through [carry] *)
  let rec split n start =
    match Bytes.index_from_opt chunk start '\n' with
    | Some i when i < n ->
      if Buffer.length carry = 0 then
        line (Bytes.sub_string chunk start (i - start))
      else begin
        Buffer.add_subbytes carry chunk start (i - start);
        line (Buffer.contents carry);
        Buffer.clear carry
      end;
      split n (i + 1)
    | _ -> Buffer.add_subbytes carry chunk start (n - start)
  in
  let rec read () =
    let n = In_channel.input ic chunk 0 chunk_bytes in
    if n > 0 then begin
      Obs.Metrics.incr "validate.feed.chunks";
      split n 0;
      read ()
    end
  in
  read ();
  if Buffer.length carry > 0 then line (Buffer.contents carry)

let lines ?(jobs = 1) ~chunk_bytes f emit ic =
  in_windows ~jobs ~chunk_bytes f emit @@ fun push ->
  each_line ~chunk_bytes ic (fun lineno s ->
      if String.trim s <> "" then push lineno s)

(* The elements of a lone array [text] begun on [line]: the bytes
   between its top-level commas, trimmed, each with the line it begins
   on ([[]] has none; an empty element is an empty document). *)
let elements line text push =
  let line = ref line and first = ref (-1) and depth = ref 0 and from = ref 1 in
  let str = ref false and esc = ref false and last = String.length text - 1 in
  for i = 1 to last do
    let ch = text.[i] in
    if !esc then esc := false
    else if !str then begin
      if ch = '\\' then esc := true else if ch = '"' then str := false
    end
    else if (ch = ',' && !depth = 0) || i = last then begin
      let e = String.trim (String.sub text !from (i - !from)) in
      if e <> "" || ch = ',' || !from > 1 then
        push (if !first < 0 then !line else !first) e;
      from := i + 1;
      first := -1
    end
    else begin
      if ch = '\n' then incr line
      else if !first < 0 && not (String.contains " \t\r" ch) then first := !line;
      if ch = '"' then str := true
      else if ch = '{' || ch = '[' then incr depth
      else if ch = '}' || ch = ']' then decr depth
    end
  done

let values ?(jobs = 1) ?(collection = false) ~chunk_bytes f emit ic =
  in_windows ~jobs ~chunk_bytes f emit @@ fun push ->
  (* collection mode holds a first value that is an array back until
     the input shows whether anything follows it *)
  let first = ref collection and lone = ref None in
  let out is_value lineno text =
    if !first && is_value && text.[0] = '[' then lone := Some (lineno, text)
    else begin
      Option.iter (fun (l, t) -> push l t) !lone;
      lone := None;
      push lineno text
    end;
    first := false
  in
  (* values finished on the line they begin on, last first: a bad
     value later on that line drops them *)
  let finished = ref [] in
  let release () =
    List.iter (fun (l, t) -> out true l t) (List.rev !finished);
    finished := []
  in
  (* the value being cut: the lines it has reached (last first), where
     it begins, its open brackets (innermost first, with position); and
     the positions, ascending, of brackets a failed value left open — a
     value that begins at one fails the same way, unscanned *)
  let parts = ref [] and start_line = ref 0 and start = ref 0 in
  let opens = ref [] and doomed = ref [] in
  let rec drop here = function
    | d :: r when compare d here < 0 -> drop here r
    | l -> l
  in
  (* A syntax error in the value being cut.  No JSON token spans a
     newline, so the line it begins on is cut like an NDJSON line: one
     document, whose own parse reports the error; values begun on it
     are dropped, and the lines after it are cut again. *)
  let rec fail () =
    let bad = !start_line and lines = List.rev !parts in
    finished := [];
    (match List.rev_map (fun (l, c, _) -> (l, c)) !opens with
    | _ :: left -> doomed := List.merge compare left !doomed
    | [] -> ());
    opens := [];
    parts := [];
    out false bad (List.hd lines);
    List.iteri (fun k s -> line (bad + 1 + k) s) (List.tl lines)
  and line lineno s =
    let n = String.length s in
    let finish stop =
      let text =
        match !parts with
        | [ _ ] when !start = 0 && stop = n -> s
        | [ _ ] -> String.sub s !start (stop - !start)
        | ps ->
          let w = String.concat "\n" (List.rev ps) in
          String.sub w !start (String.length w - n + stop - !start)
      in
      finished := (!start_line, text) :: !finished;
      parts := [];
      (* a value that spans lines ends the chance of a bad value on its
         first line *)
      if !start_line < lineno then release ()
    in
    let rec between i =
      if i = n then release ()
      else if String.contains " \t\r" s.[i] then between (i + 1)
      else begin
        start_line := lineno;
        start := i;
        parts := [ s ];
        match s.[i] with
        | ('{' | '[') as ch -> (
          match drop (lineno, i) !doomed with
          | d :: rest when d = (lineno, i) ->
            doomed := rest;
            fail ()
          | l ->
            doomed := l;
            opens := [ (lineno, i, ch) ];
            nested (i + 1))
        | '"' -> text (i + 1)
        | '}' | ']' | ',' | ':' -> fail ()
        | _ -> scalar (i + 1)
      end
    and scalar i =
      if i < n && not (String.contains " \t\r{}[],:\"" s.[i]) then scalar (i + 1)
      else (finish i; between i)
    and text i =
      if i >= n then fail ()
      else
        match s.[i] with
        | '\\' -> text (i + 2)
        | '"' when !opens = [] -> finish (i + 1); between (i + 1)
        | '"' -> nested (i + 1)
        | _ -> text (i + 1)
    and nested i =
      if i < n then
        match (s.[i], !opens) with
        | '"', _ -> text (i + 1)
        | (('{' | '[') as ch), o -> opens := (lineno, i, ch) :: o; nested (i + 1)
        | ('}' as ch | (']' as ch)), (_, _, o) :: rest when (o = '{') = (ch = '}') ->
          opens := rest;
          if rest = [] then (finish (i + 1); between (i + 1)) else nested (i + 1)
        | ('}' | ']'), _ -> fail ()
        | _ -> nested (i + 1)
    in
    if !opens = [] then between 0
    else begin
      parts := s :: !parts;
      nested 0
    end
  in
  each_line ~chunk_bytes ic line;
  (* the input ends inside a container *)
  while !opens <> [] do
    fail ()
  done;
  Option.iter (fun (l, t) -> elements l t push) !lone
