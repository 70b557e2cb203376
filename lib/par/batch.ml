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

(* Lines go to the pool in windows of about [window] bytes (one line
   when [window] is 0), so input memory is one window plus the longest
   line at any lane count. *)
let lines ?(jobs = 1) ~chunk_bytes f emit ic =
  if chunk_bytes < 1 then invalid_arg "Par.Batch.lines: chunk_bytes < 1";
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
    let results = Pool.map pool (fun (_, line) -> f line) batch in
    Array.iteri (fun i r -> emit (fst batch.(i)) r) results
  in
  let lineno = ref 0 in
  let line s =
    incr lineno;
    if String.trim s <> "" then begin
      pending := (!lineno, s) :: !pending;
      pending_bytes := !pending_bytes + String.length s;
      if !pending_bytes >= window then flush ()
    end
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
  if Buffer.length carry > 0 then line (Buffer.contents carry);
  if !pending <> [] then flush ()
