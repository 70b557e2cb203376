let on = ref false

let set_enabled b = on := b
let enabled () = !on

type timing = {
  mutable count : int;
  mutable total_ns : float;
  mutable min_ns : float;
  mutable max_ns : float;
}

(* One shard of the process-wide registry.  Only the domain holding it
   writes it, so recording takes no lock. *)
type shard = {
  counters : (string, int ref) Hashtbl.t;
  timings : (string, timing) Hashtbl.t;
}

let create_shard () =
  { counters = Hashtbl.create 64; timings = Hashtbl.create 32 }

(* [shards] is every shard ever made, which is what reads sum; [free]
   holds the shards of domains that have exited.  A domain's first
   recording takes a free shard or makes one, and hands it back when
   the domain exits, so the list follows the most domains alive at
   once.  The lock guards the two lists, never a recording. *)
let lock = Mutex.create ()
let shards = ref []
let free = ref []

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s =
        Mutex.protect lock (fun () ->
            match !free with
            | s :: rest ->
              free := rest;
              s
            | [] ->
              let s = create_shard () in
              shards := s :: !shards;
              s)
      in
      Domain.at_exit (fun () ->
          Mutex.protect lock (fun () -> free := s :: !free));
      s)

let all_shards () = Mutex.protect lock (fun () -> !shards)

let add name n =
  if !on then begin
    let counters = (Domain.DLS.get shard_key).counters in
    match Hashtbl.find_opt counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add counters name (ref n)
  end

let incr name = add name 1

let observe_ns name ns =
  if !on then begin
    let timings = (Domain.DLS.get shard_key).timings in
    match Hashtbl.find_opt timings name with
    | Some t ->
      t.count <- t.count + 1;
      t.total_ns <- t.total_ns +. ns;
      if ns < t.min_ns then t.min_ns <- ns;
      if ns > t.max_ns then t.max_ns <- ns
    | None ->
      Hashtbl.add timings name
        { count = 1; total_ns = ns; min_ns = ns; max_ns = ns }
  end

let span name f =
  if not !on then f ()
  else begin
    (* monotonic, like Budget deadlines: span durations in a long-lived
       process must not absorb wall-clock steps *)
    let t0 = Budget.now_mono () in
    let record () = observe_ns name ((Budget.now_mono () -. t0) *. 1e9) in
    match f () with
    | v ->
      record ();
      v
    | exception e ->
      record ();
      raise e
  end

(* Fold [src] into [into]: counters are summed; timings combine sample
   counts, totals and min/max. *)
let merge_into ~into src =
  Hashtbl.iter
    (fun name r ->
      match Hashtbl.find_opt into.counters name with
      | Some d -> d := !d + !r
      | None -> Hashtbl.add into.counters name (ref !r))
    src.counters;
  Hashtbl.iter
    (fun name t ->
      match Hashtbl.find_opt into.timings name with
      | Some d ->
        d.count <- d.count + t.count;
        d.total_ns <- d.total_ns +. t.total_ns;
        if t.min_ns < d.min_ns then d.min_ns <- t.min_ns;
        if t.max_ns > d.max_ns then d.max_ns <- t.max_ns
      | None ->
        Hashtbl.add into.timings name
          { count = t.count; total_ns = t.total_ns; min_ns = t.min_ns;
            max_ns = t.max_ns })
    src.timings

let totals () =
  let into = create_shard () in
  List.iter (merge_into ~into) (all_shards ());
  into

let counter_value name =
  List.fold_left
    (fun acc s ->
      match Hashtbl.find_opt s.counters name with
      | Some r -> acc + !r
      | None -> acc)
    0 (all_shards ())

let reset () =
  List.iter
    (fun s ->
      Hashtbl.reset s.counters;
      Hashtbl.reset s.timings)
    (all_shards ())

let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let dump_text () =
  let { counters; timings } = totals () in
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, r) -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name !r))
    (sorted counters);
  List.iter
    (fun (name, t) ->
      Buffer.add_string buf
        (Printf.sprintf "%-40s count=%d total=%.3fms mean=%.0fns min=%.0fns max=%.0fns\n"
           name t.count (t.total_ns /. 1e6)
           (t.total_ns /. float_of_int (max 1 t.count))
           t.min_ns t.max_ns))
    (sorted timings);
  Buffer.contents buf

(* Metric names are plain ASCII identifiers, but escape defensively so
   the dump is always valid JSON. *)
let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let dump_json () =
  let { counters; timings } = totals () in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i (name, r) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%s:%d" (json_string name) !r))
    (sorted counters);
  Buffer.add_string buf "},\"timings\":{";
  List.iteri
    (fun i (name, t) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "%s:{\"count\":%d,\"total_ms\":%.3f,\"mean_ns\":%.0f,\"min_ns\":%.0f,\"max_ns\":%.0f}"
           (json_string name) t.count (t.total_ns /. 1e6)
           (t.total_ns /. float_of_int (max 1 t.count))
           t.min_ns t.max_ns))
    (sorted timings);
  Buffer.add_string buf "}}";
  Buffer.contents buf
