(* In-memory spans recorded around the benchmark's own calls into the
   library, for the traced run.

   A span is (name, start, end, parent span, doc/request id, work
   units).  Each domain appends to its own list, so recording never
   races; [all] collects every domain's spans once the workers have
   joined.  While tracing is off, [run] is a plain call. *)

type t = {
  sid : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  id : int;  (* document or request id, -1 when none *)
  work : int;  (* bytes, documents or requests the span covered *)
  start : float;  (* seconds, monotonic *)
  stop : float;
}

type store = { mutable spans : t list; mutable stack : int list }

let on = ref false
let next_sid = Atomic.make 0
let stores : store list ref = ref []
let stores_lock = Mutex.create ()

let store_key =
  Domain.DLS.new_key (fun () ->
      let st = { spans = []; stack = [] } in
      Mutex.lock stores_lock;
      stores := st :: !stores;
      Mutex.unlock stores_lock;
      st)

let now = Obs.Budget.now_mono

(* The innermost open span of the calling domain, to pass as [parent]
   to spans opened on other domains (batch lanes, client domains). *)
let current () =
  if not !on then -1
  else match (Domain.DLS.get store_key).stack with p :: _ -> p | [] -> -1

let run ?parent ?(id = -1) ?(work = 0) name f =
  if not !on then f ()
  else begin
    let st = Domain.DLS.get store_key in
    let parent =
      match parent with
      | Some p -> p
      | None -> ( match st.stack with p :: _ -> p | [] -> -1)
    in
    let sid = Atomic.fetch_and_add next_sid 1 in
    st.stack <- sid :: st.stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        st.stack <- List.tl st.stack;
        st.spans <- { sid; parent; name; id; work; start; stop } :: st.spans)
      f
  end

let all () =
  Mutex.lock stores_lock;
  let l = List.concat_map (fun st -> st.spans) !stores in
  Mutex.unlock stores_lock;
  List.sort (fun a b -> compare a.sid b.sid) l

let dur s = s.stop -. s.start

let named name spans = List.filter (fun s -> s.name = name) spans

(* Total duration and total work of the spans called [name]. *)
let totals name spans =
  List.fold_left
    (fun (d, w) s -> if s.name = name then (d +. dur s, w + s.work) else (d, w))
    (0., 0) spans

(* ns per work unit over the spans called [name]. *)
let ns_per_work name spans =
  let d, w = totals name spans in
  if w = 0 then nan else d *. 1e9 /. float_of_int w

(* Durations (ms) of the spans called [name]. *)
let durations_ms name spans =
  Array.of_list (List.map (fun s -> dur s *. 1e3) (named name spans))

(* Self time: a span's duration minus the part of it its children
   cover (children on parallel lanes may overlap; their union counts
   once). *)
let self_times spans =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace kids s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt kids s.parent)))
    spans;
  List.map
    (fun s ->
      let children =
        Option.value ~default:[] (Hashtbl.find_opt kids s.sid)
        |> List.map (fun c -> (max s.start c.start, min s.stop c.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, upto) (a, b) ->
            let a = max a upto in
            if b > a then (acc +. (b -. a), b) else (acc, upto))
          (0., neg_infinity) children
      in
      (s, dur s -. covered))
    spans

(* Per-name count, total and self time, ordered by total time. *)
let summary spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let n, tot, sf =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (n + 1, tot +. dur s, sf +. self))
    (self_times spans);
  Hashtbl.fold (fun name (n, tot, sf) acc -> (name, n, tot, sf) :: acc) tbl []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

(* One tab-separated line per span: sid, parent, name, id, work, start
   and duration in ns (start relative to the earliest span). *)
let write path spans =
  let t0 = List.fold_left (fun m s -> min m s.start) infinity spans in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc "sid\tparent\tname\tid\twork\tstart_ns\tdur_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%.0f\t%.0f\n" s.sid s.parent
            s.name s.id s.work
            ((s.start -. t0) *. 1e9)
            (dur s *. 1e9))
        spans)
