(* What every workload receives: the seed, the measuring time, the
   input scale, the scratch directory, and the deliberate answer
   corruption the self-test uses to prove the checks fire. *)

type size = Full | Tiny

type t = {
  seed : int;
  seconds : float;  (* time one timed phase may measure *)
  size : size;
  corrupt : bool;  (* flip one expected answer: failed_frac must rise *)
  workdir : string;  (* scratch files: corpora, indexes, sockets *)
}

let jobs = 2
(* Every workload shards at [Par] jobs 2 and drives at most two client
   domains: the benchmark machine class has two cores, and
   oversubscribing measures the scheduler instead of the code. *)

(* The run's [jobs]-lane domain pool, created on first use: sharded
   passes reuse its domains instead of spawning a domain per pass. *)
let pool =
  let p = lazy (Par.Pool.create jobs) in
  fun () -> Lazy.force p

(* Between timed windows, outside the timing: a full major collection
   every fourth window.  With two domains allocating, the major GC of
   OCaml 5.1 falls behind and the heap of the sharded workloads grows by
   tens of MB per window until the machine runs out; this bounds it. *)
let collect k = if k mod 4 = 3 then Gc.full_major ()

let now = Obs.Budget.now_mono

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let path ctx name = Filename.concat ctx.workdir name

(* The set-up of a workload and the durations of its repetitions.  The
   machine's speed drifts over seconds, so a run sets up several times
   and reports the median: before the timed phase, and — where set-up is
   cheap — again between its windows, so the samples span the run. *)
type 'a setup = { run : unit -> 'a; times : Report.samples }

let setup run = { run; times = Report.samples () }

(* One timed repetition. *)
let set_up s =
  let r, dt = timed s.run in
  Report.push s.times dt;
  r

(* [reps] repetitions, each after a full major collection so every one
   meets the same heap, and more until [wall] seconds have passed;
   [cleanup] runs after every repetition but the last.  Neither is
   timed.  The last result. *)
let set_up_before ?(cleanup = ignore) ~reps ~wall s =
  let t0 = now () in
  let rec go k =
    Gc.full_major ();
    let r = set_up s in
    if k + 1 < reps || now () -. t0 < wall then begin
      cleanup r;
      go (k + 1)
    end
    else r
  in
  go 0

(* The reported [setup_s] and its sample count. *)
let setup_s s =
  let a = Report.to_array s.times in
  (Report.median a, Array.length a)

(* Call [f 0], [f 1], ... until [seconds] have passed (at least once). *)
let for_seconds seconds f =
  let deadline = now () +. seconds in
  let rec go k =
    f k;
    if now () < deadline then go (k + 1)
  in
  go 0

(* The CLI's cell for one document: [valid], [INVALID] or [error: …]. *)
let cell_of_result = function
  | Ok true -> "valid"
  | Ok false -> "INVALID"
  | Error e -> "error: " ^ Format.asprintf "%a" Jsont.Parser.pp_error e

let stream_cell plan text =
  match
    Jsont.Parser.wrap (fun () ->
        Jschema.Validate.Plan.run_stream ~budget:(Obs.Budget.create ()) plan
          text)
  with
  | r -> cell_of_result r
  | exception Obs.Budget.Exhausted r -> "error: " ^ Obs.Budget.describe r

let flip_cell = function "valid" -> "INVALID" | _ -> "valid"

(* [s] with the first occurrence of [sub] replaced by [by]. *)
let replace_first s ~sub ~by =
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then invalid_arg ("replace_first: no " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()
