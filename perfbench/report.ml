(* Sample statistics, correctness accounting and the run's output:
   human-readable lines while the run goes, one JSON object as the last
   line of standard output. *)

(* ---- samples ---------------------------------------------------------- *)

(* A growable float array, one per measured series. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 256 0.; len = 0 }

let push s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* Linear interpolation between closest ranks, as Python's
   [statistics.quantiles(method="inclusive")]. *)
let quantile a q =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5

(* The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
   it (p50 when even that has fewer). *)
let tail a =
  let n = float_of_int (Array.length a) in
  let p =
    List.find_opt
      (fun p -> n *. (1. -. (float_of_int p /. 100.)) >= 10.)
      [ 99; 95; 90; 75 ]
    |> Option.value ~default:50
  in
  (p, quantile a (float_of_int p /. 100.))

let sum a = Array.fold_left ( +. ) 0. a

(* Work done and time taken per timing window of a phase. *)
type rate = { work : samples; time : samples }

let rate () = { work = samples (); time = samples () }

let window r ~work ~time =
  push r.work (float_of_int work);
  push r.time time

(* A phase's throughput: all its work over all its time. *)
let per_s r = sum (to_array r.work) /. sum (to_array r.time)

(* ---- correctness ------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

(* Count [n] checked operations of which [bad] gave a wrong answer. *)
let checked ?(bad = 0) n =
  attempted := !attempted + n;
  failed := !failed + bad

let check ok = checked 1 ~bad:(if ok then 0 else 1)

(* ---- output ----------------------------------------------------------- *)

let line fmt = Printf.ksprintf (fun s -> print_string s; print_char '\n'; flush stdout) fmt

(* One named metric, printed as
   [metric <name> <value> <unit> n=<samples>  <note>]. *)
let metric ?(n = 1) ?(note = "") name unit_ value =
  line "metric %-36s %16.6f %-10s n=%d%s" name value unit_ n
    (if note = "" then "" else "  " ^ note)

(* A timing's tail under the ten-samples rule; the printed name carries
   the percentile actually reported ([query_p99_ms], [query_p95_ms] …). *)
let tail_metric ~prefix ~unit_ a =
  let p, v = tail a in
  let note =
    if p = 99 then ""
    else
      Printf.sprintf "(p99 needs >= 1000 samples for ten beyond it; have %d)"
        (Array.length a)
  in
  metric ~n:(Array.length a) ~note (Printf.sprintf "%s_p%d_ms" prefix p) unit_ v

let rate_metric name unit_ r =
  metric name unit_ (per_s r) ~n:r.work.len
    ~note:(Printf.sprintf "(%.0f units over %d windows)" (sum (to_array r.work)) r.work.len)

(* The metrics of the final JSON object, in insertion order. *)
let json_metrics : (string * string * float) list ref = ref []

let emit name unit_ value =
  json_metrics := !json_metrics @ [ (name, unit_, value) ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let final_json () =
  let ms =
    List.map
      (fun (name, unit_, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit_)
      !json_metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0 && !attempted > 0)
    (max 1 !attempted) !failed (String.concat ", " ms)
