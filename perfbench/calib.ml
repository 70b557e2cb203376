(* Machine-speed calibration.

   The target machine is shared: its speed drifts by a third and more,
   in regimes lasting seconds to minutes, and every timing of a run
   moves with it.  A fixed slice of benchmark-local work (standard
   library only, so no change to the repository's code can move it)
   runs on two domains between the timed windows; the run's mean slice
   time against [reference_s] rescales the gated metrics to a reference
   machine speed, so that runs made in different regimes compare.  The
   raw figures are printed beside them. *)

(* Allocation, hashing and memory traffic, like the workloads. *)
let work () =
  let tbl = Hashtbl.create 4096 in
  let acc = ref 0 in
  for i = 0 to 12_000 do
    let k = string_of_int ((i * 7919) land 16383) in
    Hashtbl.replace tbl k i;
    acc := !acc + String.length k
  done;
  !acc + Hashtbl.length tbl

let slices = Report.samples ()

(* One slice on both lanes; its wall time is recorded. *)
let slice () =
  let t0 = Ctx.now () in
  ignore (Sys.opaque_identity (work () + work ()));
  Report.push slices (Ctx.now () -. t0)

(* The mean slice time of the target machine in its faster regime. *)
let reference_s = 0.006

(* How much slower than the reference this run's machine was. *)
let slowdown () =
  let a = Report.to_array slices in
  Report.sum a /. float_of_int (Array.length a) /. reference_s

(* The JSON object's three metrics, rescaled to the reference speed. *)
let emit ~setup_s ~throughput ~p50 =
  if slices.Report.len = 0 then slice ();
  let s = slowdown () in
  Report.metric "machine_slowdown" "ratio" s ~n:slices.Report.len
    ~note:"(calibration slice time / reference; the JSON figures are rescaled by it)";
  Report.emit "setup_s" "s" (setup_s /. s);
  Report.emit "throughput_per_s" "1/s" (throughput *. s);
  Report.emit "latency_p50_ms" "ms" (p50 /. s)
