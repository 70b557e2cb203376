(* Switches and reporting for the traced run: spans plus the library's
   own [Obs.Metrics] counters, on together. *)

let enable b =
  Span.on := b;
  Obs.Metrics.set_enabled b

(* A per-layer metric: printed, and a key of the final JSON object. *)
let layer ?(n = 1) name unit_ v =
  Report.metric ~n name unit_ v;
  Report.emit name unit_ v

(* How much slower the primary throughput runs traced than untraced. *)
let overhead workload ~untraced ~traced =
  layer
    ("obs.trace_overhead_frac." ^ workload)
    "ratio"
    ((untraced -. traced) /. untraced)
