type reason = Fuel | Depth | Deadline

exception Exhausted of reason

(* Deadlines are armed and checked against CLOCK_MONOTONIC, never the
   wall clock: a long-lived daemon sees NTP steps, and a wall-clock
   deadline would then fire spuriously (step forward) or defer
   indefinitely (step back).  Both the arming read in [create] and the
   checking read in [burn] go through the one [now_mono] function, so
   the two can never mix time sources. *)
let default_clock () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let clock = ref default_clock

let now_mono () = !clock ()

let set_clock_for_tests = function
  | Some f -> clock := f
  | None -> clock := default_clock

type t = {
  mutable fuel : int;  (* remaining units; meaningful only when [fueled] *)
  fueled : bool;
  max_depth : int;
  deadline : float;  (* absolute [now_mono] seconds; [infinity] = none *)
  mutable tick : int;  (* burns since the last clock read *)
}

let default_max_depth = 10_000

let unlimited =
  { fuel = max_int; fueled = false; max_depth = max_int; deadline = infinity;
    tick = 0 }

let depth_limited d = { unlimited with max_depth = d }

let create ?fuel ?(max_depth = default_max_depth) ?timeout_ms () =
  let fueled, fuel =
    match fuel with None -> (false, max_int) | Some f -> (true, f)
  in
  let deadline =
    match timeout_ms with
    | None -> infinity
    | Some ms -> now_mono () +. (float_of_int ms /. 1000.)
  in
  { fuel; fueled; max_depth; deadline; tick = 0 }

let max_depth t = t.max_depth

let limits t =
  if t.deadline < infinity then None
  else Some ((if t.fueled then Some t.fuel else None), t.max_depth)

let check_depth t d = if d > t.max_depth then raise (Exhausted Depth)

let deadline_stride = 512

let burn t cost =
  if t.fueled then begin
    t.fuel <- t.fuel - cost;
    if t.fuel < 0 then raise (Exhausted Fuel)
  end;
  if t.deadline < infinity then begin
    t.tick <- t.tick + 1;
    if t.tick >= deadline_stride then begin
      t.tick <- 0;
      if now_mono () > t.deadline then raise (Exhausted Deadline)
    end
  end

let string_of_reason = function
  | Fuel -> "fuel"
  | Depth -> "depth"
  | Deadline -> "deadline"

let pp_reason fmt r = Format.pp_print_string fmt (string_of_reason r)

let describe = function
  | Fuel -> "resource budget exhausted: node fuel spent"
  | Depth -> "resource budget exhausted: recursion depth limit reached"
  | Deadline -> "resource budget exhausted: wall-clock deadline passed"
