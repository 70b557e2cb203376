(* 256 bits as four 64-bit words.  Word [i] holds bytes [64i .. 64i+63]. *)
type t = { w0 : int64; w1 : int64; w2 : int64; w3 : int64 }

let empty = { w0 = 0L; w1 = 0L; w2 = 0L; w3 = 0L }
let full = { w0 = -1L; w1 = -1L; w2 = -1L; w3 = -1L }

let bit c = Int64.shift_left 1L (Char.code c land 63)

let singleton c =
  let b = bit c in
  match Char.code c lsr 6 with
  | 0 -> { empty with w0 = b }
  | 1 -> { empty with w1 = b }
  | 2 -> { empty with w2 = b }
  | _ -> { empty with w3 = b }

let union a b =
  { w0 = Int64.logor a.w0 b.w0;
    w1 = Int64.logor a.w1 b.w1;
    w2 = Int64.logor a.w2 b.w2;
    w3 = Int64.logor a.w3 b.w3 }

let inter a b =
  { w0 = Int64.logand a.w0 b.w0;
    w1 = Int64.logand a.w1 b.w1;
    w2 = Int64.logand a.w2 b.w2;
    w3 = Int64.logand a.w3 b.w3 }

let complement a =
  { w0 = Int64.lognot a.w0;
    w1 = Int64.lognot a.w1;
    w2 = Int64.lognot a.w2;
    w3 = Int64.lognot a.w3 }

let diff a b = inter a (complement b)

let range lo hi =
  let rec go acc c =
    if c > Char.code hi then acc
    else go (union acc (singleton (Char.chr c))) (c + 1)
  in
  if lo > hi then empty else go empty (Char.code lo)

let of_string s = String.fold_left (fun acc c -> union acc (singleton c)) empty s

let mem c s =
  let b = bit c in
  let w =
    match Char.code c lsr 6 with
    | 0 -> s.w0
    | 1 -> s.w1
    | 2 -> s.w2
    | _ -> s.w3
  in
  Int64.logand w b <> 0L

(* Bits [base .. base+63] of [inside] from one word, read through two
   native 32-bit halves so that nothing is boxed. *)
let fill_word w base inside =
  let lo = Int64.to_int (Int64.logand w 0xFFFF_FFFFL)
  and hi = Int64.to_int (Int64.shift_right_logical w 32) in
  for i = 0 to 31 do
    inside.(base + i) <- (lo lsr i) land 1 = 1;
    inside.(base + 32 + i) <- (hi lsr i) land 1 = 1
  done

let fill_mem s inside =
  if Array.length inside <> 256 then invalid_arg "Charset.fill_mem";
  fill_word s.w0 0 inside;
  fill_word s.w1 64 inside;
  fill_word s.w2 128 inside;
  fill_word s.w3 192 inside

let is_empty s = s.w0 = 0L && s.w1 = 0L && s.w2 = 0L && s.w3 = 0L
let equal a b = a.w0 = b.w0 && a.w1 = b.w1 && a.w2 = b.w2 && a.w3 = b.w3

let compare a b =
  match Int64.compare a.w0 b.w0 with
  | 0 -> (
    match Int64.compare a.w1 b.w1 with
    | 0 -> (
      match Int64.compare a.w2 b.w2 with
      | 0 -> Int64.compare a.w3 b.w3
      | c -> c)
    | c -> c)
  | c -> c

let hash s = Hashtbl.hash (s.w0, s.w1, s.w2, s.w3)

let popcount64 w =
  let rec go acc w = if w = 0L then acc else go (acc + 1) Int64.(logand w (sub w 1L)) in
  go 0 w

let cardinal s = popcount64 s.w0 + popcount64 s.w1 + popcount64 s.w2 + popcount64 s.w3

let iter f s =
  for c = 0 to 255 do
    if mem (Char.chr c) s then f (Char.chr c)
  done

let fold f s init =
  let acc = ref init in
  iter (fun c -> acc := f c !acc) s;
  !acc

let to_list s = List.rev (fold (fun c acc -> c :: acc) s [])

let choose s =
  let rec go c =
    if c > 255 then None
    else if mem (Char.chr c) s then Some (Char.chr c)
    else go (c + 1)
  in
  go 0

let pp fmt s =
  if is_empty s then Format.pp_print_string fmt "[]"
  else if equal s full then Format.pp_print_string fmt "."
  else begin
    Format.pp_print_char fmt '[';
    let cs = to_list s in
    (* condense consecutive runs into ranges *)
    let rec runs = function
      | [] -> []
      | c :: rest ->
        let rec extend last = function
          | c' :: rest when Char.code c' = Char.code last + 1 -> extend c' rest
          | rest -> (last, rest)
        in
        let last, rest = extend c rest in
        (c, last) :: runs rest
    in
    List.iter
      (fun (lo, hi) ->
        let prn c =
          if c >= ' ' && c <= '~' && c <> ']' && c <> '\\' && c <> '-' then
            Format.pp_print_char fmt c
          else Format.fprintf fmt "\\x%02x" (Char.code c)
        in
        if lo = hi then prn lo
        else begin
          prn lo;
          Format.pp_print_char fmt '-';
          prn hi
        end)
      (runs cs);
    Format.pp_print_char fmt ']'
  end
