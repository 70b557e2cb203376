module Tree = Jsont.Tree

(* ---- normalization ------------------------------------------------------ *)

let norm_idx ~len i =
  let p = if i < 0 then len + i else i in
  if p < 0 || p >= len then None else Some p

let norm_range ~len i j =
  if len = 0 then None
  else begin
    let lo = max 0 (if i < 0 then len + i else i) in
    let hi =
      match j with
      | None -> len - 1
      | Some j -> min (len - 1) (if j < 0 then len + j else j)
    in
    if lo > hi then None else Some (lo, hi)
  end

let range_matches ~len ~pos i j =
  match norm_range ~len i j with
  | Some (lo, hi) -> pos >= lo && pos <= hi
  | None -> false

(* ---- forward direction (succ) ------------------------------------------ *)

let key_succ t n w = Tree.lookup t n w

let idx_succ t n i =
  let kids = Tree.arr_children t n in
  match norm_idx ~len:(Array.length kids) i with
  | Some p -> Some kids.(p)
  | None -> None

let range_succs t n i j =
  let kids = Tree.arr_children t n in
  match norm_range ~len:(Array.length kids) i j with
  | None -> []
  | Some (lo, hi) -> List.init (hi - lo + 1) (fun k -> kids.(lo + k))

let range_exists t n i j pred =
  let kids = Tree.arr_children t n in
  match norm_range ~len:(Array.length kids) i j with
  | None -> false
  | Some (lo, hi) ->
    let rec go k = k <= hi && (pred kids.(k) || go (k + 1)) in
    go lo

let keys_succs t n l =
  List.filter_map
    (fun (k, c) -> if Rexp.Lang.matches l k then Some c else None)
    (Tree.obj_children t n)

let keys_exists t n l pred =
  List.exists
    (fun (k, c) -> Rexp.Lang.matches l k && pred c)
    (Tree.obj_children t n)

(* ---- backward direction (pre) ------------------------------------------ *)

(* lo <= hi after normalization, solved for len (see [norm_range]) *)
let arity_window i j =
  match j with
  | None -> Some ((if i >= 0 then i + 1 else 1), None)
  | Some j when j < 0 ->
    if i >= 0 then Some (i - j, None) else if i <= j then Some (-j, None)
    else None
  | Some j when i >= 0 -> if j >= i then Some (i + 1, None) else None
  | Some j -> Some (1, Some (j - i))
