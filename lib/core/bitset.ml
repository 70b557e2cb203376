type t = { words : int array; n : int }

let bits_per_word = Sys.int_size (* 63 on 64-bit *)

let words_for n = (n + bits_per_word - 1) / bits_per_word

let create n = { words = Array.make (words_for n) 0; n }

let full n =
  let t = { words = Array.make (words_for n) (-1); n } in
  (* clear the bits beyond n in the last word *)
  let rem = n mod bits_per_word in
  if rem > 0 && Array.length t.words > 0 then
    t.words.(Array.length t.words - 1) <- (1 lsl rem) - 1;
  t

let capacity t = t.n
let mem t i = t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let copy t = { t with words = Array.copy t.words }

let union_into s ~into =
  let changed = ref false in
  for w = 0 to Array.length s.words - 1 do
    let v = into.words.(w) lor s.words.(w) in
    if v <> into.words.(w) then begin
      changed := true;
      into.words.(w) <- v
    end
  done;
  !changed

let inter_into s ~into =
  let changed = ref false in
  for w = 0 to Array.length s.words - 1 do
    let v = into.words.(w) land s.words.(w) in
    if v <> into.words.(w) then begin
      changed := true;
      into.words.(w) <- v
    end
  done;
  !changed

let map2 f a b =
  { a with words = Array.init (Array.length a.words) (fun i -> f a.words.(i) b.words.(i)) }

let inter a b = map2 ( land ) a b
let union a b = map2 ( lor ) a b
let diff a b = map2 (fun x y -> x land lnot y) a b

let complement a =
  let f = full a.n in
  map2 (fun x y -> y land lnot x) a f

let is_empty t = Array.for_all (fun w -> w = 0) t.words
let equal a b = a.n = b.n && a.words = b.words

(* set bits per byte value *)
let byte_pop =
  String.init 256 (fun i ->
      let rec go acc i = if i = 0 then acc else go (acc + (i land 1)) (i lsr 1) in
      Char.chr (go 0 i))

let pop w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    c := !c + Char.code byte_pop.[!w land 0xff];
    w := !w lsr 8
  done;
  !c

let cardinal t = Array.fold_left (fun acc w -> acc + pop w) 0 t.words

(* The position of a one-bit word [b]: [debruijn] holds every 6-bit
   pattern once (a de Bruijn sequence, leading zeros first), so the top
   six bits of [b * debruijn] — its bits shifted up by [b]'s position,
   modulo 2^63 — differ for each of the 63 positions. *)
let debruijn = 0x218a392cd3d5dbf

let bit_pos =
  let t = Array.make 64 0 in
  for k = 0 to bits_per_word - 1 do
    t.(((1 lsl k) * debruijn) lsr 57) <- k
  done;
  t

(* lowest set bit first: ascending, one step per member; a full word
   (most of a complement's) needs no tests *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let base = w * bits_per_word in
    let word = t.words.(w) in
    if word = -1 then
      for b = 0 to bits_per_word - 1 do
        f (base + b)
      done
    else begin
      let word = ref word in
      while !word <> 0 do
        let b = !word land (- !word) in
        f (base + bit_pos.((b * debruijn) lsr 57));
        word := !word lxor b
      done
    end
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n l =
  let t = create n in
  List.iter (add t) l;
  t

let pp fmt t =
  Format.fprintf fmt "{%s}" (String.concat "," (List.map string_of_int (elements t)))
