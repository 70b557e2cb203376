(* One linear-probing table for the keys of every open object.  Objects
   nest, so their members form a stack: an object inserts its keys
   under its [mark] and deletes them newest first when it closes.
   Deleting in reverse insertion order restores the table exactly to
   its state before the first of them: every entry still present was
   inserted earlier, while the emptied slots were empty, so none of
   their probe sequences runs through an emptied slot.  No tombstones,
   no per-object table. *)
type t = {
  mutable marks : int array;  (* the owning object's mark; -1 = empty slot *)
  mutable hashes : int array;
  mutable keys : string array;
  mutable log : int array;  (* occupied slots, in insertion order *)
  mutable top : int;  (* entries in the table *)
}

let create () =
  { marks = Array.make 32 (-1);
    hashes = Array.make 32 0;
    keys = Array.make 32 "";
    log = Array.make 16 0;
    top = 0 }

let mark t = t.top

(* The slot holding [key] under [mark], or the empty slot ending its
   probe sequence. *)
let rec probe t mark h key i =
  let f = Array.unsafe_get t.marks i in
  if f < 0
     || (f = mark && Array.unsafe_get t.hashes i = h
        && String.equal (Array.unsafe_get t.keys i) key)
  then i
  else probe t mark h key ((i + 1) land (Array.length t.marks - 1))

let fill t i mark h key =
  t.marks.(i) <- mark;
  t.hashes.(i) <- h;
  t.keys.(i) <- key;
  t.log.(t.top) <- i;
  t.top <- t.top + 1

let slot t mark h key = probe t mark h key (h land (Array.length t.marks - 1))

(* Double the table at half load, reinserting in insertion order so the
   reverse-order deletions stay exact. *)
let grow t =
  let { marks; hashes; keys; log; top } = t in
  let cap = 2 * Array.length marks in
  t.marks <- Array.make cap (-1);
  t.hashes <- Array.make cap 0;
  t.keys <- Array.make cap "";
  t.log <- Array.make (cap / 2) 0;
  t.top <- 0;
  for j = 0 to top - 1 do
    let i = log.(j) in
    fill t (slot t marks.(i) hashes.(i) keys.(i)) marks.(i) hashes.(i) keys.(i)
  done

let mem t mark h key = t.marks.(slot t mark h key) >= 0

let add t mark h key =
  if t.top = Array.length t.log then grow t;
  let i = slot t mark h key in
  t.marks.(i) < 0
  && begin
       fill t i mark h key;
       true
     end

let release t mark =
  while t.top > mark do
    t.top <- t.top - 1;
    t.marks.(t.log.(t.top)) <- -1
  done
