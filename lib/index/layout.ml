(* On-disk layout of the corpus index: format constants, the header
   field map, edge-label encoding and the corruption checksum.  The
   writer and reader agree on the format exclusively through this
   module, and the fault-injection tests use the field offsets to
   corrupt files surgically. *)

let magic = "JLIXIDX4"
let magic_prefix = "JLIXIDX"
let version = 4
let default_pos_cap = 1024
let default_value_cap = 65536
let doc_entry_bytes = 32
let posting_bytes = 4
let max_nodes = 1 lsl 32

(* header flag bits *)
let flag_no_values = 1

module Field = struct
  let version = 8
  let pos_cap = 12
  let file_size = 16
  let ndocs = 24
  let nnodes = 32
  let nkeys = 40
  let key_entries = 48
  let pos_entries = 56
  let corpus_len = 64
  let doc_table = 72
  let parents = 80
  let labels = 88
  let strtab_idx = 96
  let strtab_blob = 104
  let strtab_blob_len = 112
  let key_pidx = 120
  let key_post = 128
  let pos_pidx = 136
  let pos_post = 144
  let corpus_path = 152
  (* v2: the scalar-value table and (label, value) postings *)
  let flags = 160
  let value_cap = 164
  let nvals = 168
  let npairs = 176
  let val_entries = 184
  let val_dropped = 192
  let valtab_idx = 200
  let valtab_blob = 208
  let valtab_blob_len = 216
  let pair_table = 224
  let pair_pidx = 232
  let val_post = 240
  (* v4: the subtree-size column and the corpus checksum *)
  let sizes = 248
  let corpus_checksum = 256
  let body_checksum = 264
  let header_checksum = 272
end

let header_bytes = 280

(* Scalar values are keyed in the sorted value table by a canonical
   encoding: one kind byte ('s' string, 'n' natural) followed by the
   payload.  Numbers use the canonical decimal rendering of the model
   natural, so every source notation that parses to the same natural
   ([1], [1.0], [1e0] under lenient narrowing) shares one value id. *)
let encode_str s = "s" ^ s
let encode_num n = "n" ^ string_of_int n

(* Edge labels: one i32 per node.  Key edges carry the global key id,
   position edges the position, the root a sentinel.  The low bit
   distinguishes the two relations (O vs A of §3.1).  Positions stop
   below 2^29, so bit 30 of a position word is free: it flags the last
   element of its array, which is what negative indices resolve
   against. *)
let label_root = -1
let label_key k = k lsl 1
let label_pos p = (p lsl 1) lor 1
let max_pos_label = (1 lsl 29) - 1
let label_last = 1 lsl 30

(* FNV-1a folded over 32-bit little-endian words, kept inside OCaml's
   native positive-int range.  Sections are 8-byte padded so the word
   stream never straddles the end. *)
let checksum_init = 0x811c9dc5

let fold_word h w = (h lxor w) * 0x01000193 land max_int

let checksum_bytes h b off len =
  let h = ref h in
  let i = ref off in
  let stop = off + len in
  while !i < stop do
    h := fold_word !h (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF);
    i := !i + 4
  done;
  !h

(* any length: the last word is padded with zero bytes *)
let checksum_text h s =
  let whole = String.length s land lnot 3 in
  let h = checksum_bytes h (Bytes.unsafe_of_string s) 0 whole in
  if whole = String.length s then h
  else begin
    let tail = Bytes.make 4 '\000' in
    Bytes.blit_string s whole tail 0 (String.length s - whole);
    checksum_bytes h tail 0 4
  end

let checksum_file path =
  In_channel.with_open_bin path (fun ic ->
      let buf = Bytes.create 65536 in
      let rec fill k =
        if k = Bytes.length buf then k
        else
          match In_channel.input ic buf k (Bytes.length buf - k) with
          | 0 -> k
          | m -> fill (k + m)
      in
      (* every chunk but the last is whole words *)
      let rec go h =
        let k = fill 0 in
        if k = Bytes.length buf then go (checksum_bytes h buf 0 k)
        else checksum_text h (Bytes.sub_string buf 0 k)
      in
      go checksum_init)

let set_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let set_i32 = set_u32
let set_u64 b off v = Bytes.set_int64_le b off (Int64.of_int v)
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xFFFFFFFF
let get_i32 b off = Int32.to_int (Bytes.get_int32_le b off)

let get_u64 b off =
  let v = Bytes.get_int64_le b off in
  if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
    (* out of int range: clamp to a value validation is sure to reject *)
    max_int
  else Int64.to_int v

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* One native-endian load per word, byte-swapped on big-endian hosts;
   the primitives keep the bigarray bounds check. *)
external ba_get32 : buf -> int -> int32 = "%caml_bigstring_get32"
external ba_get64 : buf -> int -> int64 = "%caml_bigstring_get64"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let get_i32_ba b off =
  let v = ba_get32 b off in
  Int32.to_int (if Sys.big_endian then bswap32 v else v)

let get_u32_ba b off = get_i32_ba b off land 0xFFFFFFFF

let get_u64_ba b off =
  let v = ba_get64 b off in
  let v = if Sys.big_endian then bswap64 v else v in
  (* values above OCaml's native positive range clamp to max_int, which
     every count/offset validation is sure to reject *)
  if Int64.to_int (Int64.shift_right_logical v 62) <> 0 then max_int
  else Int64.to_int v

let string_ba b off len = String.init len (fun i -> Bigarray.Array1.get b (off + i))

let checksum_ba h b off len =
  let h = ref h in
  let i = ref off in
  let stop = off + len in
  while !i < stop do
    h := fold_word !h (get_u32_ba b !i);
    i := !i + 4
  done;
  !h

let pad8 n = (n + 7) land lnot 7
