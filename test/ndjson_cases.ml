(* NDJSON inputs whose line numbering every reader of one document per
   line must reproduce — [Par.Batch.lines] (test_par) and the corpus
   index writer (test_index): empty input, blank, whitespace-only and
   leading blank lines, CRLF endings and a lone '\r', unterminated last
   lines, a line longer than one 64 KiB slice, and 30 random inputs
   over a line-breaking alphabet. *)
let lines_cases =
  let rng = Jworkload.Prng.create 7 in
  let random () =
    String.init
      (Jworkload.Prng.int rng 400)
      (fun _ -> Jworkload.Prng.choose rng [ 'a'; 'b'; '\n'; '\n'; ' '; '\r'; '{' ])
  in
  [ ""; "\n"; "\n\n  \n\t\n"; "a\r\nb\n\r\n  c  \n"; "x\ny"; "only";
    "one\n"; String.make 200 'z' ^ "\nshort\n" ^ String.make 70_000 'w';
    "\n\nlead\n\n" ]
  @ List.init 30 (fun _ -> random ())
