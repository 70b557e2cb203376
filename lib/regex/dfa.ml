type t = {
  class_of : int array;  (* byte -> alphabet class, length 256 *)
  class_count : int;
  reps : char array;  (* one representative byte per class *)
  trans : int array array;  (* state -> class -> state; complete *)
  accept : bool array;
  start : int;
}

(* ---- alphabet partition ------------------------------------------------ *)

(* Bytes in witness-friendly order: representatives of alphabet classes
   are the first byte encountered, so scanning letters first makes
   extracted witnesses printable where the language allows it. *)
let byte_order =
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  let preferred =
    range (Char.code 'a') (Char.code 'z')
    @ range (Char.code 'A') (Char.code 'Z')
    @ range (Char.code '0') (Char.code '9')
    @ List.map Char.code [ '_'; '-'; '.'; ' ' ]
  in
  Array.of_list
    (preferred @ List.filter (fun b -> not (List.mem b preferred)) (range 0 255))

(* A partition of the bytes under refinement.  Labels are arbitrary but
   stay below 256: a split gives a fresh label only to the part of a
   class that a charset cuts off, so every label names a nonempty
   class. *)
type refinement = {
  label : int array;  (* byte -> class label *)
  size : int array;  (* label -> bytes in the class *)
  hits : int array;  (* label -> bytes of the class inside the charset *)
  moved : int array;  (* label -> label of its inside part, or -1 *)
  mutable labels : int;
}

let refinement label labels =
  let size = Array.make 256 0 in
  for b = 0 to 255 do
    size.(label.(b)) <- size.(label.(b)) + 1
  done;
  { label; size; hits = Array.make 256 0; moved = Array.make 256 (-1); labels }

(* Split every class that [inside] cuts in two. *)
let split r inside =
  for b = 0 to 255 do
    if inside.(b) then
      let l = r.label.(b) in
      r.hits.(l) <- r.hits.(l) + 1
  done;
  let labels = r.labels in
  for l = 0 to labels - 1 do
    let h = r.hits.(l) in
    if h > 0 && h < r.size.(l) then begin
      r.moved.(l) <- r.labels;
      r.size.(r.labels) <- h;
      r.size.(l) <- r.size.(l) - h;
      r.labels <- r.labels + 1
    end;
    r.hits.(l) <- 0
  done;
  for b = 0 to 255 do
    if inside.(b) then
      let m = r.moved.(r.label.(b)) in
      if m >= 0 then r.label.(b) <- m
  done;
  Array.fill r.moved 0 labels (-1)

(* Classes numbered by first byte in [byte_order], which is also each
   class's representative; the labels are renumbered in place. *)
let number r =
  let id = Array.make r.labels (-1) in
  let reps = Array.make r.labels '\000' in
  let count = ref 0 in
  for j = 0 to 255 do
    let b = byte_order.(j) in
    let l = r.label.(b) in
    if id.(l) < 0 then begin
      id.(l) <- !count;
      reps.(!count) <- Char.unsafe_chr b;
      incr count
    end;
    r.label.(b) <- id.(l)
  done;
  (r.label, !count, reps)

(* Partition bytes so that two bytes in the same class belong to exactly
   the same charsets of [sets], splitting by one charset at a time. *)
let partition_of_sets sets =
  let r = refinement (Array.make 256 0) 1 in
  let inside = Array.make 256 false in
  List.iter
    (fun cs ->
      Charset.fill_mem cs inside;
      split r inside)
    sets;
  number r

let collect_charsets nfa =
  let acc = ref [] in
  for s = 0 to Nfa.state_count nfa - 1 do
    List.iter (fun (cs, _) -> acc := cs :: !acc) (Nfa.char_transitions nfa s)
  done;
  List.sort_uniq Charset.compare !acc

(* ---- subset construction ---------------------------------------------- *)

let of_syntax r =
  let nfa = Nfa.of_syntax r in
  let class_of, class_count, reps = partition_of_sets (collect_charsets nfa) in
  let state_ids : (Nfa.state list, int) Hashtbl.t = Hashtbl.create 64 in
  let trans_rev = ref [] in
  let accept_rev = ref [] in
  let count = ref 0 in
  let worklist = Queue.create () in
  let intern states =
    match Hashtbl.find_opt state_ids states with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.add state_ids states id;
      Queue.add states worklist;
      id
  in
  let start = intern (Nfa.eps_closure nfa [ Nfa.start nfa ]) in
  while not (Queue.is_empty worklist) do
    let states = Queue.pop worklist in
    let row =
      Array.map (fun rep -> intern (Nfa.step nfa states rep)) reps
    in
    trans_rev := row :: !trans_rev;
    accept_rev := List.exists (Nfa.accepting nfa) states :: !accept_rev
  done;
  { class_of;
    class_count;
    reps;
    trans = Array.of_list (List.rev !trans_rev);
    accept = Array.of_list (List.rev !accept_rev);
    start }

let state_count t = Array.length t.trans

let accepts t w =
  let trans = t.trans and class_of = t.class_of in
  let s = ref t.start in
  for i = 0 to String.length w - 1 do
    (* [class_of] has one entry per byte value *)
    s :=
      trans.(!s).(Array.unsafe_get class_of (Char.code (String.unsafe_get w i)))
  done;
  t.accept.(!s)

let complement t = { t with accept = Array.map not t.accept }

(* ---- products ---------------------------------------------------------- *)

(* Common refinement of two alphabet partitions: [a]'s, split by each
   class of [b]'s. *)
let refine a b =
  let r = refinement (Array.copy a) (1 + Array.fold_left max 0 a) in
  let inside = Array.make 256 false in
  for k = 0 to Array.fold_left max 0 b do
    for x = 0 to 255 do
      inside.(x) <- b.(x) = k
    done;
    split r inside
  done;
  number r

let product combine a b =
  let class_of, class_count, reps = refine a.class_of b.class_of in
  let ids = Hashtbl.create 64 in
  let worklist = Queue.create () in
  let trans_rev = ref [] and accept_rev = ref [] and count = ref 0 in
  let intern pair =
    match Hashtbl.find_opt ids pair with
    | Some id -> id
    | None ->
      let id = !count in
      incr count;
      Hashtbl.add ids pair id;
      Queue.add pair worklist;
      id
  in
  let start = intern (a.start, b.start) in
  while not (Queue.is_empty worklist) do
    let ((sa, sb) as pair) = Queue.pop worklist in
    let row =
      Array.map
        (fun rep ->
          let byte = Char.code rep in
          intern
            ( a.trans.(sa).(a.class_of.(byte)),
              b.trans.(sb).(b.class_of.(byte)) ))
        reps
    in
    trans_rev := row :: !trans_rev;
    accept_rev := combine a.accept.(fst pair) b.accept.(snd pair) :: !accept_rev
  done;
  { class_of;
    class_count;
    reps;
    trans = Array.of_list (List.rev !trans_rev);
    accept = Array.of_list (List.rev !accept_rev);
    start }

let inter = product ( && )
let union = product ( || )
let diff = product (fun x y -> x && not y)

(* ---- decision procedures ----------------------------------------------- *)

let reachable t =
  let seen = Array.make (state_count t) false in
  let q = Queue.create () in
  seen.(t.start) <- true;
  Queue.add t.start q;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    Array.iter
      (fun s' ->
        if not seen.(s') then begin
          seen.(s') <- true;
          Queue.add s' q
        end)
      t.trans.(s)
  done;
  seen

let is_empty t =
  let seen = reachable t in
  let found = ref false in
  Array.iteri (fun i acc -> if acc && seen.(i) then found := true) t.accept;
  not !found

let is_universal t = is_empty (complement t)

let subset a b = is_empty (diff a b)
let equiv a b = subset a b && subset b a

(* States from which an accepting state is reachable. *)
let productive t =
  let n = state_count t in
  let rev = Array.make n [] in
  Array.iteri
    (fun s row -> Array.iter (fun s' -> rev.(s') <- s :: rev.(s')) row)
    t.trans;
  let seen = Array.make n false in
  let q = Queue.create () in
  Array.iteri
    (fun s acc ->
      if acc then begin
        seen.(s) <- true;
        Queue.add s q
      end)
    t.accept;
  while not (Queue.is_empty q) do
    let s = Queue.pop q in
    List.iter
      (fun p ->
        if not seen.(p) then begin
          seen.(p) <- true;
          Queue.add p q
        end)
      rev.(s)
  done;
  seen

let shortest_word t =
  let n = state_count t in
  if n = 0 then None
  else begin
    let prod = productive t in
    if not prod.(t.start) then None
    else begin
      (* BFS over states only, tracking the word built so far. *)
      let visited = Array.make n false in
      let q = Queue.create () in
      visited.(t.start) <- true;
      Queue.add (t.start, []) q;
      let result = ref None in
      while !result = None && not (Queue.is_empty q) do
        let s, path = Queue.pop q in
        if t.accept.(s) then
          result :=
            Some (String.init (List.length path) (List.nth (List.rev path)))
        else
          Array.iteri
            (fun cls s' ->
              if prod.(s') && not visited.(s') then begin
                visited.(s') <- true;
                Queue.add (s', t.reps.(cls) :: path) q
              end)
            t.trans.(s)
      done;
      !result
    end
  end

(* Several distinct short members: repeatedly take the shortest word
   and subtract it from the language.  Each step is a state-level BFS,
   so this stays polynomial where a word-level BFS would blow up. *)
let sample_words ?(limit = 5) t =
  let literal w =
    of_syntax
      (List.fold_right
         (fun c acc -> Syntax.cat (Syntax.chars (Charset.singleton c)) acc)
         (List.init (String.length w) (String.get w))
         Syntax.epsilon)
  in
  let rec go acc cur k =
    if k = 0 then List.rev acc
    else
      match shortest_word cur with
      | None -> List.rev acc
      | Some w -> go (w :: acc) (diff cur (literal w)) (k - 1)
  in
  go [] t limit

(* ---- Moore minimization ------------------------------------------------- *)

let minimize t =
  let n = state_count t in
  let seen = reachable t in
  (* initial partition: accepting vs not, over reachable states *)
  let block = Array.make n (-1) in
  Array.iteri
    (fun s r -> if r then block.(s) <- if t.accept.(s) then 1 else 0)
    seen;
  let changed = ref true in
  let block_count = ref 2 in
  while !changed do
    changed := false;
    let signatures = Hashtbl.create 64 in
    let next = Array.make n (-1) in
    let fresh = ref 0 in
    for s = 0 to n - 1 do
      if block.(s) >= 0 then begin
        let signature =
          (block.(s), Array.map (fun s' -> block.(s')) t.trans.(s))
        in
        match Hashtbl.find_opt signatures signature with
        | Some id -> next.(s) <- id
        | None ->
          let id = !fresh in
          incr fresh;
          Hashtbl.add signatures signature id;
          next.(s) <- id
      end
    done;
    if !fresh <> !block_count then begin
      changed := true;
      block_count := !fresh
    end;
    Array.blit next 0 block 0 n
  done;
  let m = !block_count in
  let trans = Array.make m [||] in
  let accept = Array.make m false in
  for s = 0 to n - 1 do
    if block.(s) >= 0 then begin
      accept.(block.(s)) <- t.accept.(s);
      if trans.(block.(s)) = [||] then
        trans.(block.(s)) <- Array.map (fun s' -> block.(s')) t.trans.(s)
    end
  done;
  { t with trans; accept; start = block.(t.start) }

(* ---- Kleene state elimination ------------------------------------------- *)

let to_syntax t0 =
  let t = minimize t0 in
  let n = state_count t in
  (* charset of each alphabet class *)
  let class_sets = Array.make t.class_count Charset.empty in
  for b = 0 to 255 do
    let c = t.class_of.(b) in
    class_sets.(c) <- Charset.union class_sets.(c) (Charset.singleton (Char.chr b))
  done;
  (* matrix over states 0..n-1 plus fresh start (n) and final (n+1) *)
  let m = n + 2 in
  let start = n and final = n + 1 in
  let r = Array.make_matrix m m Syntax.empty in
  for s = 0 to n - 1 do
    (* merge parallel edges s -> s' into one character class *)
    let merged = Hashtbl.create 4 in
    Array.iteri
      (fun cls s' ->
        let prev =
          match Hashtbl.find_opt merged s' with
          | Some cs -> cs
          | None -> Charset.empty
        in
        Hashtbl.replace merged s' (Charset.union prev class_sets.(cls)))
      t.trans.(s);
    Hashtbl.iter
      (fun s' cs -> r.(s).(s') <- Syntax.alt r.(s).(s') (Syntax.chars cs))
      merged;
    if t.accept.(s) then r.(s).(final) <- Syntax.epsilon
  done;
  r.(start).(t.start) <- Syntax.epsilon;
  let nonempty e = match e with Syntax.Empty -> false | _ -> true in
  (* eliminate the original states one by one *)
  for k = 0 to n - 1 do
    let loop = Syntax.star r.(k).(k) in
    for i = 0 to m - 1 do
      if i <> k && nonempty r.(i).(k) then
        for j = 0 to m - 1 do
          if j <> k && nonempty r.(k).(j) then
            r.(i).(j) <-
              Syntax.alt r.(i).(j)
                (Syntax.cat r.(i).(k) (Syntax.cat loop r.(k).(j)))
        done
    done;
    (* cut k out *)
    for i = 0 to m - 1 do
      r.(i).(k) <- Syntax.empty;
      r.(k).(i) <- Syntax.empty
    done
  done;
  r.(start).(final)
