type state = int

type t = {
  eps : state list array;
  trans : (Charset.t * state) list array;
  start : state;
  accept : state;  (* Thompson automata have a single accepting state *)
}

(* Mutable builder *)
type builder = {
  mutable eps_b : state list array;
  mutable trans_b : (Charset.t * state) list array;
  mutable next : int;
}

let new_state b =
  let s = b.next in
  b.next <- s + 1;
  if s >= Array.length b.eps_b then begin
    let grow a fillv =
      let a' = Array.make (2 * Array.length a) fillv in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    b.eps_b <- grow b.eps_b [];
    b.trans_b <- grow b.trans_b []
  end;
  s

let add_eps b s s' = b.eps_b.(s) <- s' :: b.eps_b.(s)
let add_trans b s cs s' = b.trans_b.(s) <- (cs, s') :: b.trans_b.(s)

let of_syntax r =
  let b = { eps_b = Array.make 16 []; trans_b = Array.make 16 []; next = 0 } in
  (* returns (entry, exit) *)
  let rec build = function
    | Syntax.Empty ->
      let i = new_state b and f = new_state b in
      (i, f)
    | Syntax.Epsilon ->
      let i = new_state b and f = new_state b in
      add_eps b i f;
      (i, f)
    | Syntax.Chars cs ->
      let i = new_state b and f = new_state b in
      add_trans b i cs f;
      (i, f)
    | Syntax.Cat (r1, r2) ->
      let i1, f1 = build r1 in
      let i2, f2 = build r2 in
      add_eps b f1 i2;
      (i1, f2)
    | Syntax.Alt (r1, r2) ->
      let i = new_state b and f = new_state b in
      let i1, f1 = build r1 in
      let i2, f2 = build r2 in
      add_eps b i i1;
      add_eps b i i2;
      add_eps b f1 f;
      add_eps b f2 f;
      (i, f)
    | Syntax.Star r1 ->
      let i = new_state b and f = new_state b in
      let i1, f1 = build r1 in
      add_eps b i i1;
      add_eps b i f;
      add_eps b f1 i1;
      add_eps b f1 f;
      (i, f)
  in
  let start, accept = build r in
  { eps = Array.sub b.eps_b 0 b.next;
    trans = Array.sub b.trans_b 0 b.next;
    start;
    accept }

let state_count t = Array.length t.eps
let start t = t.start
let accepting t s = s = t.accept
let char_transitions t s = t.trans.(s)

let eps_closure t states =
  let seen = Array.make (state_count t) false in
  let rec visit s =
    if not seen.(s) then begin
      seen.(s) <- true;
      List.iter visit t.eps.(s)
    end
  in
  List.iter visit states;
  let acc = ref [] in
  for s = state_count t - 1 downto 0 do
    if seen.(s) then acc := s :: !acc
  done;
  !acc

let step t states c =
  let succs =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun (cs, s') -> if Charset.mem c cs then Some s' else None)
          t.trans.(s))
      states
  in
  eps_closure t succs

let accepts t w =
  let states = ref (eps_closure t [ t.start ]) in
  String.iter (fun c -> states := step t !states c) w;
  List.exists (accepting t) !states
