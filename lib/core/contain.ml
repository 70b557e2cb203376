type verdict =
  | Yes
  | No of Jsont.Value.t
  | Inconclusive of string

let of_outcome = function
  | Jautomaton.Unsat -> Yes
  | Jautomaton.Sat w -> No w
  | Jautomaton.Unknown m -> Inconclusive m

let contained ?budget a b =
  of_outcome (Jsl_sat.satisfiable ?budget (Jsl.And (a, Jsl.Not b)))

let equivalent ?budget a b =
  match contained ?budget a b with
  | Yes -> contained ?budget b a
  | other -> other

let disjoint ?budget a b =
  of_outcome (Jsl_sat.satisfiable ?budget (Jsl.And (a, b)))

let contained_jnl ?budget a b =
  match (Translate.jnl_to_jsl a, Translate.jnl_to_jsl b) with
  | Ok a', Ok b' -> Ok (contained ?budget a' b')
  | Error m, _ | _, Error m -> Error m

let schema_compatible ?budget ~old_ ~new_ () = contained ?budget old_ new_
