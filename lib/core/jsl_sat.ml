let certify check outcome =
  match outcome with
  | Jautomaton.Sat v ->
    if check v then outcome
    else
      Jautomaton.Unknown
        "internal error: witness failed re-validation (please report)"
  | Jautomaton.Unsat | Jautomaton.Unknown _ -> outcome

let satisfiable ?budget f =
  let aut = Jautomaton.of_jsl f in
  Obs.Metrics.span "phase.sat" (fun () -> Jautomaton.find_model ?budget aut)
  |> certify (fun v -> Jsl.validates v f)

let satisfiable_rec ?budget r =
  let aut = Jautomaton.of_jsl_rec r in
  Obs.Metrics.span "phase.sat" (fun () -> Jautomaton.find_model ?budget aut)
  |> certify (fun v -> Jsl_rec.validates v r)

let models ?(limit = 5) ?budget f =
  let rec go acc current k =
    if k = 0 then (List.rev acc, None)
    else
      match satisfiable ?budget current with
      | Jautomaton.Sat w ->
        go (w :: acc)
          (Jsl.And (current, Jsl.Not (Jsl.Test (Jsl.Eq_doc w))))
          (k - 1)
      | Jautomaton.Unsat -> (List.rev acc, None)
      | Jautomaton.Unknown m -> (List.rev acc, Some m)
  in
  go [] f limit
