let satisfiable ?budget f =
  match Obs.Metrics.span "phase.translate" (fun () -> Translate.jnl_to_jsl f)
  with
  | Error _ as e -> e
  | Ok jsl ->
    let outcome = Jsl_sat.satisfiable ?budget jsl in
    Ok
      (match outcome with
      | Jautomaton.Sat v ->
        if Jnl_eval.satisfies v f then outcome
        else
          Jautomaton.Unknown
            "internal error: witness failed JNL re-validation (please report)"
      | Jautomaton.Unsat | Jautomaton.Unknown _ -> outcome)
