module Core = Bsm_core

let run ~topology ~k ~favorites ~byzantine (protocol : Protocol_under_test.t) =
  let e =
    Bsm_harness.Scenario.execute ~max_rounds:500 ~k ~topology ~byzantine (fun p ->
        protocol.Protocol_under_test.program ~topology ~k ~favorite:(favorites p)
          ~self:p)
  in
  Core.Problem.check_simplified ~favorites
    {
      Core.Problem.profile = Core.Ssm.favorites_to_profile ~k favorites;
      byzantine = e.corrupted;
      decisions = e.decisions;
    }
