open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Core = Bsm_core

let run ~topology ~k ~favorites ~byzantine (protocol : Protocol_under_test.t) =
  let programs p =
    match List.assoc_opt p byzantine with
    | Some program -> program
    | None ->
      protocol.Protocol_under_test.program ~topology ~k ~favorite:(favorites p)
        ~self:p
  in
  let cfg = Engine.config ~k ~link:(Engine.Of_topology topology) ~max_rounds:500 () in
  let res = Engine.run cfg ~programs:(fun p -> programs p) in
  let byz = Party_set.of_list (List.map fst byzantine) in
  let decisions =
    List.filter_map
      (fun (r : Engine.party_result) ->
        if Party_set.mem r.Engine.id byz then None
        else Some (r.Engine.id, Core.Problem.decision_of_result r))
      res.Engine.parties
  in
  let outcome =
    {
      Core.Problem.profile = Core.Ssm.favorites_to_profile ~k favorites;
      byzantine = byz;
      decisions;
    }
  in
  Core.Problem.check_simplified ~favorites outcome

let random_favorites rng ~k =
  let table =
    List.map
      (fun p ->
        p, Party_id.make (Side.opposite (Party_id.side p)) (Rng.int rng k))
      (Party_id.all ~k)
  in
  fun p -> List.assoc p table
