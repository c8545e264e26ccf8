open Bsm_prelude
module SM = Bsm_stable_matching
module Engine = Bsm_runtime.Engine
module Core = Bsm_core
module Crypto = Bsm_crypto.Crypto

type t = {
  setting : Core.Setting.t;
  profile : SM.Profile.t;
  byzantine : (Party_id.t * Engine.program) list;
  seed : int;
}

let make ?(byzantine = []) ?(seed = 0) (setting : Core.Setting.t) profile =
  let corrupted = Party_set.of_list (List.map fst byzantine) in
  if SM.Profile.k profile <> setting.Core.Setting.k then
    Error "profile and setting disagree on k"
  else if List.length byzantine <> Party_set.cardinal corrupted then
    Error "duplicate byzantine party"
  else if Party_set.count_side Side.Left corrupted > setting.Core.Setting.t_left then
    Error "byzantine coalition exceeds t_left"
  else if Party_set.count_side Side.Right corrupted > setting.Core.Setting.t_right
  then Error "byzantine coalition exceeds t_right"
  else Ok { setting; profile; byzantine; seed }

let make_exn ?byzantine ?seed setting profile =
  match make ?byzantine ?seed setting profile with
  | Ok t -> t
  | Error msg -> invalid_arg ("Scenario.make_exn: " ^ msg)

type report = {
  outcome : Core.Problem.outcome;
  violations : Core.Problem.violation list;
  metrics : Engine.metrics;
  parties : Engine.party_result list;
  plan : Core.Select.plan;
}

let byzantine_set t = Party_set.of_list (List.map fst t.byzantine)

let execute ?(max_rounds = 2000) ?faults t ~honest_program =
  let setting = t.setting in
  let k = setting.Core.Setting.k in
  let byz = byzantine_set t in
  let programs p =
    match List.find_opt (fun (q, _) -> Party_id.equal p q) t.byzantine with
    | Some (_, program) -> program
    | None -> honest_program p
  in
  let cfg =
    Engine.config ~max_rounds ?faults ~k
      ~link:(Engine.Of_topology setting.Core.Setting.topology) ()
  in
  let res = Engine.run cfg ~programs in
  let decisions =
    List.filter_map
      (fun (r : Engine.party_result) ->
        if Party_set.mem r.id byz then None
        else Some (r.id, Core.Problem.decision_of_result r))
      res.Engine.parties
  in
  let outcome =
    { Core.Problem.profile = t.profile; byzantine = byz; decisions }
  in
  outcome, res.Engine.metrics, res.Engine.parties

let run ?max_rounds ?faults t =
  let plan = Core.Select.plan_exn t.setting in
  let pki = Crypto.Pki.setup ~k:t.setting.Core.Setting.k ~seed:t.seed in
  let honest_program p =
    plan.Core.Select.program ~pki ~input:(SM.Profile.prefs t.profile p) ~self:p
  in
  let outcome, metrics, parties = execute ?max_rounds ?faults t ~honest_program in
  { outcome; violations = Core.Problem.check outcome; metrics; parties; plan }

let run_ssm ?max_rounds ?faults ~favorites t =
  let plan = Core.Select.plan_exn t.setting in
  let k = t.setting.Core.Setting.k in
  let pki = Crypto.Pki.setup ~k ~seed:t.seed in
  let honest_program p = Core.Ssm.program plan ~pki ~favorite:(favorites p) ~self:p in
  (* For evaluation, the true profile is the reduction's constructed one. *)
  let t = { t with profile = Core.Ssm.favorites_to_profile ~k favorites } in
  let outcome, metrics, parties = execute ?max_rounds ?faults t ~honest_program in
  {
    outcome;
    violations = Core.Problem.check_simplified ~favorites outcome;
    metrics;
    parties;
    plan;
  }

let ok report = report.violations = []

let pp_report ppf report =
  let pp_decision ppf (p, d) =
    match (d : Core.Problem.decision) with
    | Core.Problem.No_output -> Format.fprintf ppf "%a: (no output)" Party_id.pp p
    | Core.Problem.Nobody -> Format.fprintf ppf "%a: nobody" Party_id.pp p
    | Core.Problem.Matched q -> Format.fprintf ppf "%a: %a" Party_id.pp p Party_id.pp q
  in
  Format.fprintf ppf "@[<v>plan: %s@,decisions: @[<v>%a@]@,"
    report.plan.Core.Select.describe
    (Format.pp_print_list pp_decision)
    report.outcome.Core.Problem.decisions;
  match report.violations with
  | [] -> Format.fprintf ppf "bSM achieved (no violations)@]"
  | vs ->
    Format.fprintf ppf "VIOLATIONS:@,%a@]"
      (Format.pp_print_list Core.Problem.pp_violation)
      vs
