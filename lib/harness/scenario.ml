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
  else if not (Core.Setting.within_budget setting corrupted) then
    Error "byzantine coalition exceeds the (t_left, t_right) budget"
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

type execution = {
  corrupted : Party_set.t;
  decisions : (Party_id.t * Core.Problem.decision) list;
  result : Engine.result;
}

let execute ?max_rounds ?faults ~k ~topology ~byzantine honest =
  let corrupted = Party_set.of_list (List.map fst byzantine) in
  let programs p =
    match List.assoc_opt p byzantine with
    | Some program -> program
    | None -> honest p
  in
  let result =
    Engine.run
      (Engine.config ?max_rounds ?faults ~k ~link:(Engine.Of_topology topology) ())
      ~programs
  in
  let decisions =
    List.filter_map
      (fun (r : Engine.party_result) ->
        if Party_set.mem r.id corrupted then None
        else Some (r.id, Core.Problem.decision_of_result r))
      result.Engine.parties
  in
  { corrupted; decisions; result }

(* [run] and [run_ssm]: the plan's [program] on each honest party's
   input, a 2,000-round budget, and [judge] over the outcome. *)
let judged ?(max_rounds = 2000) ?faults t ~profile ~judge program =
  let setting = t.setting in
  let plan = Core.Select.plan_exn setting in
  let pki = Crypto.Pki.setup ~k:setting.Core.Setting.k ~seed:t.seed in
  let e =
    execute ~max_rounds ?faults ~k:setting.Core.Setting.k
      ~topology:setting.Core.Setting.topology ~byzantine:t.byzantine
      (program plan ~pki)
  in
  let outcome =
    { Core.Problem.profile; byzantine = e.corrupted; decisions = e.decisions }
  in
  {
    outcome;
    violations = judge outcome;
    metrics = e.result.Engine.metrics;
    parties = e.result.Engine.parties;
    plan;
  }

let run ?max_rounds ?faults t =
  judged ?max_rounds ?faults t ~profile:t.profile ~judge:Core.Problem.check
    (fun plan ~pki p ->
      plan.Core.Select.program ~pki ~input:(SM.Profile.prefs t.profile p) ~self:p)

(* For evaluation, the true profile is the reduction's constructed one. *)
let run_ssm ?max_rounds ?faults ~favorites t =
  judged ?max_rounds ?faults t
    ~profile:(Core.Ssm.favorites_to_profile ~k:t.setting.Core.Setting.k favorites)
    ~judge:(Core.Problem.check_simplified ~favorites)
    (fun plan ~pki p -> Core.Ssm.program plan ~pki ~favorite:(favorites p) ~self:p)

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
