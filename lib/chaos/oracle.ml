open Bsm_prelude
module Core = Bsm_core
module Engine = Bsm_runtime.Engine
module H = Bsm_harness

type verdict =
  | Ok
  | Expected_degradation
  | Violation

let verdict_to_string = function
  | Ok -> "ok"
  | Expected_degradation -> "expected-degradation"
  | Violation -> "VIOLATION"

let pp_verdict ppf v = Format.pp_print_string ppf (verdict_to_string v)

type recovery =
  | Recovered of int
  | Stuck
  | Violated

let recovery_to_string = function
  | Recovered n -> Printf.sprintf "recovered:%d" n
  | Stuck -> "stuck"
  | Violated -> "violated"

let recovery_codec =
  let open Bsm_wire.Wire in
  variant ~name:"recovery"
    [
      pack
        (case 0 uint
           ~inject:(fun n -> Recovered n)
           ~match_:(function Recovered n -> Some n | _ -> None));
      pack
        (case 1 unit
           ~inject:(fun () -> Stuck)
           ~match_:(function Stuck -> Some () | _ -> None));
      pack
        (case 2 unit
           ~inject:(fun () -> Violated)
           ~match_:(function Violated -> Some () | _ -> None));
    ]

type report = {
  verdict : verdict;
  within_budget : bool;
  charged : Party_set.t;
  corrupted : Party_set.t;
  violations : Core.Problem.violation list;
  metrics : Engine.metrics;
  recovery : recovery option;
}

(* Rounds-to-recovery: meaningful only when the schedule actually
   scrambled state ([first_scramble_round]). A party honest under
   [corrupted] that never finished is proven stuck (the engine ran it out
   of rounds); broken honest-party properties make recovery moot; else
   convergence took until the last honest party terminated, measured from
   the first scramble (clamped at 0 — parties already done before the
   scramble landed recovered instantly). *)
let recovery_of ~corrupted ~violations ~(metrics : Engine.metrics)
    (parties : Engine.party_result list) =
  match metrics.Engine.first_scramble_round with
  | None -> None
  | Some scrambled_at ->
    let honest =
      List.filter
        (fun (r : Engine.party_result) -> not (Party_set.mem r.Engine.id corrupted))
        parties
    in
    (* Stuck before Violated: a never-terminating honest party also shows
       up as a termination violation, but "never converged" is the more
       precise self-stabilization reading than "converged wrong". *)
    if
      List.exists
        (fun (r : Engine.party_result) -> r.Engine.finished_round = None)
        honest
    then Some Stuck
    else if violations <> [] then Some Violated
    else
      let last_finish =
        List.fold_left
          (fun acc (r : Engine.party_result) ->
            match r.Engine.finished_round with
            | Some n -> max acc n
            | None -> acc)
          0 honest
      in
      Some (Recovered (max 0 (last_finish - scrambled_at)))

let run ?max_rounds ~seed ~schedule (case : H.Sweep.case) =
  let setting = case.H.Sweep.setting in
  let scenario = H.Sweep.scenario_of_case case in
  let faults = Schedule.compile ~seed schedule in
  let sr = H.Scenario.run ?max_rounds ~faults scenario in
  let charged = Schedule.charged ~k:setting.Core.Setting.k schedule in
  let byzantine = sr.H.Scenario.outcome.Core.Problem.byzantine in
  let corrupted = Party_set.union byzantine charged in
  let within_budget =
    Party_set.count_side Side.Left corrupted <= setting.Core.Setting.t_left
    && Party_set.count_side Side.Right corrupted <= setting.Core.Setting.t_right
  in
  (* Re-judge the outcome with the charged parties moved into the corrupt
     set: the properties are promised to parties that are neither
     byzantine nor omission-faulty. *)
  let outcome =
    let open Core.Problem in
    {
      sr.H.Scenario.outcome with
      byzantine = corrupted;
      decisions =
        List.filter
          (fun (p, _) -> not (Party_set.mem p corrupted))
          sr.H.Scenario.outcome.decisions;
    }
  in
  let violations = Core.Problem.check outcome in
  let verdict =
    if not within_budget then Expected_degradation
    else if violations = [] then Ok
    else Violation
  in
  let metrics = sr.H.Scenario.metrics in
  {
    verdict;
    within_budget;
    charged;
    corrupted;
    violations;
    metrics;
    recovery = recovery_of ~corrupted ~violations ~metrics sr.H.Scenario.parties;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>verdict: %a (%s budget)@,charged: %a@,corrupted: %a@,\
     messages: %d sent, %d delivered, %d topology-dropped, %d omitted, %d \
     corrupted in flight@,"
    pp_verdict r.verdict
    (if r.within_budget then "within" else "over")
    Party_set.pp r.charged Party_set.pp r.corrupted r.metrics.Engine.messages_sent
    r.metrics.Engine.messages_delivered r.metrics.Engine.messages_dropped_topology
    r.metrics.Engine.messages_dropped_fault r.metrics.Engine.messages_corrupted;
  (match r.recovery with
  | None -> ()
  | Some rec_ ->
    Format.fprintf ppf "state cells scrambled: %d (first at round %s); recovery: %s@,"
      r.metrics.Engine.cells_scrambled
      (match r.metrics.Engine.first_scramble_round with
      | Some n -> string_of_int n
      | None -> "-")
      (recovery_to_string rec_));
  (match r.metrics.Engine.messages_dropped_by_label with
  | [] -> ()
  | by_label ->
    Format.fprintf ppf "omitted/corrupted by component: @[<v>%a@]@,"
      (Format.pp_print_list (fun ppf (l, n) -> Format.fprintf ppf "%s: %d" l n))
      by_label);
  match r.violations with
  | [] -> Format.fprintf ppf "honest-party properties: all hold@]"
  | vs ->
    Format.fprintf ppf "honest-party violations:@,%a@]"
      (Format.pp_print_list Core.Problem.pp_violation)
      vs
