(* The traced ops: [Scenario.run] and [Oracle.run] re-assembled from their
   public parts, with a span around every call into a layer and every
   party's program wrapped the way the attack constructions wrap
   [Engine.env]. A traced op must reproduce the untraced op exactly; the
   workloads check that on every op of a traced run. *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Engine = Bsm_runtime.Engine
module Core = Bsm_core
module H = Bsm_harness
module Crypto = Bsm_crypto.Crypto
module Wire = Bsm_wire.Wire
module Chaos = Bsm_chaos

(* Protocol compute is the time between a [next_round] return and the
   party's next call (or its return); every send call inside it is timed
   into [wire.send]. A segment always closes before the fiber yields, so
   segments of different parties never interleave on the span stack. *)
let wrap_program sp (program : Engine.program) : Engine.program =
 fun env ->
  let open_ = ref false in
  let enter () =
    Span.enter sp Span.Compute;
    open_ := true
  in
  let leave () =
    if !open_ then begin
      open_ := false;
      Span.leave sp
    end
  in
  let sent t0 = Span.child_time sp Span.Send (Common.now_ns () - t0) in
  let env' =
    {
      env with
      Engine.send =
        (fun dst p ->
          let t0 = Common.now_ns () in
          env.Engine.send dst p;
          sent t0);
      send_w =
        (fun codec dst v ->
          let t0 = Common.now_ns () in
          env.Engine.send_w codec dst v;
          sent t0);
      send_slice =
        (fun dst s ->
          let t0 = Common.now_ns () in
          env.Engine.send_slice dst s;
          sent t0);
      send_multi_w =
        (fun codec dsts v ->
          let t0 = Common.now_ns () in
          env.Engine.send_multi_w codec dsts v;
          sent t0);
      next_round =
        (fun () ->
          leave ();
          let inbox = env.Engine.next_round () in
          enter ();
          inbox);
    }
  in
  enter ();
  match program env' with
  | () -> leave ()
  | exception e ->
    leave ();
    raise e

(* [Scenario.run], step for step (plan, PKI, engine, decode the honest
   decisions, check), with the same 2000-round default budget. *)
let run_scenario ?(max_rounds = 2000) ?faults sp (t : H.Scenario.t) =
  let setting = t.H.Scenario.setting in
  let k = setting.Core.Setting.k in
  let plan = Span.within sp Span.Select_plan (fun () -> Core.Select.plan_exn setting) in
  let pki =
    Span.within sp Span.Pki_setup (fun () -> Crypto.Pki.setup ~k ~seed:t.seed)
  in
  let byz = Party_set.of_list (List.map fst t.byzantine) in
  let programs p =
    wrap_program sp
      (match List.find_opt (fun (q, _) -> Party_id.equal p q) t.byzantine with
      | Some (_, program) -> program
      | None ->
        plan.Core.Select.program ~pki ~input:(SM.Profile.prefs t.profile p) ~self:p)
  in
  let cfg =
    Engine.config ~max_rounds ?faults ~k
      ~link:(Engine.Of_topology setting.Core.Setting.topology) ()
  in
  let res = Span.within sp Span.Engine_run (fun () -> Engine.run cfg ~programs) in
  let decisions =
    List.filter_map
      (fun (r : Engine.party_result) ->
        if Party_set.mem r.id byz then None
        else
          Some
            ( r.id,
              match r.status, r.out with
              | Engine.Terminated, Some bytes -> (
                match Wire.decode Core.Problem.decision_codec bytes with
                | Ok (Some partner) -> Core.Problem.Matched partner
                | Ok None -> Core.Problem.Nobody
                | Error _ -> Core.Problem.No_output)
              | Engine.Terminated, None -> Core.Problem.No_output
              | (Engine.Out_of_rounds | Engine.Crashed _), _ -> Core.Problem.No_output
            ))
      res.Engine.parties
  in
  let outcome = { Core.Problem.profile = t.profile; byzantine = byz; decisions } in
  let violations = Span.within sp Span.Check (fun () -> Core.Problem.check outcome) in
  {
    H.Scenario.outcome;
    violations;
    metrics = res.Engine.metrics;
    parties = res.Engine.parties;
    plan;
  }

(* [Oracle.run]: materialise the case, compile the schedule, run, re-judge
   with the charged parties moved into the corrupt set, and read
   rounds-to-recovery off the honest parties' finishing rounds. *)
let run_oracle ?max_rounds sp ~seed ~schedule (case : H.Sweep.case) =
  let setting = case.H.Sweep.setting in
  let scenario =
    Span.within sp Span.Harness_case (fun () -> H.Sweep.scenario_of_case case)
  in
  let faults =
    Span.within sp Span.Schedule_compile (fun () ->
        Chaos.Schedule.compile ~seed schedule)
  in
  let sr = run_scenario ?max_rounds ~faults sp scenario in
  let charged = Chaos.Schedule.charged ~k:setting.Core.Setting.k schedule in
  let corrupted =
    Party_set.union sr.H.Scenario.outcome.Core.Problem.byzantine charged
  in
  let within_budget =
    Party_set.count_side Side.Left corrupted <= setting.Core.Setting.t_left
    && Party_set.count_side Side.Right corrupted <= setting.Core.Setting.t_right
  in
  let outcome =
    {
      sr.H.Scenario.outcome with
      Core.Problem.byzantine = corrupted;
      decisions =
        List.filter
          (fun (p, _) -> not (Party_set.mem p corrupted))
          sr.H.Scenario.outcome.Core.Problem.decisions;
    }
  in
  let violations = Span.within sp Span.Check (fun () -> Core.Problem.check outcome) in
  let verdict =
    if not within_budget then Chaos.Oracle.Expected_degradation
    else if violations = [] then Chaos.Oracle.Ok
    else Chaos.Oracle.Violation
  in
  let metrics = sr.H.Scenario.metrics in
  let recovery =
    match metrics.Engine.first_scramble_round with
    | None -> None
    | Some scrambled_at ->
      let honest =
        List.filter
          (fun (r : Engine.party_result) -> not (Party_set.mem r.id corrupted))
          sr.H.Scenario.parties
      in
      if List.exists (fun (r : Engine.party_result) -> r.finished_round = None) honest
      then Some Chaos.Oracle.Stuck
      else if violations <> [] then Some Chaos.Oracle.Violated
      else
        let last =
          List.fold_left
            (fun acc (r : Engine.party_result) ->
              match r.finished_round with Some n -> max acc n | None -> acc)
            0 honest
        in
        Some (Chaos.Oracle.Recovered (max 0 (last - scrambled_at)))
  in
  {
    Chaos.Oracle.verdict;
    within_budget;
    charged;
    corrupted;
    violations;
    metrics;
    recovery;
  }
