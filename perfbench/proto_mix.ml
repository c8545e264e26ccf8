(* proto-mix: back-to-back full bSM executions, no fault schedule, on a
   closed loop over the pool's lanes. One cycle is every (mechanism, k,
   adversary) class once: the five mechanisms at k in {4, 6, 8} (the
   majority proxy at k <= 6), each honest-only and under a random maximal
   coalition. The seed draws every op's profile, PKI seed and coalition. *)

module H = Bsm_harness
module Engine = Bsm_runtime.Engine
module Core = Bsm_core

let classes =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun m ->
          if List.mem k (Mix.sizes m [ 4; 6; 8 ]) then
            [
              Mix.setting m ~k, H.Sweep.Honest;
              Mix.setting m ~k, H.Sweep.Random_coalition;
            ]
          else [])
        Mix.mechanisms)
    [ 8; 6; 4 ]

let cycle = List.length classes
let class_array = Array.of_list classes

let input ~seed i =
  let setting, adversary = class_array.(((i mod cycle) + cycle) mod cycle) in
  H.Sweep.case
    ~profile_seed:(Common.draw ~seed ~i ~lane:1 1_000_000_000)
    ~scenario_seed:(Common.draw ~seed ~i ~lane:2 1_000_000)
    ~adversary setting

let workload =
  {
    Closed_loop.cycle;
    input;
    run = (fun case -> H.Scenario.run (H.Sweep.scenario_of_case case));
    run_traced =
      (fun sp case ->
        Traced.run_scenario sp
          (Span.within sp Span.Harness_case (fun () -> H.Sweep.scenario_of_case case)));
  }

(* The traced op reproduces the untraced one: engine counts, every party's
   status and output, the honest decisions and the verdict. *)
let same (a : H.Scenario.report) (b : H.Scenario.report) =
  a.metrics = b.metrics && a.parties = b.parties
  && a.outcome.Core.Problem.decisions = b.outcome.Core.Problem.decisions
  && a.violations = b.violations

let fingerprint (r : (H.Sweep.case, H.Scenario.report) Closed_loop.run) =
  let fp = Common.fingerprint () in
  List.iter
    (fun (o : _ Closed_loop.op) ->
      if o.index < cycle then begin
        let m = o.out.H.Scenario.metrics in
        Common.count fp "rounds" m.Engine.rounds_used;
        Common.count fp "messages" m.Engine.messages_sent;
        Common.count fp "bytes" m.Engine.bytes_delivered;
        Common.count fp "violations" (List.length o.out.H.Scenario.violations)
      end)
    r.Closed_loop.ops;
  fp

let run ~seed ~lanes ~setups ~trace stop =
  Closed_loop.result
    (Closed_loop.run workload ~seed ~lanes ~setups ~trace stop)
    ~trace
    ~failed:(fun r -> not (H.Scenario.ok r))
    ~same ~what:"Scenario.run"
    ~metrics:(fun (o : H.Scenario.report) -> o.metrics)
    ~setting:(fun (c : H.Sweep.case) -> Mix.class_of c.H.Sweep.setting)
    ~fingerprint
    ~extra:(fun _ -> [], [])
