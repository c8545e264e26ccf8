(* chaos-grid: oracle-judged cells ([Oracle.run]) on a closed loop over
   the pool's lanes. A cell pairs a case (a mechanism at k in {4, 6}) with one of
   the schedule kinds below; one cycle is every (mechanism, k, schedule)
   class once, alternately honest-only and under a random maximal
   coalition. The seed draws each cell's profile, PKI seed, coalition,
   targeted right party and schedule-compilation seed. *)

open Bsm_prelude
module H = Bsm_harness
module Engine = Bsm_runtime.Engine
module Chaos = Bsm_chaos
module Schedule = Bsm_chaos.Schedule
module Mutation = Bsm_chaos.Mutation

(* The schedule vocabulary of the standard chaos grid, aimed at a right
   party [p]: omission, crash, partition, over-budget bernoulli drops and
   a blackout, every in-flight mutation kind, and the state-corruption
   adversary. Every setting of the mix has a right-side budget of at least
   one, so the ones that charge only [p] stay admissible on honest cases. *)
let schedules ~k p =
  let rest = List.filter (fun q -> not (Party_id.equal q p)) (Party_id.all ~k) in
  [
    Schedule.never;
    Schedule.send_omission ~rate:0.4 p;
    Schedule.receive_omission ~rate:0.4 p;
    Schedule.crash p ~at_round:1;
    Schedule.partition ~from_round:1 ~until_round:4 [ p ] rest;
    Schedule.bernoulli ~rate:0.15;
    Schedule.union
      (Schedule.blackout ~from_round:1 ~until_round:2)
      (Schedule.restrict_to_side Side.Left (Schedule.bernoulli ~rate:0.1));
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Bit_flip p;
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Equivocate p;
    Schedule.all
      [
        Schedule.corrupt ~rate:0.25 ~kind:Mutation.Replay p;
        Schedule.corrupt ~rate:0.25 ~kind:Mutation.Truncate p;
      ];
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Forge_sender p;
    Schedule.corrupt_state ~rate:1.0 p ~at_round:1;
    Schedule.corrupt_state ~rate:0.6 p ~at_round:2;
  ]

let n_schedules = List.length (schedules ~k:2 (Party_id.right 0))

let classes =
  List.concat_map
    (fun k ->
      List.concat_map
        (fun m ->
          if List.mem k (Mix.sizes m [ 4; 6 ]) then
            List.init n_schedules (fun s -> Mix.setting m ~k, s)
          else [])
        Mix.mechanisms)
    [ 6; 4 ]

let cycle = List.length classes
let class_array = Array.of_list classes

type cell = {
  case : H.Sweep.case;
  schedule : Schedule.t;
  chaos_seed : int;
}

let input ~seed i =
  let c = ((i mod cycle) + cycle) mod cycle in
  let setting, s = class_array.(c) in
  let k = setting.Bsm_core.Setting.k in
  let adversary = if c land 1 = 0 then H.Sweep.Honest else H.Sweep.Random_coalition in
  let p = Party_id.right (Common.draw ~seed ~i ~lane:3 k) in
  {
    case =
      H.Sweep.case
        ~profile_seed:(Common.draw ~seed ~i ~lane:1 1_000_000_000)
        ~scenario_seed:(Common.draw ~seed ~i ~lane:2 1_000_000)
        ~adversary setting;
    schedule = List.nth (schedules ~k p) s;
    chaos_seed = Common.draw ~seed ~i ~lane:4 1_000_000;
  }

let workload =
  {
    Closed_loop.cycle;
    input;
    run = (fun c -> Chaos.Oracle.run ~seed:c.chaos_seed ~schedule:c.schedule c.case);
    run_traced =
      (fun sp c -> Traced.run_oracle sp ~seed:c.chaos_seed ~schedule:c.schedule c.case);
  }

(* A cell fails on a violation, or on a state corruption the honest
   parties never recover from while the faults stay within budget. *)
let failed (r : Chaos.Oracle.report) =
  r.verdict = Chaos.Oracle.Violation
  || (r.within_budget && r.recovery = Some Chaos.Oracle.Stuck)

let verdict_counts ops =
  let n p = List.length (List.filter p ops) in
  let v (o : _ Closed_loop.op) = o.Closed_loop.out.Chaos.Oracle.verdict in
  let rec_ (o : _ Closed_loop.op) = o.Closed_loop.out.Chaos.Oracle.recovery in
  ( n (fun o -> v o = Chaos.Oracle.Ok),
    n (fun o -> v o = Chaos.Oracle.Expected_degradation),
    n (fun o -> v o = Chaos.Oracle.Violation),
    n (fun o -> match rec_ o with Some (Chaos.Oracle.Recovered _) -> true | _ -> false),
    n (fun o -> rec_ o = Some Chaos.Oracle.Stuck) )

let fingerprint (r : (cell, Chaos.Oracle.report) Closed_loop.run) =
  let fp = Common.fingerprint () in
  List.iter
    (fun (o : _ Closed_loop.op) ->
      if o.index < cycle then begin
        let m = o.out.Chaos.Oracle.metrics in
        Common.count fp "rounds" m.Engine.rounds_used;
        Common.count fp "messages" m.Engine.messages_sent;
        Common.count fp "bytes" m.Engine.bytes_delivered;
        Common.count fp "dropped" m.Engine.messages_dropped_fault;
        Common.count fp "corrupted" m.Engine.messages_corrupted;
        Common.count fp "scrambled" m.Engine.cells_scrambled;
        Common.absorb fp (Hashtbl.hash (Chaos.Oracle.verdict_to_string o.out.verdict))
      end)
    r.Closed_loop.ops;
  let first = List.filter (fun (o : _ Closed_loop.op) -> o.index < cycle) r.ops in
  let ok, degraded, violations, recovered, stuck = verdict_counts first in
  List.iter
    (fun (name, v) -> Common.count fp name v)
    [ "ok", ok; "degraded", degraded; "violations", violations; "recovered", recovered;
      "stuck", stuck ];
  fp

let oracle_tally (r : (cell, Chaos.Oracle.report) Closed_loop.run) =
  let ok, degraded, violations, recovered, stuck = verdict_counts r.Closed_loop.ops in
  let recovery_rounds =
    List.filter_map
      (fun (o : _ Closed_loop.op) ->
        match o.out.Chaos.Oracle.recovery with
        | Some (Chaos.Oracle.Recovered n) -> Some (float_of_int n)
        | _ -> None)
      r.ops
  in
  ( [
      "oracle.ok", float_of_int ok;
      "oracle.degraded", float_of_int degraded;
      "oracle.violations", float_of_int violations;
      "oracle.recovered", float_of_int recovered;
      "oracle.stuck", float_of_int stuck;
      "oracle.recovery_rounds_mean", Common.mean recovery_rounds;
    ],
    [
      Printf.sprintf
        "verdicts: %d ok, %d expected-degradation, %d violations; recovery: %d \
         recovered (mean %.2f rounds), %d stuck"
        ok degraded violations recovered (Common.mean recovery_rounds) stuck;
    ] )

let run ~seed ~lanes ~setups ~trace stop =
  Closed_loop.result
    (Closed_loop.run workload ~seed ~lanes ~setups ~trace stop)
    ~trace ~failed ~same:( = ) ~what:"Oracle.run"
    ~metrics:(fun (o : Chaos.Oracle.report) -> o.metrics)
    ~setting:(fun c -> Mix.class_of c.case.H.Sweep.setting)
    ~fingerprint ~extra:oracle_tally
