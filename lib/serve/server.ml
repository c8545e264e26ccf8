open Bsm_prelude
module Pool = Bsm_runtime.Pool
module SM = Bsm_stable_matching
module Core = Bsm_core
module Sweep = Bsm_harness.Sweep
module Scenario = Bsm_harness.Scenario
module Schedule = Bsm_chaos.Schedule
module Oracle = Bsm_chaos.Oracle

type config = {
  queue_capacity : int;
  batch : int;
  max_k : int;
  max_rounds : int option;
  chaos : bool;
  chaos_seed : int;
}

let default_config =
  {
    queue_capacity = 256;
    batch = 64;
    max_k = 4096;
    max_rounds = None;
    chaos = false;
    chaos_seed = 0;
  }

type t = {
  config : config;
  pool : Pool.t;
  queue : Frame.spec Ring.t;
  instances : Instances.t;
  mutable closing : bool;
  mutable violations : int;
}

let create ~pool ?(config = default_config) () =
  if config.queue_capacity < 1 then invalid_arg "Server.create: queue_capacity < 1";
  if config.batch < 1 then invalid_arg "Server.create: batch < 1";
  {
    config;
    pool;
    queue = Ring.create ~capacity:config.queue_capacity ();
    instances = Instances.create ();
    closing = false;
    violations = 0;
  }

let config t = t.config
let instances t = t.instances
let violations t = t.violations
let pending t = Instances.pending t.instances
let close t = t.closing <- true

(* --- execution (pure; runs on pool domains) ------------------------------ *)

let fingerprint_salt = 0x5E27EL

(* A deterministic digest of a bSM run: there is no single matching
   array to hash (honest parties output pairings individually), so
   fingerprint the run's observable metrics instead — stable across
   job counts because the execution itself is. *)
let metrics_fingerprint (m : Bsm_runtime.Engine.metrics) =
  let h = Rng.mix64 fingerprint_salt in
  let h = Rng.mix64_absorb h m.rounds_used in
  let h = Rng.mix64_absorb h m.messages_sent in
  let h = Rng.mix64_absorb h m.messages_delivered in
  let h = Rng.mix64_absorb h m.bytes_delivered in
  h

(* Within-budget fault schedules for chaos-on-live traffic: each
   charges at most R0 (and the bench's chaos workloads grant the right
   side the full spare budget t_right = k), so the oracle must answer
   [Ok] — any [Violation] is a real protocol bug. *)
let live_schedules =
  let r0 = Party_id.make Side.Right 0 in
  [
    Schedule.never;
    Schedule.during ~from_round:0 ~until_round:6
      (Schedule.send_omission ~rate:0.4 r0);
    Schedule.during ~from_round:0 ~until_round:6
      (Schedule.receive_omission ~rate:0.4 r0);
    Schedule.crash r0 ~at_round:1;
    Schedule.during ~from_round:0 ~until_round:4
      (Schedule.corrupt ~rate:0.3 ~kind:Bsm_chaos.Mutation.Bit_flip r0);
  ]

let describe_violation v = Format.asprintf "%a" Core.Problem.pp_violation v

let execute_bsm ~chaos ~chaos_seed ~max_rounds ~req_id ~k ~topology ~auth ~t_left
    ~t_right ~profile_seed ~scenario_seed ~coalition =
  match Core.Setting.make ~k ~topology ~auth ~t_left ~t_right with
  | Error msg -> Frame.Failed ("invalid setting: " ^ msg), false
  | Ok setting -> (
    let adversary = if coalition then Sweep.Random_coalition else Sweep.Honest in
    let case = Sweep.case ~profile_seed ~scenario_seed ~adversary setting in
    match Core.Select.plan setting with
    | Error _ -> Frame.Failed "unsolvable setting", false
    | Ok _ ->
      if chaos then begin
        let h = Rng.mix64_absorb (Rng.mix64 (Int64.of_int chaos_seed)) req_id in
        let pick =
          Int64.to_int (Int64.rem (Int64.logand h Int64.max_int)
                          (Int64.of_int (List.length live_schedules)))
        in
        let schedule = List.nth live_schedules pick in
        let seed = Int64.to_int (Int64.logand (Rng.mix64_absorb h 1) 0x3FFFFFFFL) in
        let report = Oracle.run ?max_rounds ~seed ~schedule case in
        match report.Oracle.verdict with
        | Oracle.Violation ->
          let detail =
            match report.Oracle.violations with
            | v :: _ -> describe_violation v
            | [] -> "unknown"
          in
          Frame.Failed ("VIOLATION: " ^ detail), true
        | Oracle.Expected_degradation ->
          Frame.Failed "degraded: fault budget exceeded", false
        | Oracle.Ok ->
          ( Frame.Matched
              {
                fingerprint = metrics_fingerprint report.Oracle.metrics;
                rounds = report.Oracle.metrics.rounds_used;
              },
            false )
      end
      else begin
        let scenario = Sweep.scenario_of_case case in
        let report = Scenario.run ?max_rounds scenario in
        match report.Scenario.violations with
        | [] ->
          ( Frame.Matched
              {
                fingerprint = metrics_fingerprint report.Scenario.metrics;
                rounds = report.Scenario.metrics.rounds_used;
              },
            false )
        | Core.Problem.Termination _ :: _ -> Frame.Timed_out, false
        | v :: _ -> Frame.Failed (describe_violation v), false
      end)

let execute ~chaos ~chaos_seed ~max_rounds (spec : Frame.spec) =
  match spec.workload with
  | Frame.Gs { k; seed; family } ->
    let s = SM.Flat.solve (SM.Flat.make ~family ~seed ~k) ~salt:fingerprint_salt in
    if not s.SM.Flat.stable then Frame.Failed "unstable matching", false
    else
      ( Frame.Matched
          { fingerprint = s.SM.Flat.fingerprint; rounds = s.SM.Flat.stats.rounds },
        false )
  | Frame.Bsm { k; topology; auth; t_left; t_right; profile_seed; scenario_seed; coalition }
    ->
    execute_bsm ~chaos ~chaos_seed ~max_rounds ~req_id:spec.req_id ~k ~topology
      ~auth ~t_left ~t_right ~profile_seed ~scenario_seed ~coalition

(* --- admission ----------------------------------------------------------- *)

let solvable (workload : Frame.workload) =
  match workload with
  | Frame.Gs _ -> true
  | Frame.Bsm { k; topology; auth; t_left; t_right; _ } -> (
    match Core.Setting.make ~k ~topology ~auth ~t_left ~t_right with
    | Error _ -> false
    | Ok setting -> Result.is_ok (Core.Select.plan setting))

let submit t ~tick (spec : Frame.spec) =
  let reject reason = Frame.Rejected { req_id = spec.req_id; reason } in
  if t.closing then reject Frame.Shutting_down
  else if Frame.workload_k spec.workload > t.config.max_k then reject Frame.Too_large
  else if Instances.mem t.instances spec.req_id || not (solvable spec.workload) then
    reject Frame.Unsolvable
  else if not (Ring.try_push t.queue spec) then reject Frame.Queue_full
  else begin
    ignore (Instances.add t.instances ~tick spec);
    Frame.Accepted { req_id = spec.req_id }
  end

(* --- scheduling ---------------------------------------------------------- *)

let tick t ~tick =
  let rec take n acc =
    if n = 0 then List.rev acc
    else
      match Ring.try_pop t.queue with
      | None -> List.rev acc
      | Some spec -> take (n - 1) (spec :: acc)
  in
  match take t.config.batch [] with
  | [] -> []
  | specs ->
    List.iter
      (fun (spec : Frame.spec) ->
        match Instances.find t.instances spec.req_id with
        | Some record -> Instances.transition t.instances record Instances.Running
        | None -> assert false)
      specs;
    let { chaos; chaos_seed; max_rounds; _ } = t.config in
    let outcomes =
      Pool.map t.pool (execute ~chaos ~chaos_seed ~max_rounds) specs
    in
    List.map2
      (fun (spec : Frame.spec) (outcome, violation) ->
        if violation then t.violations <- t.violations + 1;
        let record = Option.get (Instances.find t.instances spec.req_id) in
        Instances.finish t.instances record ~tick outcome;
        Frame.Done
          {
            req_id = spec.req_id;
            outcome;
            arrival_tick = record.Instances.arrival_tick;
            done_tick = tick;
          })
      specs outcomes
