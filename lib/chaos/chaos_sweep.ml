open Bsm_prelude
module Core = Bsm_core
module Engine = Bsm_runtime.Engine
module Sweep = Bsm_harness.Sweep
module Topology = Bsm_topology.Topology

type cell = {
  case : Sweep.case;
  schedule : Schedule.t;
  chaos_seed : int;
}

let cell ?(chaos_seed = 0) ~schedule case = { case; schedule; chaos_seed }

let grid ~cases ~schedules ~seeds =
  List.concat_map
    (fun case ->
      List.concat_map
        (fun schedule ->
          List.map (fun chaos_seed -> { case; schedule; chaos_seed }) seeds)
        schedules)
    cases

type outcome = {
  cell : cell;
  oracle : Oracle.report;
}

let run_cell c =
  { cell = c; oracle = Oracle.run ~seed:c.chaos_seed ~schedule:c.schedule c.case }

let run_cells ?pool cells = Sweep.map ?pool run_cell cells

type summary = {
  cells : int;
  ok : int;
  degraded : int;
  violated : int;
}

let summarize outcomes =
  let count v =
    List.length (List.filter (fun o -> o.oracle.Oracle.verdict = v) outcomes)
  in
  {
    cells = List.length outcomes;
    ok = count Oracle.Ok;
    degraded = count Oracle.Expected_degradation;
    violated = count Oracle.Violation;
  }

let pp_summary ppf s =
  Format.fprintf ppf "%d cells: %d ok, %d expected-degradation, %d VIOLATIONS"
    s.cells s.ok s.degraded s.violated

(* --- recovery grid ------------------------------------------------------- *)

type recovery_row = {
  rg_schedule : string;
  rg_seed : int;
  rg_cells : int;
  rg_recovered : int;
  rg_stuck : int;
  rg_violated : int;
  rg_no_scramble : int;
  rg_max_rounds : int;
  rg_mean_rounds : float;
}

(* Aggregate outcomes by (schedule, chaos_seed) across cases, keeping
   only groups where at least one run scrambled state — pure counting, so
   the grid inherits the outcomes' determinism. Input order is preserved
   (first appearance of each group). *)
let recovery_grid outcomes =
  let groups =
    List.fold_left
      (fun acc o ->
        let key = (Schedule.describe o.cell.schedule, o.cell.chaos_seed) in
        match List.assoc_opt key acc with
        | Some _ ->
          List.map (fun (k, v) -> if k = key then k, o :: v else k, v) acc
        | None -> acc @ [ key, [ o ] ])
      [] outcomes
  in
  List.filter_map
    (fun ((rg_schedule, rg_seed), os) ->
      let os = List.rev os in
      if List.for_all (fun o -> o.oracle.Oracle.recovery = None) os then None
      else begin
        let count p = List.length (List.filter p os) in
        let rounds =
          List.filter_map
            (fun o ->
              match o.oracle.Oracle.recovery with
              | Some (Oracle.Recovered n) -> Some n
              | _ -> None)
            os
        in
        Some
          {
            rg_schedule;
            rg_seed;
            rg_cells = List.length os;
            rg_recovered = List.length rounds;
            rg_stuck = count (fun o -> o.oracle.Oracle.recovery = Some Oracle.Stuck);
            rg_violated =
              count (fun o -> o.oracle.Oracle.recovery = Some Oracle.Violated);
            rg_no_scramble = count (fun o -> o.oracle.Oracle.recovery = None);
            rg_max_rounds = List.fold_left max 0 rounds;
            rg_mean_rounds =
              (match rounds with
              | [] -> 0.
              | _ ->
                float_of_int (List.fold_left ( + ) 0 rounds)
                /. float_of_int (List.length rounds));
          }
      end)
    groups

(* --- JSON ---------------------------------------------------------------- *)

let set_to_string s =
  "{" ^ String.concat "," (List.map Party_id.to_string (Party_set.elements s)) ^ "}"

let to_json ~jobs outcomes =
  let s = summarize outcomes in
  let int_opt = function Some n -> Json.Int n | None -> Json.Null in
  let run o =
    let r = o.oracle in
    let m = r.Oracle.metrics in
    Json.Obj
      [
        "case", Json.String o.cell.case.Sweep.label;
        "schedule", Json.String (Schedule.describe o.cell.schedule);
        "chaos_seed", Json.Int o.cell.chaos_seed;
        "verdict", Json.String (Oracle.verdict_to_string r.Oracle.verdict);
        "within_budget", Json.Bool r.Oracle.within_budget;
        "charged", Json.String (set_to_string r.Oracle.charged);
        "corrupted", Json.String (set_to_string r.Oracle.corrupted);
        "violations", Json.Int (List.length r.Oracle.violations);
        "rounds", Json.Int m.Engine.rounds_used;
        "sent", Json.Int m.Engine.messages_sent;
        "delivered", Json.Int m.Engine.messages_delivered;
        "dropped_topology", Json.Int m.Engine.messages_dropped_topology;
        "dropped_fault", Json.Int m.Engine.messages_dropped_fault;
        "corrupted_frames", Json.Int m.Engine.messages_corrupted;
        "cells_scrambled", Json.Int m.Engine.cells_scrambled;
        "first_scramble_round", int_opt m.Engine.first_scramble_round;
        ( "recovery",
          match r.Oracle.recovery with
          | Some rc -> Json.String (Oracle.recovery_to_string rc)
          | None -> Json.Null );
        "bytes_sent", Json.Int m.Engine.bytes_sent;
        "bytes_delivered", Json.Int m.Engine.bytes_delivered;
        ( "dropped_by_label",
          Json.Obj
            (List.map
               (fun (label, c) -> label, Json.Int c)
               m.Engine.messages_dropped_by_label) );
      ]
  in
  (* Recovery grid: one row per (schedule, chaos_seed) that scrambled
     state anywhere, aggregated over cases. tools/bench_compare looks the
     rows up by their [recovery_row] name; values are pure counts over
     deterministic outcomes, so this section is as diffable as the rest
     of the file. *)
  let recovery row =
    Json.Obj
      [
        ( "recovery_row",
          Json.String (Printf.sprintf "%s#seed%d" row.rg_schedule row.rg_seed) );
        "cells", Json.Int row.rg_cells;
        "recovered", Json.Int row.rg_recovered;
        "stuck", Json.Int row.rg_stuck;
        "violated", Json.Int row.rg_violated;
        "no_scramble", Json.Int row.rg_no_scramble;
        "max_rounds_to_recovery", Json.Int row.rg_max_rounds;
        "mean_rounds_to_recovery", Json.rounded "%.2f" row.rg_mean_rounds;
      ]
  in
  Json.Obj
    [
      "jobs", Json.Int jobs;
      (* [tasks] = one fused-scheduler task per cell. Deliberately the
         only scheduling field here: wall clocks and steal counts vary run
         to run and live in BENCH_sweeps.json, keeping this file
         bit-identical for a given grid and seeds. *)
      ( "summary",
        Json.Obj
          [
            "cells", Json.Int s.cells;
            "tasks", Json.Int s.cells;
            "ok", Json.Int s.ok;
            "expected_degradation", Json.Int s.degraded;
            "violation", Json.Int s.violated;
          ] );
      "runs", Json.List (List.map run outcomes);
      "recovery_grid", Json.List (List.map recovery (recovery_grid outcomes));
    ]

(* --- standard grids ------------------------------------------------------ *)

let setting ~k ~topology ~auth ~tl ~tr =
  Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr

(* One case per feasibility mechanism of the T-table, all with a spare
   right-side budget (t_R = k) so that single-party omission schedules on
   R0 stay admissible: Thm 2 (general phase king), Thm 5 (Dolev-Strong),
   Thms 6/7 (both Π_bSM regimes with omission-tolerant Π_BA/Π_BB), plus a
   full-budget random byzantine coalition on top of Thm 2. *)
let t_cases ~k =
  let third = max 0 ((k - 1) / 3) in
  [
    Sweep.case
      ~profile_seed:((100 * k) + 1)
      (setting ~k ~topology:Topology.Fully_connected
         ~auth:Core.Setting.Unauthenticated ~tl:third ~tr:k);
    Sweep.case
      ~profile_seed:((100 * k) + 2)
      (setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
         ~tl:k ~tr:k);
    Sweep.case
      ~profile_seed:((100 * k) + 3)
      (setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
         ~tl:third ~tr:k);
    Sweep.case
      ~profile_seed:((100 * k) + 4)
      (setting ~k ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated
         ~tl:third ~tr:k);
    Sweep.case
      ~profile_seed:((100 * k) + 5)
      ~scenario_seed:k ~adversary:Sweep.Random_coalition
      (setting ~k ~topology:Topology.Fully_connected
         ~auth:Core.Setting.Unauthenticated ~tl:third ~tr:k);
  ]

(* The schedule vocabulary under test. The omission group's first five
   charge at most {R0}, admissible in every t_cases setting; bernoulli
   and blackout are unattributable (they charge the whole roster) and
   must come back as expected degradation, never as a crash. The
   mutation group exercises the active wire adversary — every kind of
   in-flight corruption, all aimed at R0's traffic so they too charge
   only {R0} and stay admissible: whatever garbage the mutated frames
   decode to must be absorbed as byzantine-equivalent behaviour. *)
let standard_schedules ~k =
  let r0 = Party_id.right 0 in
  let rest =
    List.filter (fun p -> not (Party_id.equal p r0)) (Party_id.all ~k)
  in
  [
    Schedule.never;
    Schedule.send_omission ~rate:0.4 r0;
    Schedule.receive_omission ~rate:0.4 r0;
    Schedule.crash r0 ~at_round:1;
    Schedule.partition ~from_round:1 ~until_round:4 [ r0 ] rest;
    Schedule.bernoulli ~rate:0.15;
    Schedule.union
      (Schedule.blackout ~from_round:1 ~until_round:2)
      (Schedule.restrict_to_side Side.Left (Schedule.bernoulli ~rate:0.1));
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Bit_flip r0;
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Equivocate r0;
    Schedule.all
      [
        Schedule.corrupt ~rate:0.25 ~kind:Mutation.Replay r0;
        Schedule.corrupt ~rate:0.25 ~kind:Mutation.Truncate r0;
      ];
    Schedule.corrupt ~rate:0.3 ~kind:Mutation.Forge_sender r0;
    (* The self-stabilization group: scramble R0's registered protocol
       state between rounds and let the convergence oracle time the
       recovery. Deterministic scramble at round 1 (every cell fires)
       and a partial one at round 2 — both charge only {R0}, so the
       honest parties must still converge to bSM. *)
    Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1;
    Schedule.corrupt_state ~rate:0.6 r0 ~at_round:2;
  ]

let quick_grid () =
  let k = 2 in
  grid ~cases:(t_cases ~k) ~schedules:(standard_schedules ~k) ~seeds:[ 1 ]

let full_grid () =
  List.concat_map
    (fun k ->
      grid ~cases:(t_cases ~k) ~schedules:(standard_schedules ~k)
        ~seeds:[ 1; 2; 3 ])
    [ 2; 4 ]
