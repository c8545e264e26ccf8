(* Tests for the deterministic multicore sweep runner: the domain pool's
   ordering/exception semantics, and bit-identical parallel vs sequential
   results for scenario sweeps, attack evaluation batches and the Lemma 3
   scaling stress. This is also the tier-1 smoke test that exercises the
   pool under `dune runtest`. *)

open Bsm_prelude
module Core = Bsm_core
module SM = Bsm_stable_matching
module H = Bsm_harness
module A = Bsm_attacks
module Engine = Bsm_runtime.Engine
module Pool = Bsm_runtime.Pool
module Topology = Bsm_topology.Topology

let setting ~k ~topology ~auth ~tl ~tr =
  Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr

(* --- pool semantics ----------------------------------------------------- *)

let test_map_preserves_order () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let xs = List.init 50 Fun.id in
      Alcotest.(check (list int))
        "ordered" (List.map (fun i -> i * i) xs)
        (Pool.map pool (fun i -> i * i) xs))

let test_map_empty_and_singleton () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map pool (fun i -> i) []);
      Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map pool (fun i -> i) [ 7 ]))

let test_map_sequential_when_one_job () =
  (* jobs = 1 spawns no domain: tasks run inline on the caller, in input
     order — observable through a (caller-only) side effect. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let order = ref [] in
      let _ = Pool.map pool (fun i -> order := i :: !order) [ 1; 2; 3; 4 ] in
      Alcotest.(check (list int)) "ran in order" [ 1; 2; 3; 4 ] (List.rev !order))

let test_map_propagates_first_failure () =
  Pool.with_pool ~jobs:3 (fun pool ->
      match
        Pool.map pool
          (fun i -> if i mod 3 = 2 then failwith (string_of_int i) else i)
          (List.init 10 Fun.id)
      with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure msg ->
        Alcotest.(check string) "lowest failing index wins" "2" msg)

let test_map_after_shutdown_raises () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  match Pool.map pool (fun i -> i) [ 1; 2 ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_jobs_accessor () =
  Pool.with_pool ~jobs:2 (fun pool -> Alcotest.(check int) "jobs" 2 (Pool.jobs pool))

(* --- chunked map stress -------------------------------------------------- *)

let test_map_large_input_ordered () =
  (* Many more items than chunks: ordering must survive the chunked
     submission path. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let xs = List.init 500 Fun.id in
      Alcotest.(check (list int))
        "ordered" (List.map (fun i -> i * 7) xs)
        (Pool.map pool (fun i -> i * 7) xs))

let test_map_jobs_exceed_items () =
  (* More lanes than work: chunks degenerate to single items and the idle
     workers must neither deadlock nor duplicate. *)
  Pool.with_pool ~jobs:8 (fun pool ->
      Alcotest.(check (list int))
        "three items" [ 0; 2; 4 ]
        (Pool.map pool (fun i -> 2 * i) [ 0; 1; 2 ]))

exception Outer of string

let nested_raise i =
  (* An exception raised from within another exception's handler — the
     rethrown one must be what map reports. *)
  try failwith (string_of_int i) with Failure msg -> raise (Outer msg)

let test_map_nested_exceptions () =
  Pool.with_pool ~jobs:3 (fun pool ->
      match
        Pool.map pool
          (fun i -> if i mod 4 = 3 then nested_raise i else i)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "expected Outer"
      | exception Outer msg ->
        Alcotest.(check string) "lowest failing index, rethrown exception" "3" msg)

let test_map_exceptions_jobs1 () =
  (* The inline sequential path must have the same exception semantics as
     the parallel one: all items still run, lowest index wins. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let ran = ref 0 in
      (match
         Pool.map pool
           (fun i ->
             incr ran;
             if i >= 5 then failwith (string_of_int i))
           (List.init 10 Fun.id)
       with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure msg ->
        Alcotest.(check string) "lowest failing index" "5" msg);
      Alcotest.(check int) "every item still ran" 10 !ran)

let test_map_usable_after_failure () =
  (* A failing map must not poison the pool: workers stay alive and the
     next map succeeds. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      (match Pool.map pool (fun _ -> failwith "boom") [ 1; 2; 3 ] with
      | _ -> Alcotest.fail "expected failure"
      | exception Failure _ -> ());
      Alcotest.(check (list int))
        "pool still works" [ 2; 4; 6 ]
        (Pool.map pool (fun i -> 2 * i) [ 1; 2; 3 ]))

(* --- persistent workers & work stealing ---------------------------------- *)

(* Deterministic busy loop: per-index cost without shared state. *)
let busy_work units =
  let acc = ref 0 in
  for i = 1 to units * 1000 do
    acc := (!acc + i) land 0xFFFF
  done;
  !acc

let test_randomized_costs_all_jobs () =
  (* Bit-identity for every lane count 1..8 over tasks with randomized
     (per-index deterministic) costs — steal-order must stay invisible
     whatever the lane count. *)
  let n = 60 in
  let cost i = Rng.int (Rng.make (1000 + i)) 20 in
  let f i = i, busy_work (cost i), cost i in
  let xs = List.init n Fun.id in
  let expected = List.map f xs in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d identical" jobs)
            true
            (Pool.map pool f xs = expected)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_stats_counters () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let s0 = Pool.stats pool in
      Alcotest.(check int) "fresh pool: no tasks" 0 s0.Pool.tasks;
      let _ = Pool.map pool (fun i -> i) (List.init 10 Fun.id) in
      let _ = Pool.map pool (fun i -> i) [ 7 ] in
      let s1 = Pool.stats pool in
      Alcotest.(check int) "tasks counted (incl. singleton path)" 11 s1.Pool.tasks;
      Alcotest.(check int) "no steals on the jobs=1 path" 0 s1.Pool.steals);
  Pool.with_pool ~jobs:4 (fun pool ->
      let _ =
        Pool.map pool (fun i -> busy_work (i mod 5)) (List.init 40 Fun.id)
      in
      let _ = Pool.map pool (fun i -> i) (List.init 10 Fun.id) in
      let s = Pool.stats pool in
      Alcotest.(check int) "tasks accumulate across maps" 50 s.Pool.tasks;
      Alcotest.(check bool)
        "steals bounded by tasks" true
        (s.Pool.steals <= s.Pool.tasks))

let test_every_task_runs_once () =
  (* Result equality cannot see a task that ran twice (both runs write
     the same slot), so each task bumps its own counter. *)
  let n = 5_000 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let runs = Array.init n (fun _ -> Atomic.make 0) in
          let before = Pool.stats pool in
          let _ = Pool.map pool (fun i -> Atomic.incr runs.(i)) (List.init n Fun.id) in
          let after = Pool.stats pool in
          Array.iteri
            (fun i c ->
              if Atomic.get c <> 1 then
                Alcotest.failf "jobs=%d: task %d ran %d times" jobs i (Atomic.get c))
            runs;
          Alcotest.(check int)
            (Printf.sprintf "jobs=%d: tasks grew by n" jobs)
            n
            (after.Pool.tasks - before.Pool.tasks);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: steals bounded by tasks" jobs)
            true
            (after.Pool.steals <= after.Pool.tasks)))
    [ 2; 3; 8 ]

let test_straggler_rebalances () =
  (* One task ~100x the others. With one-cell tasks and work stealing,
     the straggler's lane-mates must not serialize behind it: idle lanes
     steal them. Assert a successful steal happened and that at least one
     of the straggler lane's other indices ran on a different domain
     (lane l owns indices l, l+jobs, ... — the submitter is lane 0).
     Bounded retries absorb scheduling variance on loaded machines. *)
  let n = 32 in
  let jobs = 4 in
  let attempt () =
    Pool.with_pool ~jobs (fun pool ->
        let owners = Array.make n (-1) in
        let _ =
          Pool.map pool
            (fun i ->
              owners.(i) <- (Domain.self () :> int);
              busy_work (if i = 0 then 20_000 else 50))
            (List.init n Fun.id)
        in
        let steals = (Pool.stats pool).Pool.steals in
        let straggler_domain = owners.(0) in
        let lane0_rest =
          List.filter (fun i -> i mod jobs = 0 && i <> 0) (List.init n Fun.id)
        in
        steals > 0
        && List.exists (fun i -> owners.(i) <> straggler_domain) lane0_rest)
  in
  let rec try_n k = attempt () || (k > 1 && try_n (k - 1)) in
  Alcotest.(check bool) "straggler's lane-mates got stolen" true (try_n 3)

(* --- fused sweep scheduler ------------------------------------------------ *)

let test_fused_matches_sequential () =
  let xs = List.init 30 Fun.id in
  let ys = [ "a"; "bb"; "ccc" ] in
  let f i = (i * i) + 1 in
  let g s = String.length s * 2 in
  Pool.with_pool ~jobs:3 (fun pool ->
      let batch = H.Sweep.Fused.create () in
      let hx = H.Sweep.Fused.add batch ~table:"squares" f xs in
      let hy = H.Sweep.Fused.add batch ~table:"lengths" g ys in
      let rs = H.Sweep.Fused.drain ~pool batch in
      Alcotest.(check (list int))
        "first table matches List.map" (List.map f xs)
        (H.Sweep.Fused.results hx);
      Alcotest.(check (list int))
        "second table matches List.map" (List.map g ys)
        (H.Sweep.Fused.results hy);
      Alcotest.(check int)
        "whole-run task count"
        (List.length xs + List.length ys)
        rs.H.Sweep.Fused.tasks;
      Alcotest.(check int) "jobs recorded" 3 rs.H.Sweep.Fused.jobs;
      let ts = H.Sweep.Fused.stats hx in
      Alcotest.(check string) "table name" "squares" ts.H.Sweep.Fused.table;
      Alcotest.(check int) "per-table task count" 30 ts.H.Sweep.Fused.tasks;
      Alcotest.(check bool)
        "worst cell bounded by total" true
        (ts.H.Sweep.Fused.task_ms_max <= ts.H.Sweep.Fused.task_ms_total +. 1e-9))

let test_fused_lifecycle_errors () =
  let batch = H.Sweep.Fused.create () in
  let h = H.Sweep.Fused.add batch ~table:"t" Fun.id [ 1; 2 ] in
  (match H.Sweep.Fused.results h with
  | _ -> Alcotest.fail "expected Invalid_argument before drain"
  | exception Invalid_argument _ -> ());
  (match H.Sweep.Fused.stats h with
  | _ -> Alcotest.fail "expected Invalid_argument before drain"
  | exception Invalid_argument _ -> ());
  let rs = H.Sweep.Fused.drain batch in
  Alcotest.(check int) "sequential drain runs the cells" 2 rs.H.Sweep.Fused.tasks;
  Alcotest.(check int) "sequential drain steals nothing" 0 rs.H.Sweep.Fused.steals;
  Alcotest.(check (list int)) "readable after drain" [ 1; 2 ] (H.Sweep.Fused.results h);
  match H.Sweep.Fused.add batch ~table:"late" Fun.id [ 3 ] with
  | _ -> Alcotest.fail "expected Invalid_argument after drain"
  | exception Invalid_argument _ -> ()

let test_fused_failure_isolates_tables () =
  (* A raising cell fails the drain with the lowest-indexed exception, but
     the other tables' results stay readable; the failed table reports its
     unfinished cells instead of returning partial data. *)
  Pool.with_pool ~jobs:2 (fun pool ->
      let batch = H.Sweep.Fused.create () in
      let good = H.Sweep.Fused.add batch ~table:"good" (fun i -> i + 1) [ 1; 2; 3 ] in
      let bad =
        H.Sweep.Fused.add batch ~table:"bad"
          (fun i -> if i = 1 then failwith "cell 1" else i)
          [ 0; 1; 2 ]
      in
      (match H.Sweep.Fused.drain ~pool batch with
      | _ -> Alcotest.fail "expected drain failure"
      | exception Failure msg ->
        Alcotest.(check string) "failing cell's exception" "cell 1" msg);
      Alcotest.(check (list int))
        "surviving table readable" [ 2; 3; 4 ]
        (H.Sweep.Fused.results good);
      match H.Sweep.Fused.results bad with
      | _ -> Alcotest.fail "expected Invalid_argument on unfinished table"
      | exception Invalid_argument _ -> ())

(* --- parallel sweeps are bit-identical to sequential -------------------- *)

(* A report rendered to plain data: everything pp_report shows plus the
   raw metrics, so equality means byte-identical tables downstream. *)
let fingerprint (report : H.Scenario.report) =
  Format.asprintf "%a" H.Scenario.pp_report report, report.H.Scenario.metrics

let sweep_cases =
  [
    H.Sweep.case ~profile_seed:11 ~scenario_seed:1
      (setting ~k:3 ~topology:Topology.Fully_connected
         ~auth:Core.Setting.Unauthenticated ~tl:0 ~tr:3);
    H.Sweep.case ~profile_seed:23 ~scenario_seed:2
      ~adversary:H.Sweep.Random_coalition
      (setting ~k:3 ~topology:Topology.Fully_connected
         ~auth:Core.Setting.Unauthenticated ~tl:0 ~tr:1);
    H.Sweep.case ~profile_seed:37 ~scenario_seed:3
      ~adversary:H.Sweep.Random_coalition
      (setting ~k:3 ~topology:Topology.Fully_connected
         ~auth:Core.Setting.Authenticated ~tl:3 ~tr:3);
    H.Sweep.case ~profile_seed:41 ~scenario_seed:4
      (setting ~k:2 ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
         ~tl:0 ~tr:2);
    H.Sweep.case ~profile_seed:53 ~scenario_seed:5
      ~adversary:H.Sweep.Random_coalition
      (setting ~k:2 ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated
         ~tl:2 ~tr:1);
  ]

let run_case c = fingerprint (H.Scenario.run (H.Sweep.scenario_of_case c))

let test_sweep_parallel_equals_sequential () =
  let sequential = H.Sweep.map run_case sweep_cases in
  let parallel =
    Pool.with_pool ~jobs:4 (fun pool -> H.Sweep.map ~pool run_case sweep_cases)
  in
  List.iteri
    (fun i ((seq_pp, seq_m), (par_pp, par_m)) ->
      Alcotest.(check string)
        (Printf.sprintf "case %d report identical" i)
        seq_pp par_pp;
      Alcotest.(check bool)
        (Printf.sprintf "case %d metrics identical" i)
        true (seq_m = par_m))
    (List.combine sequential parallel)

let test_sweep_repeated_runs_identical () =
  (* The same parallel sweep twice: domain scheduling must not leak into
     results. *)
  let run () =
    Pool.with_pool ~jobs:3 (fun pool -> H.Sweep.map ~pool run_case sweep_cases)
  in
  Alcotest.(check bool) "two parallel runs identical" true (run () = run ())

let test_scenario_run_parallel () =
  let scenarios = List.map H.Sweep.scenario_of_case sweep_cases in
  let run t = fingerprint (H.Scenario.run t) in
  let sequential = H.Sweep.map run scenarios in
  let parallel = Pool.with_pool ~jobs:2 (fun pool -> H.Sweep.map ~pool run scenarios) in
  Alcotest.(check bool) "Scenario.run identical" true (sequential = parallel)

let test_evaluate_run_parallel () =
  let k = 3 in
  let topology = Topology.Fully_connected in
  let cases =
    List.map
      (fun seed ->
        let rng = Rng.make seed in
        let favorites = Core.Ssm.random_favorites rng ~k in
        let byzantine =
          [ Party_id.left 2, A.Naive.equivocating_announcer ~topology ~k ]
        in
        favorites, byzantine)
      (Util.range 1 7)
  in
  let protocol =
    A.Protocol_under_test.thresholded
      ~setting:
        (setting ~k ~topology ~auth:Core.Setting.Unauthenticated ~tl:1 ~tr:1)
  in
  let run (favorites, byzantine) =
    A.Evaluate.run ~topology ~k ~favorites ~byzantine protocol
  in
  let sequential = H.Sweep.map run cases in
  let parallel = Pool.with_pool ~jobs:3 (fun pool -> H.Sweep.map ~pool run cases) in
  Alcotest.(check bool) "violation lists identical" true (sequential = parallel);
  Alcotest.(check int) "six cases evaluated" 6 (List.length parallel);
  List.iter
    (fun vs -> Alcotest.(check bool) "in-threshold protocol clean" true (vs = []))
    parallel

let test_scaling_stress_parallel () =
  let big =
    A.Protocol_under_test.thresholded
      ~setting:
        (setting ~k:4 ~topology:Topology.Fully_connected
           ~auth:Core.Setting.Unauthenticated ~tl:1 ~tr:1)
  in
  let stress pool =
    A.Scaling.stress ?pool ~topology:Topology.Fully_connected ~big_k:4
      ~small_ks:[ 2; 4 ] ~seeds:[ 1; 2 ] big
  in
  let sequential = stress None in
  let parallel = Pool.with_pool ~jobs:2 (fun pool -> stress (Some pool)) in
  Alcotest.(check bool) "stress results identical" true (sequential = parallel);
  List.iter
    (fun (small_k, seed, violations) ->
      Alcotest.(check bool)
        (Printf.sprintf "no violation at small_k=%d seed=%d" small_k seed)
        true (violations = []))
    parallel

(* --- T-scale harness (Scale) --- *)

let scale_row : H.Scale.row = { k = 200; seed = 17; family = SM.Flat.Uniform }

let scale_row_common : H.Scale.row =
  { k = 150; seed = 23; family = SM.Flat.Common_acceptors }

(* The deterministic projection of a result: everything but wall clocks. *)
let scale_det (r : H.Scale.result) =
  ( r.row,
    r.stats,
    r.blocking_gs,
    r.blocking_perturbed,
    r.stable,
    r.eps_min,
    r.fingerprint )

let test_scale_row_parallel_equals_sequential () =
  List.iter
    (fun row ->
      let p = H.Scale.prepare row in
      (* run_row itself asserts shard-count identity when given a pool;
         we additionally check the assembled deterministic fields. *)
      let seq = H.Scale.run_row p in
      let par = Pool.with_pool ~jobs:3 (fun pool -> H.Scale.run_row ~pool p) in
      Alcotest.(check bool)
        (Printf.sprintf "%s deterministic fields identical" (H.Scale.label row))
        true
        (scale_det seq = scale_det par);
      Alcotest.(check bool)
        (Printf.sprintf "%s GS output stable" (H.Scale.label row))
        true seq.stable;
      Alcotest.(check bool)
        (Printf.sprintf "%s perturbation exposes blocking pairs"
           (H.Scale.label row))
        true
        (seq.blocking_perturbed > 0))
    [ scale_row; scale_row_common ]

let test_scale_shard_counts_partition () =
  let p = H.Scale.prepare scale_row in
  let counts = List.map (H.Scale.run_cell p) (H.Scale.cells p) in
  Alcotest.(check int)
    "2 * shards cells" (2 * H.Scale.shards) (List.length counts);
  let r = H.Scale.run_row p in
  let gs_sum, pert_sum =
    List.fold_left2
      (fun (g, q) (c : H.Scale.cell) n ->
        match c.target with
        | H.Scale.Gs -> g + n, q
        | H.Scale.Perturbed -> g, q + n)
      (0, 0) (H.Scale.cells p) counts
  in
  Alcotest.(check int) "gs shards sum" r.blocking_gs gs_sum;
  Alcotest.(check int) "perturbed shards sum" r.blocking_perturbed pert_sum

let test_scale_repeat_runs_identical () =
  let run () =
    Pool.with_pool ~jobs:2 (fun pool ->
        List.map scale_det
          (List.map
             (fun row -> H.Scale.run_row ~pool (H.Scale.prepare row))
             [ scale_row; scale_row_common ]))
  in
  Alcotest.(check bool) "two runs identical" true (run () = run ())

(* The deterministic fields of the two quick (k = 10³) rows, as the
   permutation-per-probe implementation computed them: (proposals,
   rounds, blocking_gs, stable, blocking_perturbed, eps_min,
   fingerprint). *)
let test_scale_quick_rows_pinned () =
  let pinned =
    [
      6599, 1105, 0, true, 2529, 2.529e-03, 0xa4b6d8e7476f9c5fL;
      6835, 582, 0, true, 8117, 8.117e-03, 0xd4dab0697b27b852L;
    ]
  in
  List.iter2
    (fun row (proposals, rounds, blocking_gs, stable, blocking_perturbed, eps_min, fp) ->
      let r = H.Scale.run_row (H.Scale.prepare row) in
      let name = H.Scale.label row in
      Alcotest.(check int) (name ^ " proposals") proposals r.stats.proposals;
      Alcotest.(check int) (name ^ " rounds") rounds r.stats.rounds;
      Alcotest.(check int) (name ^ " blocking_gs") blocking_gs r.blocking_gs;
      Alcotest.(check bool) (name ^ " stable") stable r.stable;
      Alcotest.(check int) (name ^ " blocking_perturbed") blocking_perturbed
        r.blocking_perturbed;
      Alcotest.(check string) (name ^ " eps_min") (Printf.sprintf "%.3e" eps_min)
        (Printf.sprintf "%.3e" r.eps_min);
      Alcotest.(check int64) (name ^ " fingerprint") fp r.fingerprint)
    (H.Scale.rows H.Scale.Quick) pinned

let test_scale_json_schema () =
  let results =
    List.map
      (fun row -> H.Scale.run_row (H.Scale.prepare row))
      [ scale_row; scale_row_common ]
  in
  (* Read the printed report back the way bench_compare does: records by
     key, not by layout. *)
  let json =
    match Json.of_string (Json.to_string (H.Scale.to_json ~jobs:1 results)) with
    | Ok v -> v
    | Error e ->
      Alcotest.failf "BENCH_scale does not parse: %s" (Json.error_to_string e)
  in
  Alcotest.(check bool) "jobs" true (Json.member "jobs" json = Some (Json.Int 1));
  let rows =
    match Json.member "rows" json with
    | Some (Json.List rows) -> rows
    | _ -> Alcotest.fail "no rows list"
  in
  List.iter2
    (fun (r : H.Scale.result) row ->
      let label = H.Scale.label r.H.Scale.row in
      Alcotest.(check bool)
        (Printf.sprintf "row name for %s" label)
        true
        (Json.member "row" row = Some (Json.String label));
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: key %s present" label key)
            true
            (Json.member key row <> None))
        [
          "proposals"; "rounds"; "blocking_gs"; "stable"; "blocking_perturbed";
          "eps_min"; "fingerprint"; "gs_ms"; "verify_sequential_ms";
          "verify_parallel_ms";
        ];
      Alcotest.(check bool)
        (Printf.sprintf "%s: blocking_perturbed" label)
        true
        (Json.member "blocking_perturbed" row
        = Some (Json.Int r.H.Scale.blocking_perturbed)))
    results rows

(* [measure] counts words exactly on the calling domain: one honest op
   per mechanism, run three times on one domain, allocates the same minor
   and the same major words on its second and third runs (the first grows
   the domain's engine planes). Under [Gc.quick_stat] the minor count
   moved in steps of ~115k words with the minor collections inside the
   op, and the major count with the words those collections promoted. *)
let test_measure_repeats_warm_op () =
  let setting topology auth ~tl ~tr =
    Core.Setting.make_exn ~k:4 ~topology ~auth ~t_left:tl ~t_right:tr
  in
  List.iter
    (fun s ->
      let op () =
        H.Scenario.run
          (H.Sweep.scenario_of_case (H.Sweep.case ~profile_seed:1 ~scenario_seed:1 s))
      in
      let run () = snd (H.Sweep.measure op) in
      let second, third =
        Domain.join
          (Domain.spawn (fun () ->
               ignore (run ());
               let second = run () in
               second, run ()))
      in
      let name = Format.asprintf "%a" Core.Setting.pp s in
      Alcotest.(check (float 0.)) (name ^ ": minor words") second.H.Sweep.minor_words
        third.H.Sweep.minor_words;
      Alcotest.(check (float 0.)) (name ^ ": major words") second.H.Sweep.major_words
        third.H.Sweep.major_words)
    [
      setting Topology.Fully_connected Core.Setting.Unauthenticated ~tl:1 ~tr:4;
      setting Topology.Fully_connected Core.Setting.Authenticated ~tl:4 ~tr:4;
      setting Topology.Bipartite Core.Setting.Authenticated ~tl:1 ~tr:4;
      setting Topology.One_sided Core.Setting.Unauthenticated ~tl:0 ~tr:1;
      setting Topology.One_sided Core.Setting.Authenticated ~tl:1 ~tr:3;
    ]

let () =
  Alcotest.run "sweep"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
          Alcotest.test_case "empty and singleton" `Quick test_map_empty_and_singleton;
          Alcotest.test_case "jobs=1 runs inline in order" `Quick
            test_map_sequential_when_one_job;
          Alcotest.test_case "first failure propagates" `Quick
            test_map_propagates_first_failure;
          Alcotest.test_case "map after shutdown raises" `Quick
            test_map_after_shutdown_raises;
          Alcotest.test_case "jobs accessor" `Quick test_jobs_accessor;
          Alcotest.test_case "large input stays ordered" `Quick
            test_map_large_input_ordered;
          Alcotest.test_case "jobs exceed items" `Quick test_map_jobs_exceed_items;
          Alcotest.test_case "nested exceptions" `Quick test_map_nested_exceptions;
          Alcotest.test_case "exceptions on jobs=1 path" `Quick
            test_map_exceptions_jobs1;
          Alcotest.test_case "pool usable after failed map" `Quick
            test_map_usable_after_failure;
          Alcotest.test_case "randomized costs identical for jobs 1..8" `Quick
            test_randomized_costs_all_jobs;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "every task runs exactly once" `Quick
            test_every_task_runs_once;
          Alcotest.test_case "straggler's lane rebalances via steals" `Quick
            test_straggler_rebalances;
        ] );
      ( "fused",
        [
          Alcotest.test_case "fused tables match sequential" `Quick
            test_fused_matches_sequential;
          Alcotest.test_case "lifecycle errors" `Quick test_fused_lifecycle_errors;
          Alcotest.test_case "failure isolates tables" `Quick
            test_fused_failure_isolates_tables;
          Alcotest.test_case "measure repeats a warm op" `Quick
            test_measure_repeats_warm_op;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel sweep == sequential sweep" `Quick
            test_sweep_parallel_equals_sequential;
          Alcotest.test_case "parallel sweep repeatable" `Quick
            test_sweep_repeated_runs_identical;
          Alcotest.test_case "Scenario.run parallel == sequential" `Quick
            test_scenario_run_parallel;
          Alcotest.test_case "Evaluate.run parallel == sequential" `Quick
            test_evaluate_run_parallel;
          Alcotest.test_case "Scaling.stress parallel == sequential" `Quick
            test_scaling_stress_parallel;
        ] );
      ( "scale",
        [
          Alcotest.test_case "row parallel == sequential" `Quick
            test_scale_row_parallel_equals_sequential;
          Alcotest.test_case "shard counts partition the row" `Quick
            test_scale_shard_counts_partition;
          Alcotest.test_case "repeat runs identical" `Quick
            test_scale_repeat_runs_identical;
          Alcotest.test_case "JSON schema matches bench_compare scanner" `Quick
            test_scale_json_schema;
          Alcotest.test_case "quick rows pinned" `Quick test_scale_quick_rows_pinned;
        ] );
    ]
