(* Benchmark & experiment harness.

   Running `dune exec bench/main.exe` regenerates, in order:

   - T1: the solvability matrix, validated by protocol execution on every
     solvable setting and by the executable characterization elsewhere;
   - T2: round complexity — closed-form schedule vs engine measurements;
   - T3: communication complexity — Gale-Shapley proposal counts and
     per-protocol message/byte costs as k grows;
   - A1: ablation — Lemma 1 BB-pipeline vs Π_bSM in the bipartite
     authenticated setting;
   - A2: ablation — majority-proxy (Lemma 6) vs signature-proxy (Lemma 8)
     channel simulation;
   - microbenchmarks (Bechamel): wall-clock costs of the core algorithms
     and full protocol executions.

   Every table is a sweep of independent protocol executions, so each is
   run twice: sequentially, then in parallel across the persistent
   domain pool (`Bsm_harness.Sweep` over `Bsm_runtime.Pool`). The two result sets must be identical — the
   harness fails loudly if they diverge — and the wall-clocks are
   recorded in BENCH_sweeps.json so the perf trajectory is tracked
   across PRs. The parallel pass is *fused*: all tables' cells (chaos
   grid and T-scale included) enter one shared task graph with a single
   drain point, so no table pays a barrier behind another table's
   straggler cell. Parallelism comes from --jobs, else the machine's
   recommended domain count.

   Usage: main.exe [--quick] [--jobs N | -j N]; anything else is an
   error (exit 2).

   EXPERIMENTS.md records paper-vs-measured for each table. *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module H = Bsm_harness
module Engine = Bsm_runtime.Engine
module Pool = Bsm_runtime.Pool
module Topology = Bsm_topology.Topology
module Crypto = Bsm_crypto.Crypto
module Chaos = Bsm_chaos

let setting ~k ~topology ~auth ~tl ~tr =
  Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr

(* ------------------------------------------------- sweep bookkeeping -- *)

(* `--quick` trims every table to its smallest k (and fewest seeds) and
   skips the microbenchmarks: a < 30 s end-to-end exercise of the whole
   perf plumbing, wired into `make ci` as `make bench-quick`. *)
let quick = ref false

(* Every table registers its cells into one shared `Sweep.Fused` task
   graph [sched]; nothing parallel runs until the single drain point,
   after which each table reads its results back. The drain is shared,
   so a table has no parallel wall-clock of its own: its parallel cost
   is per-task attribution — summed task wall (≈ its CPU cost), its
   worst cell (the straggler a per-table barrier would wait for) and GC
   words. *)
type sweep_record = {
  sweep_table : string;
  sweep_cells : int;
  sweep_k_range : string;
  sweep_seq : H.Sweep.measurement;
  sweep_fused : H.Sweep.Fused.table_stats;
}

let sweep_records : sweep_record list ref = ref []

(* Run the sequential pass now (its results are the reference), register
   the parallel pass with [sched], and return a getter to be called from
   the table's renderer, after the drain point. The getter asserts the
   parallel results are bit-identical to the sequential ones (cells must
   return plain data) and records both costs. *)
let sweep ~sched ~table ~k_range f cells =
  let seq, seq_m = H.Sweep.measure (fun () -> List.map f cells) in
  let handle = H.Sweep.Fused.add sched ~table f cells in
  fun () ->
    let par = H.Sweep.Fused.results handle in
    if seq <> par then
      failwith (table ^ ": fused parallel sweep diverged from the sequential results");
    sweep_records :=
      {
        sweep_table = table;
        sweep_cells = List.length cells;
        sweep_k_range = k_range;
        sweep_seq = seq_m;
        sweep_fused = H.Sweep.Fused.stats handle;
      }
      :: !sweep_records;
    par

(* Total sequential wall across all recorded sweeps — the numerator of
   the whole-run speedup. *)
let total_sequential_ms () =
  List.fold_left
    (fun acc r -> acc +. r.sweep_seq.H.Sweep.wall_ms)
    0. !sweep_records

let whole_run_speedup (rs : H.Sweep.Fused.run_stats) =
  let par_ms = rs.H.Sweep.Fused.wall_ms in
  if par_ms > 0. then total_sequential_ms () /. par_ms else 0.

(* The host's part in the speedup gate. An allocation-free integer loop
   is timed alone on one domain, then on two domains at once; 2·t₁/t₂ is
   the speedup the host grants perfectly parallel work in that window:
   ~2 when two domains get two CPUs, ~1 when a shared host gives them
   one CPU's worth of time between them. Timed right after the fused
   drain, so a low whole-run speedup beside a ratio near 1 is the host's
   doing, not the program's. *)
let host_kernel () =
  let x = ref 0x2545F491 in
  for _ = 1 to 30_000_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  ignore (Sys.opaque_identity !x)

let host_parallel () =
  let timed () =
    let t0 = Unix.gettimeofday () in
    host_kernel ();
    Unix.gettimeofday () -. t0
  in
  let alone = timed () in
  let go = Atomic.make false in
  let paired () =
    while not (Atomic.get go) do Domain.cpu_relax () done;
    timed ()
  in
  let other = Domain.spawn paired in
  Atomic.set go true;
  let mine = paired () in
  let both = Float.max mine (Domain.join other) in
  2. *. alone /. both

let sweeps_json ~jobs ~host_parallel (rs : H.Sweep.Fused.run_stats) =
  let ms = Json.rounded "%.3f" in
  let words w = Json.Int (int_of_float w) in
  let record r =
    let seq = r.sweep_seq and ts = r.sweep_fused in
    Json.Obj
      [
        "table", Json.String r.sweep_table;
        "cells", Json.Int r.sweep_cells;
        "k_range", Json.String r.sweep_k_range;
        "sequential_ms", ms seq.H.Sweep.wall_ms;
        "fused_task_ms", ms ts.H.Sweep.Fused.task_ms_total;
        "fused_task_max_ms", ms ts.H.Sweep.Fused.task_ms_max;
        "fused_minor_words", words ts.H.Sweep.Fused.minor_words;
        "fused_major_words", words ts.H.Sweep.Fused.major_words;
        "seq_minor_words", words seq.H.Sweep.minor_words;
        "seq_major_words", words seq.H.Sweep.major_words;
        "seq_minor_gcs", Json.Int seq.H.Sweep.minor_collections;
        "seq_major_gcs", Json.Int seq.H.Sweep.major_collections;
      ]
  in
  Json.Obj
    [
      "jobs", Json.Int jobs;
      "recommended_domains", Json.Int (Domain.recommended_domain_count ());
      (* The whole-run block is the number that reflects multicore
         scaling: the one drain overlaps every table's cells. *)
      ( "whole_run",
        Json.Obj
          [
            "sequential_ms", ms (total_sequential_ms ());
            "parallel_ms", ms rs.H.Sweep.Fused.wall_ms;
            "speedup", ms (whole_run_speedup rs);
            "host_parallel", ms host_parallel;
            "tasks", Json.Int rs.H.Sweep.Fused.tasks;
            "steals", Json.Int rs.H.Sweep.Fused.steals;
          ] );
      "sweeps", Json.List (List.rev_map record !sweep_records);
    ]

(* ------------------------------------------------------------------ T1 -- *)

(* Each table function registers its sweep(s) with [sched] immediately
   (which also runs the sequential reference pass) and returns a
   renderer thunk; the driver calls the renderers after the drain point,
   in registration order. *)

let table_t1 ~sched () =
  let k = 3 in
  let table =
    Table.make
      ~title:
        (Printf.sprintf
           "T1: solvability matrix, k = %d (every solvable cell validated by a \
            byzantine run at full corruption budget)"
           k)
      ~header:
        [ "topology"; "auth"; "theorem"; "cells"; "solvable"; "validated"; "impossible" ]
  in
  let combos =
    List.concat_map
      (fun topology ->
        List.map
          (fun auth -> topology, auth)
          [ Core.Setting.Unauthenticated; Core.Setting.Authenticated ])
      Topology.all
  in
  let cells =
    List.concat_map
      (fun (topology, auth) ->
        List.concat_map
          (fun tl ->
            List.map (fun tr -> topology, auth, tl, tr) (Util.range 0 (k + 1)))
          (Util.range 0 (k + 1)))
      combos
  in
  let get_results =
    sweep ~sched ~table:"T1 solvability matrix" ~k_range:"k=3"
      (fun (topology, auth, tl, tr) ->
        let s = setting ~k ~topology ~auth ~tl ~tr in
        let verdict = Core.Solvability.decide s in
        let validated =
          verdict.Core.Solvability.solvable
          &&
          let case =
            H.Sweep.case
              ~profile_seed:((tl * 100) + tr)
              ~scenario_seed:tl ~adversary:H.Sweep.Random_coalition s
          in
          H.Scenario.ok (H.Scenario.run (H.Sweep.scenario_of_case case))
        in
        verdict.Core.Solvability.solvable, validated, verdict.Core.Solvability.theorem)
      cells
  in
  fun () ->
  let tagged = List.combine cells (get_results ()) in
  List.iter
    (fun (topology, auth) ->
      let mine =
        List.filter_map
          (fun ((t, a, _, _), r) -> if t = topology && a = auth then Some r else None)
          tagged
      in
      let cells_n = List.length mine in
      let solvable = List.length (List.filter (fun (s, _, _) -> s) mine) in
      let validated = List.length (List.filter (fun (_, v, _) -> v) mine) in
      let theorem =
        match List.rev mine with
        | (_, _, theorem) :: _ -> theorem
        | [] -> ""
      in
      Table.add_row table
        [
          Topology.to_string topology;
          Core.Setting.auth_to_string auth;
          theorem;
          string_of_int cells_n;
          string_of_int solvable;
          string_of_int validated;
          string_of_int (cells_n - solvable);
        ])
    combos;
  Table.print table

(* ------------------------------------------------------------------ T2 -- *)

(* An honest run of a setting, profile drawn from the conventional
   17·k seed — now phrased as a sweep cell. *)
let honest_case s = H.Sweep.case ~profile_seed:(17 * s.Core.Setting.k) s
let honest_run s = H.Scenario.run (H.Sweep.scenario_of_case (honest_case s))

let table_t2 ~sched () =
  let table =
    Table.make
      ~title:
        "T2: round complexity — planned schedule (Delta_King = 3(t+1), Delta_BA = \
         Delta_King+1, Delta_BB = Delta_BA+1, Dolev-Strong = t+1, channel stride \
         1 or 2) vs measured"
      ~header:[ "setting"; "planned rounds"; "measured rounds" ]
  in
  let cases k =
    let third = max 0 ((k - 1) / 3) and half = max 0 ((k - 1) / 2) in
    [
      setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Unauthenticated
        ~tl:third ~tr:k;
      setting ~k ~topology:Topology.One_sided ~auth:Core.Setting.Unauthenticated
        ~tl:third ~tr:half;
      setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
        ~tl:k ~tr:k;
      setting ~k ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated ~tl:k
        ~tr:(k - 1);
      setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
        ~tl:third ~tr:k;
    ]
  in
  let cells = List.concat_map cases (if !quick then [ 2 ] else [ 2; 4; 6 ]) in
  let get_rows =
    sweep ~sched ~table:"T2 round complexity" ~k_range:"k=2..6"
      (fun s ->
        let report = honest_run s in
        [
          Format.asprintf "%a" Core.Setting.pp s;
          string_of_int report.H.Scenario.plan.Core.Select.engine_rounds;
          string_of_int report.H.Scenario.metrics.Engine.rounds_used;
        ])
      cells
  in
  fun () ->
    List.iter (Table.add_row table) (get_rows ());
    Table.print table

(* ------------------------------------------------------------------ T3 -- *)

let table_t3_gs ~sched () =
  let table =
    Table.make
      ~title:
        "T3a: Gale-Shapley proposal counts — random profiles vs the Theta(k^2) \
         worst case (identical preferences)"
      ~header:[ "k"; "random (mean of 5)"; "worst case"; "k(k+1)/2" ]
  in
  let get_rows =
    sweep ~sched ~table:"T3a Gale-Shapley proposals" ~k_range:"k=10..160"
      (fun k ->
        let rng = Rng.make k in
        let random_mean =
          let total = ref 0 in
          for _ = 1 to 5 do
            let _, stats = SM.Gale_shapley.run_with_stats (SM.Profile.random rng k) in
            total := !total + stats.SM.Gale_shapley.proposals
          done;
          !total / 5
        in
        let _, worst = SM.Gale_shapley.run_with_stats (SM.Profile.worst_case k) in
        [
          string_of_int k;
          string_of_int random_mean;
          string_of_int worst.SM.Gale_shapley.proposals;
          string_of_int (k * (k + 1) / 2);
        ])
      (if !quick then [ 10 ] else [ 10; 20; 40; 80; 160 ])
  in
  fun () ->
    List.iter (Table.add_row table) (get_rows ());
    Table.print table

let table_t3_protocols ~sched () =
  let table =
    Table.make
      ~title:
        "T3b: protocol communication cost per honest execution (predicted = \
         closed-form model in Bsm_core.Complexity; bytes = delivered payload \
         bytes)"
      ~header:[ "setting"; "k"; "messages"; "predicted"; "bytes"; "bytes/party" ]
  in
  let cases k =
    let third = max 0 ((k - 1) / 3) in
    [
      setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Unauthenticated
        ~tl:third ~tr:k;
      setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
        ~tl:k ~tr:k;
      setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
        ~tl:third ~tr:k;
    ]
  in
  let cells = List.concat_map cases (if !quick then [ 2 ] else [ 2; 4; 6; 8 ]) in
  let get_rows =
    sweep ~sched ~table:"T3b protocol communication" ~k_range:"k=2..8"
      (fun s ->
        let k = s.Core.Setting.k in
        let report = honest_run s in
        let m = report.H.Scenario.metrics in
        [
          Format.asprintf "%a" Core.Setting.pp s;
          string_of_int k;
          string_of_int m.Engine.messages_sent;
          string_of_int (Core.Complexity.predicted_messages s);
          string_of_int m.Engine.bytes_delivered;
          string_of_int (m.Engine.bytes_delivered / (2 * k));
        ])
      cells
  in
  fun () ->
    List.iter (Table.add_row table) (get_rows ());
    Table.print table

let table_t3_distributed_gs ~sched () =
  let table =
    Table.make
      ~title:
        "T3c: fault-free distributed Gale-Shapley (proposals = boolean-query \
         proxy; Omega(n^2) lower bound context) — random vs correlated vs \
         identical preferences"
      ~header:[ "k"; "profile"; "proposals"; "messages"; "active rounds <= 2k^2+2" ]
  in
  let cells =
    List.concat_map
      (fun k -> [ k, `Random; k, `Correlated; k, `Identical ])
      (if !quick then [ 8 ] else [ 8; 16; 32 ])
  in
  let get_rows =
    sweep ~sched ~table:"T3c distributed Gale-Shapley" ~k_range:"k=8..32"
      (fun (k, kind) ->
        let name, profile =
          match kind with
          | `Random -> "random", SM.Profile.random (Rng.make k) k
          | `Correlated ->
            "correlated (5 swaps)", SM.Profile.similar (Rng.make k) ~swaps:5 k
          | `Identical -> "identical (worst case)", SM.Profile.worst_case k
        in
        let _, metrics, proposals = Core.Distributed_gs.run profile in
        [
          string_of_int k;
          name;
          string_of_int proposals;
          string_of_int metrics.Engine.messages_sent;
          string_of_int metrics.Engine.rounds_used;
        ])
      cells
  in
  fun () ->
    List.iter (Table.add_row table) (get_rows ());
    Table.print table

(* ------------------------------------------------------------------ A1 -- *)

(* Run a given program assignment honestly and return metrics. *)
let run_programs ~k ~topology programs =
  let cfg = Engine.config ~k ~link:(Engine.Of_topology topology) () in
  let res = Engine.run cfg ~programs in
  List.iter
    (fun (r : Engine.party_result) ->
      match r.Engine.status with
      | Engine.Terminated -> ()
      | Engine.Out_of_rounds | Engine.Crashed _ ->
        failwith
          (Printf.sprintf "bench: %s did not terminate" (Party_id.to_string r.Engine.id)))
    res.Engine.parties;
  res.Engine.metrics

let table_a1 ~sched () =
  let table =
    Table.make
      ~title:
        "A1: ablation — Lemma 1 BB pipeline vs Pi_bSM (bipartite, authenticated, \
         tL = floor((k-1)/3)); Pi_bSM pays rounds and bytes for surviving tR = k"
      ~header:[ "k"; "mechanism"; "tolerates"; "rounds"; "messages"; "bytes" ]
  in
  let get_row_pairs =
    sweep ~sched ~table:"A1 BB pipeline vs Pi_bSM" ~k_range:"k=3..6"
      (fun k ->
        let third = max 0 ((k - 1) / 3) in
        let rng = Rng.make (k * 7) in
        let profile = SM.Profile.random rng k in
        let pki = Crypto.Pki.setup ~k ~seed:k in
        let bb_setting =
          setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
            ~tl:third ~tr:(k - 1)
        in
        let bb_metrics =
          run_programs ~k ~topology:Topology.Bipartite (fun p ->
              Core.Bb_based.program bb_setting ~pki
                ~input:(SM.Profile.prefs profile p) ~self:p)
        in
        let pi_setting =
          setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
            ~tl:third ~tr:k
        in
        let pi_metrics =
          run_programs ~k ~topology:Topology.Bipartite (fun p ->
              Core.Pi_bsm.program pi_setting ~pki ~computing_side:Side.Left
                ~input:(SM.Profile.prefs profile p) ~self:p)
        in
        let row name tolerates (m : Engine.metrics) =
          [
            string_of_int k;
            name;
            tolerates;
            string_of_int m.Engine.rounds_used;
            string_of_int m.Engine.messages_sent;
            string_of_int m.Engine.bytes_delivered;
          ]
        in
        [
          row "BB pipeline (Lemma 1)" "tR < k" bb_metrics;
          row "Pi_bSM (Sec 5.2)" "tR = k" pi_metrics;
        ])
      (if !quick then [ 3 ] else [ 3; 4; 6 ])
  in
  fun () ->
    List.iter (List.iter (Table.add_row table)) (get_row_pairs ());
    Table.print table

(* ------------------------------------------------------------------ A2 -- *)

let table_a2 ~sched () =
  let table =
    Table.make
      ~title:
        "A2: ablation — majority proxy (Lemma 6) vs signature proxy (Lemma 8) on \
         the one-sided topology (BB pipeline underneath)"
      ~header:[ "k"; "channel simulation"; "needs"; "rounds"; "messages"; "bytes" ]
  in
  let cells =
    List.concat_map
      (fun k ->
        let third = max 0 ((k - 1) / 3) and half = max 0 ((k - 1) / 2) in
        [
          ( k,
            "majority proxy",
            "tR < k/2",
            setting ~k ~topology:Topology.One_sided ~auth:Core.Setting.Unauthenticated
              ~tl:third ~tr:half );
          ( k,
            "signature proxy",
            "tR < k",
            setting ~k ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated
              ~tl:k ~tr:(k - 1) );
        ])
      (if !quick then [ 3 ] else [ 3; 5; 7 ])
  in
  let get_rows =
    sweep ~sched ~table:"A2 channel simulation" ~k_range:"k=3..7"
      (fun (k, name, needs, s) ->
        let r = honest_run s in
        let m = r.H.Scenario.metrics in
        [
          string_of_int k;
          name;
          needs;
          string_of_int m.Engine.rounds_used;
          string_of_int m.Engine.messages_sent;
          string_of_int m.Engine.bytes_delivered;
        ])
      cells
  in
  fun () ->
    List.iter (Table.add_row table) (get_rows ());
    Table.print table

(* ------------------------------------------------------------------ A3 -- *)

module Attacks = Bsm_attacks

let table_a3 ~sched () =
  let table =
    Table.make
      ~title:
        "A3: byzantine tolerance pays — naive flood-and-compute vs the selected \
         protocol under equivocating byzantine parties (fully-connected, \
         unauthenticated, k = 4, tL = tR = 1, 30 seeds; sSM instances)"
      ~header:[ "protocol"; "runs"; "violated runs"; "violation rate" ]
  in
  let k = 4 in
  let topology = Topology.Fully_connected in
  let runs = if !quick then 5 else 30 in
  let seeds = Util.range 1 (runs + 1) in
  (* Both protocol sweeps register into the shared graph before either
     renders — their cells interleave with every other table's. *)
  let register name protocol =
    sweep ~sched
      ~table:(Printf.sprintf "A3 equivocation (%s)" name)
      ~k_range:"k=4"
      (fun seed ->
        let rng = Rng.make seed in
        let favorites = Attacks.Evaluate.random_favorites rng ~k in
        let byzantine =
          [
            Party_id.left 3, Attacks.Naive.equivocating_announcer ~topology ~k;
            Party_id.right 2, Attacks.Naive.equivocating_announcer ~topology ~k;
          ]
        in
        Attacks.Evaluate.run ~topology ~k ~favorites ~byzantine protocol <> [])
      seeds
  in
  let naive_name = "naive flood-and-compute" in
  let get_naive = register naive_name Attacks.Protocol_under_test.naive in
  let bb_name = "BB pipeline (ours)" in
  let get_bb =
    register bb_name
      (Attacks.Protocol_under_test.thresholded
         ~setting:
           (setting ~k ~topology ~auth:Core.Setting.Unauthenticated ~tl:1 ~tr:1))
  in
  let getters = [ naive_name, get_naive; bb_name, get_bb ] in
  fun () ->
    List.iter
      (fun (name, get_violated) ->
        let bad = List.length (List.filter Fun.id (get_violated ())) in
        Table.add_row table
          [
            name;
            string_of_int runs;
            string_of_int bad;
            Printf.sprintf "%.0f%%" (Stats.rate bad runs);
          ])
      getters;
    Table.print table

(* ------------------------------------------------------------------ A4 -- *)

let table_a4 ~sched () =
  let table =
    Table.make
      ~title:
        "A4: ablation — Pi_bSM cost vs corruption budget tL (k = 7, bipartite \
         authenticated, tR = k); rounds grow linearly in the king count tL+1, \
         bytes over 5 random profiles"
      ~header:[ "tL"; "kings"; "rounds"; "messages"; "bytes mean"; "bytes sd" ]
  in
  let k = 7 in
  let tls = if !quick then [ 0 ] else [ 0; 1; 2 ] in
  let seeds = Util.range 1 (if !quick then 4 else 6) in
  let cells = List.concat_map (fun tl -> List.map (fun seed -> tl, seed) seeds) tls in
  let get_results =
    sweep ~sched ~table:"A4 Pi_bSM vs budget" ~k_range:"k=7"
      (fun (tl, seed) ->
        let s =
          setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
            ~tl ~tr:k
        in
        let case =
          H.Sweep.case ~profile_seed:(seed * 37) ~scenario_seed:seed s
        in
        let m =
          (H.Scenario.run (H.Sweep.scenario_of_case case)).H.Scenario.metrics
        in
        m.Engine.rounds_used, m.Engine.messages_sent, m.Engine.bytes_delivered)
      cells
  in
  fun () ->
  let tagged = List.combine cells (get_results ()) in
  List.iter
    (fun tl ->
      let mine =
        List.filter_map
          (fun ((tl', _), r) -> if tl' = tl then Some r else None)
          tagged
      in
      let rounds, messages, _ = List.hd mine in
      let bytes =
        Stats.summarize (List.map (fun (_, _, b) -> float_of_int b) mine)
      in
      Table.add_row table
        [
          string_of_int tl;
          string_of_int (tl + 1);
          string_of_int rounds;
          string_of_int messages;
          Printf.sprintf "%.0f" bytes.Stats.mean;
          Printf.sprintf "%.0f" bytes.Stats.stddev;
        ])
    tls;
  Table.print table

(* ------------------------------------------------------------------ C1 -- *)

(* The chaos grid: T-table settings × fault-schedule vocabulary (omission
   group, the in-flight mutation group — bit-flip, equivocate,
   replay+truncate, forge-sender on R0's traffic — and the
   self-stabilization group: corrupt-state scrambles of R0's registered
   protocol state), judged by the bSM oracle. Within-budget cells must
   come back `ok` — a VIOLATION is a protocol bug and fails the bench run
   (and hence `make ci`); mutated frames in particular must be absorbed
   as byzantine-equivalent noise, and scrambled state must be recovered
   from (the C4 table times the recovery). The JSON report is
   deterministic in the grid and chaos seeds (no wall-clock), so the same
   seeds yield a bit-identical file. *)
let table_chaos ~sched ~jobs () =
  let cells, k_range =
    if !quick then Chaos.Chaos_sweep.quick_grid (), "k=2"
    else Chaos.Chaos_sweep.full_grid (), "k=2,4"
  in
  let get_outcomes =
    sweep ~sched ~table:"C1 chaos grid" ~k_range Chaos.Chaos_sweep.run_cell cells
  in
  fun () ->
  let outcomes = get_outcomes () in
  let table =
    Table.make
      ~title:
        (Printf.sprintf
           "C1: chaos grid (%s) — fault schedules vs the bSM oracle; \
            within-budget omissions must preserve all four honest-party \
            properties (Thms 8-9), over-budget schedules degrade without \
            crashing"
           k_range)
      ~header:[ "schedule"; "cells"; "ok"; "expected degradation"; "VIOLATIONS" ]
  in
  let schedules =
    List.sort_uniq compare
      (List.map
         (fun (o : Chaos.Chaos_sweep.outcome) ->
           Chaos.Schedule.describe o.Chaos.Chaos_sweep.cell.Chaos.Chaos_sweep.schedule)
         outcomes)
  in
  List.iter
    (fun sched ->
      let mine =
        List.filter
          (fun (o : Chaos.Chaos_sweep.outcome) ->
            String.equal sched
              (Chaos.Schedule.describe
                 o.Chaos.Chaos_sweep.cell.Chaos.Chaos_sweep.schedule))
          outcomes
      in
      let s = Chaos.Chaos_sweep.summarize mine in
      Table.add_row table
        [
          sched;
          string_of_int s.Chaos.Chaos_sweep.cells;
          string_of_int s.Chaos.Chaos_sweep.ok;
          string_of_int s.Chaos.Chaos_sweep.degraded;
          string_of_int s.Chaos.Chaos_sweep.violated;
        ])
    schedules;
  Table.print table;
  let total = Chaos.Chaos_sweep.summarize outcomes in
  Format.printf "chaos summary: %a@." Chaos.Chaos_sweep.pp_summary total;
  (* C4: the self-stabilization reading of the same grid — for every
     (schedule, seed) that scrambled registered protocol state, how many
     rounds until all honest parties converged back to bSM. A Stuck or
     Violated count here is a failed recovery within budget and fails the
     run like a C1 violation. *)
  let recovery_rows = Chaos.Chaos_sweep.recovery_grid outcomes in
  if recovery_rows <> [] then begin
    let rtable =
      Table.make
        ~title:
          (Printf.sprintf
             "C4: recovery grid (%s) — rounds from the first state scramble \
              until every honest party terminated with bSM intact \
              (convergence oracle over corrupt-state schedules)"
             k_range)
        ~header:
          [
            "schedule"; "seed"; "cells"; "recovered"; "stuck"; "violated";
            "max rounds"; "mean rounds";
          ]
    in
    List.iter
      (fun (r : Chaos.Chaos_sweep.recovery_row) ->
        Table.add_row rtable
          [
            r.Chaos.Chaos_sweep.rg_schedule;
            string_of_int r.Chaos.Chaos_sweep.rg_seed;
            string_of_int r.Chaos.Chaos_sweep.rg_cells;
            string_of_int r.Chaos.Chaos_sweep.rg_recovered;
            string_of_int r.Chaos.Chaos_sweep.rg_stuck;
            string_of_int r.Chaos.Chaos_sweep.rg_violated;
            string_of_int r.Chaos.Chaos_sweep.rg_max_rounds;
            Printf.sprintf "%.2f" r.Chaos.Chaos_sweep.rg_mean_rounds;
          ])
      recovery_rows;
    Table.print rtable
  end;
  let json_path = if !quick then "BENCH_chaos.quick.json" else "BENCH_chaos.json" in
  Json.to_file json_path (Chaos.Chaos_sweep.to_json ~jobs outcomes);
  Printf.printf "wrote %s (%d cells; deterministic in the chaos seeds)\n\n"
    json_path total.Chaos.Chaos_sweep.cells;
  if total.Chaos.Chaos_sweep.violated > 0 then
    failwith "C1 chaos grid: within-budget bSM violations — protocol bug";
  if
    List.exists
      (fun (r : Chaos.Chaos_sweep.recovery_row) ->
        r.Chaos.Chaos_sweep.rg_stuck > 0 || r.Chaos.Chaos_sweep.rg_violated > 0)
      recovery_rows
  then
    failwith
      "C4 recovery grid: a within-budget state scramble never converged — \
       self-stabilization bug"

(* ---------------------------------------------------------- T-scale -- *)

(* The large-k scale frontier (ROADMAP priority 1): Gale–Shapley plus
   sharded early-exit verification on implicit [Flat] instances,
   k = 10³..10⁶ (quick: the 10³ rows). The verification shards are the
   sweep cells — they interleave with every other table's cells in the
   single drain. GS itself runs in the registration phase
   ([Scale.prepare]), before cells enter the graph: the prepared
   matchings are immutable and shared read-only across domains. *)
let table_scale ~sched ~jobs () =
  let mode = if !quick then H.Scale.Quick else H.Scale.Full in
  let prepared = List.map H.Scale.prepare (H.Scale.rows mode) in
  let per_row =
    List.map
      (fun (p : H.Scale.prepared) ->
        let table = Printf.sprintf "T-scale %s" (H.Scale.label p.row) in
        let get =
          sweep ~sched ~table
            ~k_range:(Printf.sprintf "k=%d" p.row.H.Scale.k)
            (H.Scale.run_cell p) (H.Scale.cells p)
        in
        p, table, get)
      prepared
  in
  fun () ->
    let results =
      List.map
        (fun ((p : H.Scale.prepared), table, get) ->
          let shard_counts = get () in
          (* [get] recorded this table's sweep: reuse its measurements as
             the verification walls. There is no per-table parallel wall
             (the drain is shared), so the summed per-task attribution
             stands in. *)
          let r =
            List.find (fun r -> String.equal r.sweep_table table) !sweep_records
          in
          H.Scale.assemble p ~shard_counts
            ~verify_seq_ms:r.sweep_seq.H.Sweep.wall_ms
            ~verify_par_ms:r.sweep_fused.H.Sweep.Fused.task_ms_total)
        per_row
    in
    Format.printf
      "T-scale: large-k frontier — GS + sharded early-exit verification on \
       implicit (Flat) instances; %d shards per matching, ε-stability \
       cross-checked against exact counts@."
      H.Scale.shards;
    Format.printf "%a" H.Scale.pp_results results;
    let json_path =
      if !quick then "BENCH_scale.quick.json" else "BENCH_scale.json"
    in
    Json.to_file json_path (H.Scale.to_json ~jobs results);
    Printf.printf
      "wrote %s (%d rows; deterministic in (family, seed, k) except *_ms)\n\n"
      json_path (List.length results);
    if List.exists (fun (r : H.Scale.result) -> not r.H.Scale.stable) results
    then failwith "T-scale: a Gale-Shapley output was not stable"

(* ---------------------------------------------------- microbenchmarks -- *)

open Bechamel
open Toolkit

let bench_tests () =
  let gs_random =
    Test.make_indexed ~name:"gale_shapley/random" ~args:[ 20; 100; 300 ] (fun k ->
        let profile = SM.Profile.random (Rng.make k) k in
        Staged.stage (fun () -> ignore (SM.Gale_shapley.run profile)))
  in
  let gs_worst =
    Test.make_indexed ~name:"gale_shapley/worst" ~args:[ 100 ] (fun k ->
        let profile = SM.Profile.worst_case k in
        Staged.stage (fun () -> ignore (SM.Gale_shapley.run profile)))
  in
  let codec =
    Test.make ~name:"wire/prefs-roundtrip-k100"
      (let prefs = SM.Prefs.random (Rng.make 1) 100 in
       Staged.stage (fun () ->
           let bytes = Bsm_wire.Wire.encode SM.Prefs.codec prefs in
           ignore (Bsm_wire.Wire.decode_exn SM.Prefs.codec bytes)))
  in
  let signing =
    Test.make ~name:"crypto/sign+verify"
      (let pki = Crypto.Pki.setup ~k:4 ~seed:0 in
       let signer = Crypto.Pki.signer pki (Party_id.left 0) in
       let verifier = Crypto.Pki.verifier pki in
       Staged.stage (fun () ->
           let s = Crypto.Signer.sign signer "benchmark-message" in
           ignore
             (Crypto.Verifier.verify verifier ~signer:(Party_id.left 0)
                ~msg:"benchmark-message" s)))
  in
  let engine_rounds =
    Test.make ~name:"engine/1000-rounds-2-parties"
      (Staged.stage (fun () ->
           let cfg =
             Engine.config ~k:1 ~link:(Engine.Of_topology Topology.Fully_connected)
               ~max_rounds:2000 ()
           in
           let program (env : Engine.env) =
             for _ = 1 to 1000 do
               env.Engine.send (Party_id.right 0) "x";
               ignore (env.Engine.next_round ())
             done
           in
           ignore
             (Engine.run cfg ~programs:(fun p ->
                  if Party_id.equal p (Party_id.left 0) then program else fun _ -> ()))))
  in
  let full_protocol name s =
    Test.make ~name
      (let profile = SM.Profile.random (Rng.make 5) s.Core.Setting.k in
       Staged.stage (fun () -> ignore (H.Scenario.run (H.Scenario.make_exn s profile))))
  in
  let e2e_auth =
    full_protocol "protocol/full-auth-k4"
      (setting ~k:4 ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
         ~tl:4 ~tr:4)
  in
  let e2e_unauth =
    full_protocol "protocol/full-unauth-k4"
      (setting ~k:4 ~topology:Topology.Fully_connected
         ~auth:Core.Setting.Unauthenticated ~tl:1 ~tr:4)
  in
  let e2e_pibsm =
    full_protocol "protocol/pi_bsm-k4"
      (setting ~k:4 ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:1
         ~tr:4)
  in
  let lattice =
    Test.make ~name:"lattice/all-stable-k7"
      (let profile = SM.Profile.random (Rng.make 9) 7 in
       Staged.stage (fun () -> ignore (SM.Lattice.all_stable profile)))
  in
  let roommates =
    Test.make ~name:"roommates/solve-n100"
      (let inst = SM.Roommates.random (Rng.make 11) 100 in
       Staged.stage (fun () -> ignore (SM.Roommates.solve inst)))
  in
  Test.make_grouped ~name:"bsm"
    [
      gs_random;
      gs_worst;
      codec;
      signing;
      engine_rounds;
      e2e_auth;
      e2e_unauth;
      e2e_pibsm;
      lattice;
      roommates;
    ]

let run_microbenchmarks () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None () in
  let raw = Benchmark.all cfg instances (bench_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let table =
    Table.make ~title:"Microbenchmarks (Bechamel, monotonic clock)"
      ~header:[ "benchmark"; "time/run" ]
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let humanize ns =
    if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
    else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
    else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
    else Printf.sprintf "%.0f ns" ns
  in
  List.iter
    (fun (name, ols) ->
      let time =
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> humanize ns
        | Some _ | None -> "n/a"
      in
      Table.add_row table [ name; time ])
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows);
  Table.print table

(* ------------------------------------------------------------- driver -- *)

let usage = "usage: main.exe [--quick] [--jobs N | -j N]"

(* The only flags: --quick and --jobs/-j N. Anything else — a typo, a
   retired flag, a --jobs without a value — stops the run before any
   table starts. *)
let parse_args () =
  let bad msg =
    Printf.eprintf "bench: %s\n%s\n" msg usage;
    exit 2
  in
  let rec go jobs = function
    | [] -> jobs
    | "--quick" :: rest ->
      quick := true;
      go jobs rest
    | (("--jobs" | "-j") as flag) :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> go (Some n) rest
      | Some _ | None ->
        bad (Printf.sprintf "%s %s: expected a positive integer" flag v))
    | [ (("--jobs" | "-j") as flag) ] -> bad (flag ^ ": missing value")
    | arg :: _ -> bad ("unknown argument " ^ arg)
  in
  go None (List.tl (Array.to_list Sys.argv))

(* The `make bench-quick` CI gate: with real parallelism available, the
   whole run must not be slower than the sequential reference —
   whole-run speedup >= 1.0. With jobs = 1 or one recommended domain
   there is nothing to win, so the check is skipped with a notice rather
   than asserting noise. Either way the line reports [host_parallel]
   beside the speedup, so a failure on a shared host shows whether the
   host ran two domains in parallel at all. *)
let check_whole_run_speedup ~jobs ~host_parallel (rs : H.Sweep.Fused.run_stats) =
  let recommended = Domain.recommended_domain_count () in
  let seq_total = total_sequential_ms () in
  let par_total = rs.H.Sweep.Fused.wall_ms in
  let speedup = whole_run_speedup rs in
  if jobs >= 2 && recommended >= 2 then begin
    Printf.printf
      "whole-run speedup: %.2fx (%.1f ms sequential vs %.1f ms fused drain, \
       %d tasks, %d steals); host_parallel %.2fx\n"
      speedup seq_total par_total rs.H.Sweep.Fused.tasks
      rs.H.Sweep.Fused.steals host_parallel;
    if speedup < 1.0 then begin
      Printf.eprintf
        "FAIL: whole-run fused speedup %.2fx < 1.0 with %d jobs on %d \
         recommended domains (host_parallel %.2fx: ~2 when the host ran \
         two domains in parallel, ~1 when it gave them one CPU)\n"
        speedup jobs recommended host_parallel;
      exit 1
    end
  end
  else
    Printf.printf
      "whole-run speedup check skipped (%d job(s), %d recommended domain(s) — \
       needs both >= 2); fused drain: %.1f ms over %d tasks; host_parallel \
       %.2fx\n"
      jobs recommended par_total rs.H.Sweep.Fused.tasks host_parallel

let () =
  let jobs =
    Option.value (parse_args ()) ~default:(Domain.recommended_domain_count ())
  in
  print_endline "byzantine stable matching — experiment harness";
  Printf.printf
    "sweep parallelism: %d job(s) (%d domain(s) recommended); scheduler: \
     fused (one task graph, one drain point)%s\n"
    jobs
    (Domain.recommended_domain_count ())
    (if !quick then "; --quick: smallest k per table, no microbenchmarks"
     else "");
  print_newline ();
  let run, host_parallel =
    Pool.with_pool ~jobs (fun pool ->
        let sched = H.Sweep.Fused.create () in
        (* Registration phase: sequential reference passes run here, cells
           enter the shared graph. Explicit sequencing — a list literal
           would evaluate right-to-left. *)
        let renderers = ref [] in
        let reg f = renderers := f () :: !renderers in
        reg (table_t1 ~sched);
        reg (table_t2 ~sched);
        reg (table_t3_gs ~sched);
        reg (table_t3_protocols ~sched);
        reg (table_t3_distributed_gs ~sched);
        reg (table_a1 ~sched);
        reg (table_a2 ~sched);
        reg (table_a3 ~sched);
        reg (table_a4 ~sched);
        reg (table_chaos ~sched ~jobs);
        reg (table_scale ~sched ~jobs);
        (* The single drain point: every registered cell — all tables plus
           the chaos grid and T-scale — executes in one parallel pass. *)
        let run = H.Sweep.Fused.drain ~pool sched in
        let host_parallel = host_parallel () in
        (* Render in registration order; the getters verify bit-identity
           against their sequential references here. *)
        List.iter (fun render -> render ()) (List.rev !renderers);
        run, host_parallel)
  in
  if not !quick then run_microbenchmarks ();
  (* Quick runs exercise the JSON writer without clobbering the tracked
     full-size numbers. *)
  let json_path =
    if !quick then "BENCH_sweeps.quick.json" else "BENCH_sweeps.json"
  in
  Json.to_file json_path (sweeps_json ~jobs ~host_parallel run);
  Printf.printf
    "wrote %s (%d sweeps with GC deltas; every parallel sweep verified \
     bit-identical to its sequential run)\n"
    json_path
    (List.length !sweep_records);
  check_whole_run_speedup ~jobs ~host_parallel run;
  print_endline "done. See EXPERIMENTS.md for the paper-vs-measured discussion."
