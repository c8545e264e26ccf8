(** Pool-parallel chaos sweeps: a [(case × schedule × seed)] grid of
    oracle runs, with the same seq==par bit-identity guarantee as
    {!Bsm_harness.Sweep} (each cell is pure given its seeds; results
    compare structurally because {!Oracle.report} holds no closures).

    [to_json] builds a deterministic report — no wall-clock inside —
    so the same grid and seeds produce a bit-identical
    [BENCH_chaos.json], replayable and diffable across machines. *)

module Sweep := Bsm_harness.Sweep
module Pool := Bsm_runtime.Pool

type cell = {
  case : Sweep.case;
  schedule : Schedule.t;
  chaos_seed : int;  (** seeds {!Schedule.compile} *)
}

val cell : ?chaos_seed:int -> schedule:Schedule.t -> Sweep.case -> cell

(** [grid ~cases ~schedules ~seeds] — the full cross product, cases
    outermost, seeds innermost. *)
val grid :
  cases:Sweep.case list ->
  schedules:Schedule.t list ->
  seeds:int list ->
  cell list

type outcome = {
  cell : cell;
  oracle : Oracle.report;
}

(** [run_cell c] — one cell through {!Oracle.run}; pure given the
    cell's seeds, so it is safe as a sweep or fused-batch task. *)
val run_cell : cell -> outcome

(** [run_cells ?pool cells] — every cell through {!run_cell}, in input
    order; parallel across the pool's domains when [pool] is given. *)
val run_cells : ?pool:Pool.t -> cell list -> outcome list

type summary = {
  cells : int;
  ok : int;
  degraded : int;
  violated : int;
}

val summarize : outcome list -> summary
val pp_summary : Format.formatter -> summary -> unit

(** One row of the recovery grid: all outcomes of a
    [(schedule, chaos_seed)] pair aggregated over cases, counting the
    {!Oracle.recovery} verdicts and the spread of rounds-to-recovery. *)
type recovery_row = {
  rg_schedule : string;  (** {!Schedule.describe} of the group *)
  rg_seed : int;
  rg_cells : int;
  rg_recovered : int;
  rg_stuck : int;
  rg_violated : int;
  rg_no_scramble : int;  (** runs where no cell was scrambled *)
  rg_max_rounds : int;  (** max rounds-to-recovery among recovered runs *)
  rg_mean_rounds : float;  (** mean over recovered runs; [0.] when none *)
}

(** [recovery_grid outcomes] — the rows, in first-appearance order,
    restricted to groups where at least one run scrambled state. Pure
    counting over the outcomes, so the grid is as deterministic as they
    are. *)
val recovery_grid : outcome list -> recovery_row list

(** Deterministic JSON report (summary + one row per cell with verdict,
    budget attribution, per-fate message counts, scrambled-cell counts
    and recovery verdict, followed by the {!recovery_grid} rows, each
    named by its [recovery_row] member). [jobs] is recorded for provenance only;
    the summary carries the fused task count (one task per cell) but
    deliberately no wall clocks or steal counts — those vary run to run
    and belong to BENCH_sweeps.json, keeping this file bit-identical for
    a given grid and seeds. *)
val to_json : jobs:int -> outcome list -> Bsm_prelude.Json.t

(** The standard grids the bench, CLI and CI share: T-table settings
    (Theorems 2, 5, 6, 7 — including both Π_bSM regimes) × the schedule
    vocabulary (within-budget send/receive-omission, crash and partition
    of R0, over-budget bernoulli drops and a blackout burst, plus the
    mutation group — bit-flip, equivocate, replay+truncate and
    forge-sender corruption of R0's traffic, and the self-stabilization
    group — {!Schedule.corrupt_state} scrambles of R0's registered
    protocol state, timed by the convergence oracle; all admissible and
    required to come back as byzantine-equivalent degradation at worst,
    never a crash). [quick_grid] is the smallest-k instance (a few
    seconds end-to-end, run by [make bench-quick] in CI); [full_grid]
    adds k = 4 and two more chaos seeds. *)
val quick_grid : unit -> cell list

val full_grid : unit -> cell list
