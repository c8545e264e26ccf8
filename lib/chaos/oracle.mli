(** The bSM property oracle: run a sweep case under a fault schedule and
    judge the outcome against the paper's guarantees.

    The classification logic is the admissibility argument of
    Theorems 8–9: an omission-faulty party is a special case of a
    byzantine one, so as long as the parties {!Schedule.charged} by the
    schedule, together with the case's byzantine coalition, fit the
    setting's [(t_L, t_R)] corruption budgets, the remaining honest
    parties must still enjoy all four bSM properties (termination,
    symmetry, stability, non-competition). A broken property inside the
    budget is a protocol bug; outside the budget the paper promises
    nothing, so degradation is expected. *)

open Bsm_prelude
module Core := Bsm_core
module Engine := Bsm_runtime.Engine
module Sweep := Bsm_harness.Sweep

type verdict =
  | Ok  (** within budget, all four honest-party properties hold *)
  | Expected_degradation
      (** the fault budget exceeds the admissible omission bounds of
          Theorems 8–9 — whatever happened carries no guarantee *)
  | Violation
      (** properties broken {e within} budget — a real bug *)

val verdict_to_string : verdict -> string

(** Convergence after state corruption — the self-stabilization reading
    of a scrambled run ({!Schedule.corrupt_state}). Only computed when
    the run actually scrambled at least one cell. *)
type recovery =
  | Recovered of int
      (** every honest party terminated; the payload is the number of
          rounds from the first scramble to the last honest
          termination (0 when everyone was already done) *)
  | Stuck
      (** some honest party ran out of rounds — with a deterministic
          protocol and a fixed schedule this is proof it never
          converges, not a timeout heuristic *)
  | Violated
      (** the honest parties terminated but the bSM properties are
          broken — converged to a wrong fixpoint *)

(** ["recovered:N"], ["stuck"], ["violated"] — stable strings used in
    BENCH_chaos.json rows and repro fingerprints. *)
val recovery_to_string : recovery -> string

(** Canonical wire codec (registered in the fuzz corpus as
    ["chaos.recovery"]). *)
val recovery_codec : recovery Bsm_wire.Wire.t

(** Everything is plain data (no closures), so reports from parallel and
    sequential sweeps can be compared structurally — the bit-identity
    guarantee chaos sweeps inherit from {!Bsm_harness.Sweep}. *)
type report = {
  verdict : verdict;
  within_budget : bool;
  charged : Party_set.t;  (** parties the schedule omission-corrupts *)
  corrupted : Party_set.t;  (** byzantine coalition ∪ [charged] *)
  violations : Core.Problem.violation list;
      (** bSM violations among parties honest under [corrupted] *)
  metrics : Engine.metrics;  (** per-fate message counts of the run *)
  recovery : recovery option;
      (** [None] when no state cell was scrambled
          ([metrics.first_scramble_round = None]); otherwise the
          convergence verdict measured over parties honest under
          [corrupted] *)
}

(** [run ~seed ~schedule case] materializes the case
    ({!Sweep.scenario_of_case}), compiles the schedule with [seed],
    executes, and classifies. Deterministic in
    [(case, schedule, seed)]. *)
val run :
  ?max_rounds:int -> seed:int -> schedule:Schedule.t -> Sweep.case -> report

val pp_report : Format.formatter -> report -> unit
