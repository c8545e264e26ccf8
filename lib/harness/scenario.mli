(** End-to-end scenario runner: build an instance, select the protocol for
    its setting, run honest fibers against a scripted byzantine coalition,
    and evaluate the bSM properties on the honest outputs.

    This is what the tests, benchmarks, CLI and examples all drive. *)

open Bsm_prelude
module SM := Bsm_stable_matching
module Engine := Bsm_runtime.Engine
module Core := Bsm_core

type t = {
  setting : Core.Setting.t;
  profile : SM.Profile.t;  (** every party's true input *)
  byzantine : (Party_id.t * Engine.program) list;
      (** corrupted parties and their scripted behaviour; must respect the
          setting's [t_left]/[t_right] budgets *)
  seed : int;  (** PKI derivation *)
}

(** [make ?byzantine ?seed setting profile] validates the corruption
    budget and side cardinalities. *)
val make :
  ?byzantine:(Party_id.t * Engine.program) list ->
  ?seed:int ->
  Core.Setting.t ->
  SM.Profile.t ->
  (t, string) result

val make_exn :
  ?byzantine:(Party_id.t * Engine.program) list ->
  ?seed:int ->
  Core.Setting.t ->
  SM.Profile.t ->
  t

type report = {
  outcome : Core.Problem.outcome;
  violations : Core.Problem.violation list;
  metrics : Engine.metrics;
  parties : Engine.party_result list;
      (** raw engine results, including termination status and
          [finished_round] — the convergence oracle
          ({!Bsm_chaos.Oracle}) reads rounds-to-recovery off these *)
  plan : Core.Select.plan;
}

(** [run scenario] — selects the protocol (raising [Invalid_argument] when
    the setting is impossible), executes it, and checks all four bSM
    properties. [faults] injects engine-level omissions on top of the
    byzantine coalition (the chaos subsystem compiles its fault schedules
    into this; see {!Bsm_chaos.Schedule}). *)
val run : ?max_rounds:int -> ?faults:Engine.fault_model -> t -> report

(** [run_ssm ~favorites scenario] — the sSM variant: inputs are single
    favorites (the profile is derived via the Lemma 2 reduction) and the
    evaluation uses simplified stability. *)
val run_ssm :
  ?max_rounds:int ->
  ?faults:Engine.fault_model ->
  favorites:(Party_id.t -> Party_id.t) ->
  t ->
  report

(** True iff the run achieved bSM (no violations). *)
val ok : report -> bool

val pp_report : Format.formatter -> report -> unit
