(** Replayable chaos repros.

    A repro is everything needed to re-execute one oracle run
    bit-identically — the sweep case (setting, seeds, adversary choice),
    the fault schedule, the chaos seed and round cap — plus the verdict
    and a fingerprint of the report it produced when it was written.
    Because every layer underneath is deterministic in exactly those
    inputs, [check] re-runs the oracle and compares fingerprints: a match
    is a bit-identical reproduction, byte for byte of the judged outcome.

    The file format is two lines: a [bsm-repro 1] header and the
    lowercase hex of the {!Wire}-serialized record, so repros survive
    copy-paste through issue trackers and chat. *)

module Sweep := Bsm_harness.Sweep
module Wire := Bsm_wire.Wire

type t = {
  case : Sweep.case;
  schedule : Schedule.t;
  seed : int;  (** chaos seed the schedule was compiled with *)
  max_rounds : int option;
  expected : Oracle.verdict;
  fingerprint : string;
      (** deterministic digest of everything the oracle judged in the
          original run: verdict, budget flag, charged/corrupted sets,
          rendered violations, per-fate message counts (including
          per-label omission/corruption counts), scrambled state-cell
          counts and the recovery verdict. Two runs with equal
          fingerprints made identical decisions. *)
}

(** [make ?max_rounds ~case ~schedule ~seed report] packs a repro for a
    run that produced [report]. *)
val make :
  ?max_rounds:int ->
  case:Sweep.case ->
  schedule:Schedule.t ->
  seed:int ->
  Oracle.report ->
  t

val codec : t Wire.t

(** [to_file path t] / [of_file path] — the two-line format above.
    [of_file] reports malformed headers, hex and payloads as [Error]. *)
val to_file : string -> t -> unit

val of_file : string -> (t, string) result

(** [check t] re-executes and compares fingerprints: [Ok report] on a
    bit-identical reproduction, [Error] describing the mismatch
    otherwise. *)
val check : t -> (Oracle.report, string) result

(** [gate result] — the process exit code [bsm replay] owes CI for a
    {!check} result: [0] only for a bit-identical reproduction whose
    verdict is not {!Oracle.Violation}; [1] for a divergence {e or} a
    faithfully reproduced Violation (a repro that still demonstrates the
    bug must fail the pipeline). *)
val gate : (Oracle.report, string) result -> int
