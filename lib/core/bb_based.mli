(** The warm-up protocol of Lemma 1: broadcast everyone's preference list,
    run Gale–Shapley locally, output your own partner.

    Each of the [2k] parties is the sender of one byzantine-broadcast
    instance; all instances run in parallel over a virtual fully-connected
    network ({!Channels}). The broadcast implementation depends on the
    setting:

    - unauthenticated: Π_BB over the generalized phase king with the
      product structure [Z*] (sound when [t_L < k/3 ∨ t_R < k/3], Lemma 4);
    - authenticated: Dolev–Strong with [t = t_L + t_R] (sound always).

    A sender whose broadcast yields no valid preference list is byzantine;
    honest parties substitute the default (identity) list, as in the proof
    of Lemma 1. All honest parties therefore feed identical input to the
    deterministic [A_G-S] and obtain the same matching — termination,
    symmetry, stability and non-competition follow. *)

open Bsm_prelude
module SM := Bsm_stable_matching

(** Engine rounds a (honest) run takes, for scheduling and metrics. *)
val engine_rounds : Setting.t -> int

(** [program setting ~pki ~input ~self] — the honest program for [self].
    [pki] is consulted only in authenticated settings. *)
val program :
  Setting.t ->
  pki:Bsm_crypto.Crypto.Pki.t ->
  input:SM.Prefs.t ->
  self:Party_id.t ->
  Bsm_runtime.Engine.program
