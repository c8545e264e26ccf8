(** Byzantine strategy kit for bSM scenarios.

    Everything here produces an {!Bsm_runtime.Engine.program} to be listed
    in a scenario's [byzantine] field. Generic transport-level strategies
    ({!Bsm_broadcast.Strategies}) are complemented by protocol-aware ones
    that participate correctly but adversarially. *)

open Bsm_prelude
module SM := Bsm_stable_matching
module Engine := Bsm_runtime.Engine

(** Never sends a message (non-participation). *)
val silent : Engine.program

(** Random bytes to random parties every round. *)
val noise : seed:int -> Engine.program

(** Follows the protocol honestly until [round], then goes dark through
    {!Bsm_broadcast.Strategies.crash_at}, which stops only [env.send] and
    [output]: the channel layer's sends continue. *)
val crash :
  setting:Bsm_core.Setting.t ->
  seed:int ->
  input:SM.Prefs.t ->
  self:Party_id.t ->
  round:int ->
  Engine.program

(** Runs the honest protocol with a misreported preference list — the
    classical manipulation, which is {e not} a bSM violation but changes
    the matching; used by the manipulation experiments. [seed] must equal
    the scenario's seed (same trusted setup). *)
val lying :
  setting:Bsm_core.Setting.t ->
  seed:int ->
  fake:SM.Prefs.t ->
  self:Party_id.t ->
  Engine.program

(** Equivocates at the input-dissemination stage: runs the honest protocol
    but with every payload it sends through [env.send] after
    [from_round] replaced by random bytes of the same length. It wraps
    only [env.send]; what the protocol sends with the other send
    functions is not garbled. *)
val garble_after :
  setting:Bsm_core.Setting.t ->
  seed:int ->
  input:SM.Prefs.t ->
  self:Party_id.t ->
  from_round:int ->
  Engine.program

(** [random_coalition rng ~setting ~seed ~profile] draws a maximal
    admissible coalition (exactly [t_left] + [t_right] members) with an
    independently random strategy per member. *)
val random_coalition :
  Rng.t ->
  setting:Bsm_core.Setting.t ->
  seed:int ->
  profile:SM.Profile.t ->
  (Party_id.t * Engine.program) list
