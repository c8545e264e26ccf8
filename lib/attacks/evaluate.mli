(** Evaluating sSM protocols-under-test against byzantine coalitions.

    Shared by the attack test suite and the A3 experiment: run a
    {!Protocol_under_test.t} on a real (small-system) network with scripted
    byzantine parties and return the sSM property violations of the honest
    outputs. *)

open Bsm_prelude
module Engine := Bsm_runtime.Engine

val run :
  topology:Bsm_topology.Topology.t ->
  k:int ->
  favorites:(Party_id.t -> Party_id.t) ->
  byzantine:(Party_id.t * Engine.program) list ->
  Protocol_under_test.t ->
  Bsm_core.Problem.violation list

(** [random_favorites rng ~k] assigns each party a uniform favorite on the
    other side. *)
val random_favorites : Rng.t -> k:int -> Party_id.t -> Party_id.t
