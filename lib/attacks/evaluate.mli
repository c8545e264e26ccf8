(** Evaluating sSM protocols-under-test against byzantine coalitions.

    Shared by the attack test suite and the A3 experiment: run a
    {!Protocol_under_test.t} on a real (small-system) network with scripted
    byzantine parties, for at most 500 rounds, and return the sSM property
    violations of the honest outputs. *)

open Bsm_prelude
module Engine := Bsm_runtime.Engine

val run :
  topology:Bsm_topology.Topology.t ->
  k:int ->
  favorites:(Party_id.t -> Party_id.t) ->
  byzantine:(Party_id.t * Engine.program) list ->
  Protocol_under_test.t ->
  Bsm_core.Problem.violation list
