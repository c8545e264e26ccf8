(** Π_BB (Appendix A.6): byzantine broadcast by reduction to Π_BA.

    The sender disseminates its value; after one round every party joins
    Π_BA with the value received — or with [default] when nothing (valid)
    arrived. Achieves BB without omissions, termination and weak agreement
    with omissions. Virtual rounds: [Δ_BB = 1 + Δ_BA]. *)

open Bsm_prelude

val rounds : Phase_king.params -> int

(** [make p ~self ?others ~sender ~input ~default] — [input] is only
    consulted when [self = sender]; [others] is as for {!Pi_ba.make}. *)
val make :
  ?others:Party_id.t list ->
  Phase_king.params ->
  self:Party_id.t ->
  sender:Party_id.t ->
  input:string ->
  default:string ->
  string option Machine.t
