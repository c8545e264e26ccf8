(** Π_BA (Appendix A.6): phase king plus one echo round, giving byzantine
    agreement that degrades gracefully under message omissions.

    Without omissions this achieves BA (termination, validity, agreement).
    With omissions — which in the paper only occur when every party of the
    opposite side is byzantine (Lemma 10) — it still achieves termination
    and {e weak agreement}: two honest parties never output two different
    non-[None] values.

    Output [None] models the paper's ⊥. Virtual rounds:
    [Δ_BA = Δ_King + 1 = 3·#kings + 1]. *)

open Bsm_prelude

(** [rounds p] — virtual rounds consumed. *)
val rounds : Phase_king.params -> int

(** [make p ~self ?others ~input]; [others] defaults to {!Machine.others}
    [~self p.participants], and a party making several machines over one
    participant set passes that one list to each. *)
val make :
  ?others:Party_id.t list ->
  Phase_king.params ->
  self:Party_id.t ->
  input:string ->
  string option Machine.t
