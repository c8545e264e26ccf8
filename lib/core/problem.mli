(** The byzantine stable matching problem: inputs, outputs, and the four
    properties (Definition 1), plus the simplified variant sSM
    (Section 3).

    A party's decision is [Some partner] or [None] ("match with nobody");
    the evaluation also distinguishes parties that produced no decision at
    all, which violates termination. All checks consider {e honest} parties
    only, exactly as the refined definitions require. *)

open Bsm_prelude
module SM := Bsm_stable_matching

(** One honest party's observed outcome. *)
type decision =
  | No_output  (** never decided — termination violation *)
  | Nobody
  | Matched of Party_id.t

val decision_codec : Party_id.t option Bsm_wire.Wire.t
(** Wire format protocols use for their final output ([None] = nobody). *)

(** [decision_of_result r] is the one reading of a party's engine
    result: a terminated party whose output decodes with
    {!decision_codec} decided [Matched] or [Nobody]; any other party —
    out of rounds, crashed, terminated without an output or with bytes
    that do not decode — gives [No_output]. *)
val decision_of_result : Bsm_runtime.Engine.party_result -> decision

type outcome = {
  profile : SM.Profile.t;  (** every party's (true) input *)
  byzantine : Party_set.t;  (** ground truth corruption set *)
  decisions : (Party_id.t * decision) list;  (** honest parties only *)
}

type violation =
  | Termination of Party_id.t
  | Symmetry of Party_id.t * Party_id.t
      (** [u] decided [v] (both honest) but [v] did not decide [u] *)
  | Wrong_side of Party_id.t
      (** decided a party of its own side or out of range *)
  | Stability of {
      left : Party_id.t;
      right : Party_id.t;
    }  (** honest blocking pair *)
  | Non_competition of {
      a : Party_id.t;
      b : Party_id.t;
      target : Party_id.t;
    }

val pp_violation : Format.formatter -> violation -> unit

(** [check outcome] — all violations of the four bSM properties. Empty
    list = the run achieved bSM. *)
val check : outcome -> violation list

(** [check_simplified ~favorites outcome] — the sSM properties: termination,
    symmetry, non-competition, and {e simplified stability} (mutual honest
    favorites must be matched to each other). [favorites p] is the party
    [p]'s favorite (input of sSM). *)
val check_simplified :
  favorites:(Party_id.t -> Party_id.t) -> outcome -> violation list
