(** Strategic manipulation of Gale–Shapley.

    The paper's related-work section contrasts byzantine behaviour with the
    classical manipulation results: Roth (1982) showed stable matching
    mechanisms are not truthful, while Gale–Shapley is truthful for the
    proposing side. Both facts are reproduced executably here: a concrete
    instance where an acceptor gains by lying, and an exhaustive search
    confirming that no proposer can ever gain on small instances. *)

open Bsm_prelude

type manipulation = {
  manipulator : Party_id.t;
  fake : Prefs.t;  (** the misreported list *)
  honest_partner : int;  (** partner index under truthful reporting *)
  lying_partner : int;  (** partner index when misreporting *)
}

(** Roth's phenomenon on a concrete 3×3 instance: right party [R0] improves
    from its 2nd to its 1st true choice by misreporting, under
    left-proposing Gale–Shapley. Returns the profile and the verified
    manipulation. *)
val roth_instance : unit -> Profile.t * manipulation

(** [proposer_can_gain profile] is [true] iff some left party can strictly
    gain by lying under left-proposing Gale–Shapley; by
    Dubins–Freedman / Roth this is always [false] — asserted by the test
    suite over random instances. *)
val proposer_can_gain : Profile.t -> bool
