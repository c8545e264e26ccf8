(** Simplified stable matching (Section 3) via the Lemma 2 reduction.

    In sSM, a party's input is a single favorite on the other side. Any
    bSM protocol solves sSM: rank the favorite first, fill the rest of the
    list arbitrarily (ascending here, for determinism), and run bSM. If two
    honest parties are mutual favorites, they rank each other first, so
    leaving them unmatched would create a blocking pair — simplified
    stability follows from stability. *)

open Bsm_prelude
module SM := Bsm_stable_matching

(** [prefs_of_favorite ~k favorite] — the constructed full list. *)
val prefs_of_favorite : k:int -> Party_id.t -> SM.Prefs.t

(** [favorites_to_profile ~k favs] lifts an sSM input assignment into a
    bSM profile ([favs] gives each party's favorite). *)
val favorites_to_profile : k:int -> (Party_id.t -> Party_id.t) -> SM.Profile.t

(** [random_favorites rng ~k] draws each party a uniform favorite on the
    other side, in roster order. *)
val random_favorites : Rng.t -> k:int -> Party_id.t -> Party_id.t

(** [program plan ~pki ~favorite ~self] — run the plan's bSM protocol on
    the constructed list. *)
val program :
  Select.plan ->
  pki:Bsm_crypto.Crypto.Pki.t ->
  favorite:Party_id.t ->
  self:Party_id.t ->
  Bsm_runtime.Engine.program
