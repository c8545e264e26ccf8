(** Byzantine stable roommates — the paper's first future-work direction.

    "A first direction could be generalizing our results to the stable
    roommate problem. [...] the stable matching problem comes with the
    guarantee that a stable matching always exists, while the stable
    roommate problem does not. Hence, definitions and properties need to
    be refined to account for this." (Conclusion.)

    This module is that refinement, in the easiest setting the paper's
    machinery makes available: a fully-connected authenticated network of
    the [n = 2k] parties (any number of corruptions, Dolev–Strong
    underneath — the roommates analogue of Theorem 5). The adversary is a
    single threshold [t] over all parties: with one set there is no
    left/right split.

    Definition (byzantine stable roommates, bSR): every honest party
    outputs a partner or nobody, and
    - {b termination} — as in bSM;
    - {b symmetry} — honest u outputs honest v ⟹ v outputs u;
    - {b non-competition} — no two honest parties output the same party;
    - {b conditional stability} — if the profile obtained by fixing the
      byzantine parties' (possibly substituted) lists admits a stable
      matching, there is no blocking pair among honest parties, and no
      honest party outputs nobody;
    - {b consistent abstention} — if it admits none, every honest party
      outputs nobody. (This is the refinement existence-failure forces:
      honest parties must agree on {e whether} they are matched.)

    The protocol is the Lemma 1 pipeline with Irving's algorithm in place
    of Gale–Shapley: broadcast every list with Dolev–Strong, substitute a
    default for invalid ones, solve locally, output your partner (or
    nobody when no stable matching exists). Agreement of BB makes the
    local runs identical, so all five properties follow. *)

open Bsm_prelude

(** A party's preference list over the other [n-1] parties, most preferred
    first, in dense index order (see {!Party_id.to_dense}). *)
type prefs = int list

(** [default_prefs ~n ~self_dense] — ascending dense indices, skipping
    self; substituted for byzantine parties that broadcast garbage. *)
val default_prefs : n:int -> self_dense:int -> prefs

(** [validate ~n ~self_dense prefs] — a permutation of the other [n-1]
    dense indices. *)
val validate : n:int -> self_dense:int -> prefs -> bool

(** [program ~k ~t ~pki ~input ~self] — the honest fiber. [t] is the
    global corruption bound (any [t < 2k] works). Output wire format:
    {!Bsm_core.Problem.decision_codec} ([None] = nobody). *)
val program :
  k:int ->
  t:int ->
  pki:Bsm_crypto.Crypto.Pki.t ->
  input:prefs ->
  self:Party_id.t ->
  Bsm_runtime.Engine.program

type violation =
  | Termination of Party_id.t
  | Symmetry of Party_id.t * Party_id.t
  | Non_competition of Party_id.t * Party_id.t * Party_id.t
  | Blocking_pair of Party_id.t * Party_id.t
  | Inconsistent_abstention of Party_id.t * Party_id.t
      (** one honest party matched while another abstained *)

val pp_violation : Format.formatter -> violation -> unit

(** [check ~k ~inputs ~byzantine decisions] — evaluate the five properties
    on honest outputs. [inputs] gives every party's true list (used for
    honest-pair blocking checks); [decisions] maps each honest party to
    [Some (Some partner)], [Some None] (nobody) or [None] (no output). *)
val check :
  k:int ->
  inputs:(Party_id.t -> prefs) ->
  byzantine:Party_set.t ->
  decisions:(Party_id.t * Party_id.t option option) list ->
  violation list

(** [random_inputs rng ~k] draws a full profile of valid lists. *)
val random_inputs : Rng.t -> k:int -> Party_id.t -> prefs

(** Centralized reference: solve the instance the honest protocol would
    solve when no party is byzantine. *)
val solve_reference : k:int -> inputs:(Party_id.t -> prefs) -> int array option
