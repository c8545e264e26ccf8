(** Adversary structures (Appendix A.3).

    A (subset-closed) adversary structure lists the party sets the
    adversary may corrupt. The paper's setting is the product of two
    thresholds — at most [t_L] corruptions in [L] and [t_R] in [R] —
    written [Z*]; classical protocols use a single threshold; the explicit
    form supports arbitrary structures as in Fitzi–Maurer.

    The predicate that drives the generalized phase-king protocol is
    [possibly_corrupt]: a set that is possibly corrupt gives no guarantee
    of containing an honest party, while a set that is not possibly
    corrupt must contain at least one honest party in every admissible
    execution. *)

open Bsm_prelude

type t =
  | Threshold of int  (** any set of at most [t] participants *)
  | Two_sided of {
      t_left : int;
      t_right : int;
    }  (** the paper's [Z*]: componentwise thresholds *)
  | Explicit of Party_set.t list
      (** the maximal corruptible sets; closed downward implicitly *)

(** [possibly_corrupt t s] — may the adversary corrupt (a superset of)
    exactly the parties in [s]? *)
val possibly_corrupt : t -> Party_set.t -> bool

(** [q3 t ~participants] — the Q3 condition of Theorem 10: no three
    corruptible sets cover [participants]. For [Two_sided] over the full
    roster this is exactly [t_L < k/3 ∨ t_R < k/3] (Lemma 4). The
    [Explicit] case checks all triples of maximal sets. *)
val q3 : t -> participants:Party_id.t list -> bool

(** [king_sequence t ~participants] is a short prefix-deterministic list of
    participants that is {e not} possibly corrupt — hence contains an
    honest king. For [Threshold t] this is [t+1] parties; for [Two_sided]
    it is [min(t_L, t_R)+1] parties taken from the side with the smaller
    threshold (falling back to the other side when that side has too few
    participants). Raises [Invalid_argument] if every subset of
    [participants] is corruptible. *)
val king_sequence : t -> participants:Party_id.t list -> Party_id.t list
