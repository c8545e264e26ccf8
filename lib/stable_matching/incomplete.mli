(** Stable matching with incomplete preference lists (SMI) and ties (SMT).

    The paper's preliminaries cite Gusfield–Irving for the variants "where
    the individuals only provide partial preferences, or if ties are
    allowed": a stable matching still always exists, though some
    individuals may stay unmatched. This module provides those classical
    substrates.

    {b Incomplete lists.} Each party ranks only the candidates it finds
    acceptable; a pair can only be matched (or blocking) if each finds the
    other acceptable. A matching is stable iff no mutually-acceptable pair
    prefers deviating (where being unmatched is worse than any acceptable
    partner). The extended Gale–Shapley algorithm finds one, and the
    Rural-Hospitals / Gale–Sotomayor theorem says every stable matching
    matches exactly the same set of parties — property-tested here.

    {b Ties.} With ties, we implement {e weak stability} (no pair strictly
    prefers each other): breaking ties arbitrarily and solving the
    resulting strict instance yields a weakly stable matching. *)

type t
(** An SMI instance. *)

(** [make ~left ~right] — [left.(i)] is left party [i]'s ranked list of
    acceptable right indices (most preferred first); symmetric for
    [right]. Validates ranges and duplicate-freeness. Acceptability is
    {e not} required to be mutual in the input; non-mutual entries are
    ignored by the algorithms (a pair is usable only if mutual). *)
val make : left:int list array -> right:int list array -> (t, string) result

val make_exn : left:int list array -> right:int list array -> t

(** [random rng ~k ~acceptance] — each of the [k²] pairs is acceptable to
    each endpoint independently with probability [acceptance]; rankings
    uniform. *)
val random : Bsm_prelude.Rng.t -> k:int -> acceptance:float -> t

(** A partial matching: [l2r.(i) = Some j] etc.; always symmetric. *)
type matching = {
  l2r : int option array;
  r2l : int option array;
}

(** Left-proposing extended Gale–Shapley. *)
val solve : t -> matching

(** [is_stable t m] — [m] is a matching of mutually-acceptable pairs with
    no blocking pair (a mutually-acceptable pair where each side is
    unmatched or strictly prefers the other). *)
val is_stable : t -> matching -> bool

(** All stable matchings by brute force (exponential; test oracle). *)
val all_stable_brute : t -> matching list

(** [matched_left m] — the set of matched left indices, sorted. By the
    Rural Hospitals theorem this is identical across all stable matchings
    of an instance (and likewise for the right side). *)
val matched_left : matching -> int list

val matched_right : matching -> int list

(** Ties: [solve_with_ties rng ~left ~right] takes rankings given as
    {e tiers} (a list of groups, each group mutually tied), breaks ties
    uniformly at random with [rng], and solves the strict instance. The
    result is weakly stable w.r.t. the tiered preferences. *)
val solve_with_ties :
  Bsm_prelude.Rng.t ->
  left:int list list array ->
  right:int list list array ->
  (matching, string) result

(** [is_weakly_stable ~left ~right m] — no mutually-acceptable pair
    {e strictly} prefers each other under the tiered preferences. *)
val is_weakly_stable :
  left:int list list array -> right:int list list array -> matching -> bool
