(** The lattice of stable matchings.

    For a fixed profile, the set of stable matchings forms a distributive
    lattice under the left side's preference order (Conway; see
    Gusfield–Irving, "The Stable Marriage Problem"). [meet] and [join] give
    each left party the better resp. worse of its two partners; both are
    again stable. [all_stable] enumerates the whole lattice with
    McVitie–Wilson breakmarriage chains, which is polynomial per matching
    produced; [all_stable_brute] is the factorial-time cross-check used in
    tests. *)

(** [meet profile a b] — left-preferred combination (both must be stable
    for the lattice theorems to apply; not checked). *)
val meet : Profile.t -> Matching.t -> Matching.t -> Matching.t

(** [join profile a b] — left-pessimal combination. *)
val join : Profile.t -> Matching.t -> Matching.t -> Matching.t

(** All stable matchings, left-optimal first, in BFS order from the
    left-optimal matching. *)
val all_stable : Profile.t -> Matching.t list

(** Factorial-time enumeration by filtering all k! matchings; test oracle
    for small [k]. *)
val all_stable_brute : Profile.t -> Matching.t list

(** [egalitarian profile] minimizes the total rank partners assign each
    other, over all stable matchings. *)
val egalitarian : Profile.t -> Matching.t

(** [minimum_regret profile] minimizes the worst rank any party assigns its
    partner, over all stable matchings. *)
val minimum_regret : Profile.t -> Matching.t

(** [egalitarian_cost profile m] is the summed-rank objective. *)
val egalitarian_cost : Profile.t -> Matching.t -> int

(** [regret profile m] is the max-rank objective. *)
val regret : Profile.t -> Matching.t -> int
