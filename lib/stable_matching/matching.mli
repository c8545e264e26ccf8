(** Perfect matchings between the two sides of an instance.

    A matching pairs every left party with exactly one right party. Partial
    matchings (where byzantine non-participation leaves parties single)
    appear only in the distributed layer; the classic algorithms below
    always produce perfect matchings, as Gale–Shapley guarantees
    (Theorem 1 of the paper). *)

open Bsm_prelude

type t

(** [of_l2r_exn a] — [a.(i)] is the right partner of left party [i];
    raises [Invalid_argument] unless [a] is a permutation. *)
val of_l2r_exn : int array -> t

val k : t -> int

(** [partner_of_left t i] is the right index matched with left [i]. *)
val partner_of_left : t -> int -> int

(** [partner_of_right t j] is the left index matched with right [j]. *)
val partner_of_right : t -> int -> int

(** [partner t p] is [p]'s partner as a {!Party_id.t}. *)
val partner : t -> Party_id.t -> Party_id.t

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val codec : t Bsm_wire.Wire.t

(** All k! perfect matchings; for the brute-force cross-checks on small
    instances. *)
val enumerate : int -> t list
