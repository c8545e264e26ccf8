(** Finite sets of parties.

    Bit-packed: one word-packed bitmap per side, indexed by party index,
    with the side-counting operations that adversary structures need —
    the paper's two-sided threshold adversary is characterized entirely
    by [count_side], which (like [cardinal]) is O(k/62) popcounts rather
    than a fold over elements. Membership is O(1); [union]/[inter]/
    [diff]/[subset] are wordwise. Enumeration order is unchanged from
    the previous [Set.Make (Party_id)] representation: left parties in
    ascending index order, then right parties. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : Party_id.t -> t
val add : Party_id.t -> t -> t
val remove : Party_id.t -> t -> t
val mem : Party_id.t -> t -> bool
val cardinal : t -> int
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val of_list : Party_id.t list -> t
val elements : t -> Party_id.t list

(** [count_side side t] is the number of members of [t] on [side]. *)
val count_side : Side.t -> t -> int

(** [restrict_side side t] keeps only the members of [t] on [side]. *)
val restrict_side : Side.t -> t -> t

(** [full ~k] is the set of all [2k] parties of an instance. *)
val full : k:int -> t

(** [complement ~k t] is [full ~k] minus [t]. *)
val complement : k:int -> t -> t

(** All subsets of [parties]; exponential, intended for small test
    instances only. *)
val power_set : Party_id.t list -> t list

val pp : Format.formatter -> t -> unit
