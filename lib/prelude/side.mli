(** The two sides of a stable matching instance.

    The paper calls them [L] (men / students / producers) and [R]
    (women / universities / consumers). Every party belongs to exactly one
    side and is matched with a party of the opposite side. *)

type t =
  | Left
  | Right

(** [opposite s] is the other side. *)
val opposite : t -> t

val equal : t -> t -> bool
val compare : t -> t -> int

(** [0] for [Left], [1] for [Right] — the stable numeric tag used when a
    side is absorbed into a hash chain or indexes an array pair. *)
val to_int : t -> int

(** The inverse of {!to_int}; raises [Invalid_argument] on any other
    int. *)
val of_int : int -> t

(** One-letter tag used in identifiers and wire encodings: ["L"] or ["R"]. *)
val to_string : t -> string

(** Both sides, in order [Left; Right]. *)
val all : t list
