(** Party identifiers.

    A party is identified by its side and its index within that side. In an
    instance with [k] parties per side, valid indices are [0 .. k-1].
    Identifiers are public knowledge: the synchronous model assumes every
    party knows the full roster of participants. *)

type t = private {
  side : Side.t;
  index : int;
}

(** [make side index] builds an identifier. Raises [Invalid_argument] if
    [index < 0]. Identifiers with a small [index] (below 128) are
    preallocated and shared, so making one allocates nothing; compare
    identifiers with {!equal}/{!compare}, never physically. *)
val make : Side.t -> int -> t

(** [left i] is [make Side.Left i]. *)
val left : int -> t

(** [right i] is [make Side.Right i]. *)
val right : int -> t

val side : t -> Side.t
val index : t -> int

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Printed as ["L3"] or ["R0"]. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** [of_string s] parses the [to_string] format. Raises [Invalid_argument]
    on malformed input. *)
val of_string : string -> t

(** [all ~k] is the roster of an instance with [k] parties per side, all
    left parties first, both sides in index order. *)
val all : k:int -> t list

(** [side_members side ~k] lists the [k] parties of [side] in index order. *)
val side_members : Side.t -> k:int -> t list

(** Dense encoding into [0 .. 2k-1]: left parties map to their index, right
    parties map to [k + index]. Used for array-indexed per-party state. *)
val to_dense : k:int -> t -> int

(** Inverse of [to_dense]. Raises [Invalid_argument] if out of range. *)
val of_dense : k:int -> int -> t
