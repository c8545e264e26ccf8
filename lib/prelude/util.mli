(** Small general-purpose helpers shared across the libraries. *)

(** [most_common ~equal xs] is [Some (x, count)] for a value with the highest
    multiplicity in [xs] (first such value in list order wins ties), or
    [None] when [xs] is empty. O(n²); inputs are per-round inboxes, which
    are small. *)
val most_common : equal:('a -> 'a -> bool) -> 'a list -> ('a * int) option

(** [strict_majority ~equal ~total xs] is [Some x] when some value occurs
    strictly more than [total / 2] times in [xs]. *)
val strict_majority : equal:('a -> 'a -> bool) -> total:int -> 'a list -> 'a option

(** [group_by ~key xs] groups consecutive-or-not elements by key,
    preserving first-seen key order and element order within groups.
    Keys are compared with structural equality through a hash table, so
    they must be plain data (the callers use strings and ints). One pass:
    [key] is called exactly once per element, and the whole grouping is
    expected O(n) plus the cost of hashing the keys. *)
val group_by : key:('a -> 'k) -> 'a list -> ('k * 'a list) list

(** [range a b] is [[a; a+1; ...; b-1]] ([[]] when [a >= b]). *)
val range : int -> int -> int list

(** [is_permutation xs ~n] checks that [xs] is a permutation of
    [0 .. n-1]. *)
val is_permutation : int list -> n:int -> bool

(** Ceiling division [a / b] for positive [b]. *)
val cdiv : int -> int -> int

(** [take n xs] is the first [n] elements of [xs] (all of them if shorter). *)
val take : int -> 'a list -> 'a list

(** [find_index p xs] is the position of the first element satisfying [p]. *)
val find_index : ('a -> bool) -> 'a list -> int option

(** [pp_comma_list pp] prints a list separated by [", "]. *)
val pp_comma_list :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a list -> unit
