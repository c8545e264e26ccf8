(** Small descriptive-statistics helpers for experiment aggregation. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** population standard deviation *)
  min : float;
  max : float;
}

(** [summarize xs] — raises [Invalid_argument] on an empty list. *)
val summarize : float list -> summary

(** [percentile p xs] — nearest-rank percentile, [p] in [0, 100]. *)
val percentile : float -> float list -> float

(** [rate hits total] as a percentage. *)
val rate : int -> int -> float

