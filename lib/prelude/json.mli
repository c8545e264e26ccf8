(** The JSON of the bench files ([BENCH_*.json]): a value type, one
    deterministic printer and a strict parser.

    Every bench writer builds a {!t} and prints it with {!to_string};
    [tools/bench_compare] reads the files back with {!of_string} and
    looks records up by key. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** finite only; the printer rejects nan and infinities *)
  | String of string  (** arbitrary bytes *)
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

(** [rounded fmt x] is [Float x] rounded the way the printf format [fmt]
    prints it, e.g. [rounded "%.3f"] for a millisecond wall or
    [rounded "%.3e"] for a ratio: each number keeps its stated
    precision without the printer knowing about it. *)
val rounded : (float -> string, unit, string) format -> float -> t

(** [to_string v] — deterministic: the same value always prints the
    same bytes. Floats print in the shortest form that reads back to
    the same float (always with a [.] or an exponent, so they stay
    floats); strings escape the double quote, the backslash and control
    bytes. The layout is fixed: the top-level object puts one member per
    line, a list member of it puts one element per line, and everything
    deeper prints on one line — one bench record per line. No trailing
    newline. Raises [Invalid_argument] on a non-finite float. *)
val to_string : t -> string

(** [to_file path v] writes [to_string v] and a newline to [path]. *)
val to_file : string -> t -> unit

type error = {
  offset : int;  (** byte offset in the input where parsing failed *)
  reason : string;
}

val error_to_string : error -> string

(** [of_string s] parses exactly one JSON value (RFC 8259) surrounded
    by optional whitespace. It never raises: malformed, truncated or
    trailing input is an [Error] at the offending byte. Numbers with a
    fraction or an exponent are [Float]s, other numbers [Int]s (an
    integer outside OCaml's [int] range is an error). [\u] escapes
    decode to UTF-8, except UTF-16 surrogates, which are rejected; other
    bytes of a string are kept as they are. *)
val of_string : string -> (t, error) result

(** [member key v] — the first member named [key] when [v] is an
    object, else [None]. *)
val member : string -> t -> t option

(** [number v] — the value of an [Int] or a [Float]. *)
val number : t -> float option
