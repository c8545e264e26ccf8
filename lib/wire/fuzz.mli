(** Deterministic decoder fuzzing.

    The wire layer's contract is that a decoder fed arbitrary bytes either
    returns a value or raises {!Wire.Malformed} — it never crashes with
    another exception, loops, or allocates proportionally to a forged
    length prefix. This module checks that contract mechanically: for each
    codec it is given it generates values, encodes them, applies
    seed-deterministic byte mutations (bit flips, truncations, insertions,
    splices), and classifies what the decoder does with the result.

    Everything is driven by {!Bsm_prelude.Rng} from an explicit seed, so a
    failing case is reproducible from [(seed, codec, case index)] alone and
    the whole run is safe to repeat in CI. *)

(** One codec under test, packed with a value generator and an equality
    used to check clean round-trips. *)
type entry =
  | Entry : {
      name : string;
      codec : 'a Wire.t;
      gen : Bsm_prelude.Rng.t -> 'a;
      equal : 'a -> 'a -> bool;
    }
      -> entry

val entry :
  name:string ->
  gen:(Bsm_prelude.Rng.t -> 'a) ->
  equal:('a -> 'a -> bool) ->
  'a Wire.t ->
  entry

(** What the decoder did with one (possibly mutated) byte string. *)
type outcome =
  | Roundtrip  (** Decoded to a value equal to the original. *)
  | Reinterpreted
      (** Decoded cleanly to a {e different} value — acceptable: mutated
          bytes may be a valid encoding of something else. *)
  | Rejected  (** Raised [Wire.Malformed] — the contractual rejection. *)
  | Crashed of string
      (** Raised anything else — a decoder bug; carries the exception. *)

type stats = {
  name : string;
  cases : int;
  roundtrip : int;
  reinterpreted : int;
  rejected : int;
  crashed : int;
  first_failure : string option;
      (** For the first crash: exception, case index and input hex, enough
          to replay the case by hand. *)
}

(** [run ~seed ~cases entries] fuzzes every entry with a per-entry
    derived seed: [cases] clean round-trip checks interleaved with
    [cases] mutated-byte decodes (so each entry accounts for [2 * cases]
    decoder invocations, reported in [stats.cases]). A clean round-trip
    that fails to compare equal counts as a crash: canonical codecs must
    round-trip exactly. *)
val run : seed:int -> cases:int -> entry list -> stats list

val total_cases : stats list -> int
val total_crashed : stats list -> int
val pp_stats : Format.formatter -> stats -> unit

(** [mutate rng s] applies 1–3 random byte-level mutations to [s]:
    bit flips, byte rewrites, truncations, insertions, slice
    duplications. Exposed so protocol-level chaos components can reuse the
    same mutation vocabulary. *)
val mutate : Bsm_prelude.Rng.t -> string -> string
