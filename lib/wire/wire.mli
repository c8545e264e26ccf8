(** Deterministic binary wire format.

    Every protocol message in the repository is serialized with these
    combinators before it enters the network engine, for three reasons:
    byzantine parties can then send arbitrary byte strings (malformed input
    is a first-class case every decoder handles), message sizes can be
    accounted exactly in the communication-complexity experiments, and
    signatures sign concrete bytes rather than OCaml values.

    Integers use LEB128 varints (signed values are zigzag-encoded); strings
    and lists are length-prefixed. Encoding is canonical: equal values
    produce equal bytes. *)

(** Raised by decoders on malformed input. [decode] catches it. *)
exception Malformed of string

module Enc : sig
  type t

  (** [create ?size ()] is an empty encoder whose storage starts at
      [size] bytes (default 64) and doubles whenever a write does not
      fit: once it has held at most [n > size] bytes, its storage is the
      least [size * 2{^j}] at or above [n]. *)
  val create : ?size:int -> unit -> t

  (** Encoded bytes so far. *)
  val to_string : t -> string

  (** [reset e] forgets the written bytes but keeps the underlying
      storage, so one encoder can be reused across many messages without
      reallocating. *)
  val reset : t -> unit

  (** Unsigned varint; raises [Invalid_argument] on negative input. *)
  val uint : t -> int -> unit

  (** Signed varint (zigzag). *)
  val int : t -> int -> unit

  val bool : t -> bool -> unit
  val string : t -> string -> unit

  (** Tag byte for variant constructors, [0 .. 255]. *)
  val tag : t -> int -> unit

  (** Bytes written so far. The message plane reads this before and
      after an in-place encode to carve the frame's [(offset, len)]
      span out of a shared arena encoder. *)
  val length : t -> int

  (** Raw append, no length prefix (arena frame copies). *)
  val append : t -> string -> unit

  (** Raw append of [s.[off .. off+len)], no length prefix. *)
  val append_sub : t -> string -> off:int -> len:int -> unit

  (** [append_enc t e] appends [e]'s bytes, no length prefix: a frame
      written in its own encoder, copied into the arena in one piece. *)
  val append_enc : t -> t -> unit

  (** [blit e src_off dst dst_off len] copies bytes [src_off ..
      src_off+len) of [e] into [dst] at [dst_off], so a digest can read
      written bytes without a [to_string] copy. Raises [Invalid_argument]
      on a range outside [e] or [dst]. *)
  val blit : t -> int -> Bytes.t -> int -> int -> unit

  (** [truncate e n] rolls the encoder back to [n] bytes: a codec that
      raises mid-write must not leave half a frame in the arena. *)
  val truncate : t -> int -> unit
end

(** An immutable [(base, off, len)] view of a byte string — the unit of
    zero-copy delivery out of the per-round frame arena. Slices never
    copy; [to_string] materializes (returning [base] itself when the
    slice covers it entirely). *)
module Slice : sig
  type t = private {
    base : string;
    off : int;
    len : int;
  }

  val of_string : string -> t

  (** Raises [Invalid_argument] unless [0 <= off], [0 <= len] and
      [off + len <= String.length base] (checked without overflow). *)
  val make : string -> off:int -> len:int -> t

  val length : t -> int
  val is_empty : t -> bool

  (** [get s i] is byte [i] of the view; raises [Invalid_argument] out
      of bounds. *)
  val get : t -> int -> char

  val to_string : t -> string

  (** Content equality (ignores how the view is backed). *)
  val equal : t -> t -> bool

  (** A hash of the view's bytes, so views equal by {!equal} hash alike:
      [Hashtbl.Make (Slice)] keys a table by bytes read in place. *)
  val hash : t -> int
end

(** Decoders are hardened against adversarial bytes: varints are bounded
    at 10 bytes and checked for word overflow, and length prefixes
    (strings, lists) are capped at the remaining input, so a forged frame
    can neither loop nor trigger a giant allocation — every such input
    raises [Malformed] instead. *)
module Dec : sig
  type t

  val of_string : string -> t

  (** [of_slice s] decodes directly out of [s]'s backing string with the
      bounds pinned to the view: every hardening check (varint caps,
      length-vs-remaining, no trailing bytes) holds at the slice edges, so a
      forged frame cannot read a neighbouring arena span. No copy. *)
  val of_slice : Slice.t -> t

  (** Bytes not yet consumed. *)
  val remaining : t -> int

  val uint : t -> int

  val int : t -> int
  val bool : t -> bool
  val string : t -> string
  val tag : t -> int

  (** {2 Cursor readers}

      A cursor reader reads [s] from [!pos], with the input ending at
      [limit], without a decoder or an exception: it returns [-1]
      exactly where its decoder counterpart raises [Malformed], leaving
      [pos] alone, and otherwise moves [pos] past what it read, just as
      the decoder would. It allocates nothing, so a scanner can judge a
      frame where its bytes lie with the codec's own accept set.
      Requires [0 <= !pos] and [limit <= String.length s]. *)

  (** [peek_uint s pos ~limit] is {!uint}: the value. *)
  val peek_uint : string -> int ref -> limit:int -> int

  (** [peek_uint_partial] is {!peek_uint} for a stream read so far: it
      returns [-2], not [-1], where {!uint} raises only because the
      input ends at [limit], so more bytes may yet complete the varint. *)
  val peek_uint_partial : string -> int ref -> limit:int -> int

  (** [peek_string s pos ~limit] is {!string}: the offset of the
      string's first byte. The string is [s.[off .. !pos)]. *)
  val peek_string : string -> int ref -> limit:int -> int

  (** [peek_last_string] is {!peek_string} for a string that must end
      the input, as {!decode} requires of a frame's last field: [-1]
      also where a byte trails it. *)
  val peek_last_string : string -> int ref -> limit:int -> int

  (** A field of a fixed run read by {!peek_fields}. *)
  type field =
    | Uint  (** read as {!uint} *)
    | Side  (** read as {!Wire.side}: a uint that is 0 or 1 *)

  (** [peek_fields s pos ~limit fields values] reads [fields] in order,
      as the decoders named there would, and leaves field [i]'s value in
      [values.(i)]: a [Side] field's is [Side.to_int] of the side. It
      returns the end of the run; after [-1], [values] may hold part of
      it. Raises [Invalid_argument] if [values] is shorter than
      [fields]. *)
  val peek_fields : string -> int ref -> limit:int -> field array -> int array -> int
end

(** A two-way codec for ['a]. *)
type 'a t = {
  write : Enc.t -> 'a -> unit;
  read : Dec.t -> 'a;
}

(** [encode c v] is the canonical byte string for [v]. Allocation-lean:
    serialization goes through a per-domain scratch encoder that is reused
    across calls (nested calls fall back to a fresh buffer), so the only
    per-call allocation is the returned string itself. *)
val encode : 'a t -> 'a -> string

(** [encode_into e c v] is {!encode} through a caller-owned encoder: [e]
    is {!Enc.reset}, [v] is written, and the bytes are returned. Hot loops
    that serialize many messages (the broadcast machines) keep one encoder
    per machine and reuse it for every message. *)
val encode_into : Enc.t -> 'a t -> 'a -> string

(** [decode c s] decodes a full message; any leftover bytes or malformed
    content yields [Error]. *)
val decode : 'a t -> string -> ('a, string) result

(** [decode_exn c s] raises [Malformed] instead of returning [Error]. *)
val decode_exn : 'a t -> string -> 'a

(** [decode_slice c s] is {!decode} over an arena span, zero-copy. *)
val decode_slice : 'a t -> Slice.t -> ('a, string) result

(** [decode_slice_exn c s] raises [Malformed] instead of [Error]. *)
val decode_slice_exn : 'a t -> Slice.t -> 'a

(* Primitive codecs. *)

val uint : int t
val int : int t
val bool : bool t
val string : string t
val unit : unit t

(** IEEE-754 bits as two 32-bit varint halves; canonical per bit pattern
    (nan payloads and signed zeros round-trip). *)
val float : float t

(* Combinators. *)

val list : 'a t -> 'a list t
val option : 'a t -> 'a option t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

(** [map ~inject ~project c] transports a codec along an isomorphism-ish
    pair; [inject] may raise [Malformed] to reject invalid decoded
    values. *)
val map : inject:('a -> 'b) -> project:('b -> 'a) -> 'a t -> 'b t

(** Variant codec: [variant ~name cases] where each case is a
    [case] built by [case tag codec ~inject ~match_]. Decoding an unknown
    tag raises [Malformed]. *)
type ('v, 'a) case_

val case : int -> 'a t -> inject:('a -> 'v) -> match_:('v -> 'a option) -> ('v, 'a) case_

type 'v packed_case

val pack : ('v, 'a) case_ -> 'v packed_case
val variant : name:string -> 'v packed_case list -> 'v t

(* Domain codecs for the prelude types. *)

val side : Bsm_prelude.Side.t t
val party_id : Bsm_prelude.Party_id.t t

(* Hex, for repro files and fuzz reports. *)

(** Lowercase hex of the bytes of [s]. *)
val to_hex : string -> string

(** Inverse of {!to_hex}; raises [Malformed] on odd length or non-hex
    digits. *)
val of_hex : string -> string
