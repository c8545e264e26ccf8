(** The phase-king byzantine agreement protocol (Π_King, Appendix A.6),
    generalized from the threshold adversary of Berman–Garay–Perry to
    arbitrary adversary structures in the style of Fitzi–Maurer (Lemma 4 /
    Theorem 10).

    The generalization replaces the counting conditions of the classic
    protocol by structure predicates:

    - "received [(value, v)] from at least [k − t] parties" becomes "the
      participants that did {e not} send [v] form a possibly-corrupt set";
    - "received [(propose, v)] from more than [t] parties" becomes "the
      senders of [(propose, v)] are {e not} a possibly-corrupt set" (such a
      set must contain an honest party);
    - the [t+1] kings become any participant sequence that is not possibly
      corrupt ({!Adversary_structure.king_sequence}).

    Under the Q3 condition the classical proof goes through unchanged (see
    DESIGN.md §4). With [Threshold t] and [3t < n] this {e is} the paper's
    Π_King, round-for-round, with [Δ_King = 3 · #kings] virtual rounds.

    Values are opaque byte strings compared for equality. *)

open Bsm_prelude

(** Wire messages shared by the phase-king family ({!Pi_ba}'s echo round
    and {!Pi_bb}'s sender round reuse the same variant so that composed
    protocols never collide on the wire). *)
module Msg : sig
  type t =
    | Value of string
    | Propose of string
    | King of string
    | Echo of string
    | Sender of string

  (** The tag byte each case encodes to, in declaration order (0 .. 4):
      the [~tag] a {!Votes} reader is given. *)

  val value_tag : int
  val propose_tag : int
  val king_tag : int
  val echo_tag : int
  val sender_tag : int
  val codec : t Bsm_wire.Wire.t
end

(** Votes read and counted in place in their payloads.

    {b Accept set.} A payload is a vote for tag [c] exactly when
    [Wire.decode Msg.codec] would decode it as the case of tag [c]: the
    byte [c], then a value {!Bsm_wire.Wire.Dec.peek_last_string} reads.
    Every other payload is no vote. The same holds for any variant whose
    cases are all [Wire.string], e.g. {!Gradecast.codec}.

    A round's groups live for one step: they point into that step's
    payloads and are dropped with them, and only a chosen value is
    copied out as a string. *)
module Votes : sig
  (** [body ~tag payload] is the offset of the value in [payload] when it
      is a vote for [tag] (the value fills the rest), else [-1]. *)
  val body : tag:int -> string -> int

  (** The votes for one value: its bytes, read in place, and the parties
      that cast them. *)
  type group

  (** [tally ~tag ~self ~own inbox] keeps the first message of each
      sender of [inbox] ({!Machine.first_per_sender}), reads the votes for
      [tag] among them and groups them by value bytes, in first-seen
      order; [own], when given, is [self]'s vote and comes first. *)
  val tally :
    tag:int ->
    self:Party_id.t ->
    own:string option ->
    (Party_id.t * string) list ->
    group list

  (** The parties that voted for the group's value. *)
  val supporters : group -> Party_set.t

  (** [pick pred groups] is the value of the group with the most
      supporters among those whose supporters satisfy [pred], the least
      value by [String.compare] breaking ties; [None] if no group
      qualifies. *)
  val pick : (Party_set.t -> bool) -> group list -> string option

  (** [first pred groups] is the value of the first group, in first-seen
      order, whose supporters satisfy [pred]. *)
  val first : (Party_set.t -> bool) -> group list -> string option

  (** [first_from ~tag sender inbox] is the value of the first message
      of [sender] in [inbox], in the whole inbox and not only its first
      message, that is a vote for [tag]. *)
  val first_from : tag:int -> Party_id.t -> (Party_id.t * string) list -> string option
end

type params = {
  structure : Adversary_structure.t;
  participants : Party_id.t list;  (** the parties running this instance *)
  kings : Party_id.t list;  (** king schedule; see {!rounds} *)
}

(** [params ~structure ~participants] with the default king sequence. *)
val params :
  structure:Adversary_structure.t -> participants:Party_id.t list -> params

(** Virtual rounds consumed: [3 · #kings]. *)
val rounds : params -> int

(** [make_with_peek p ~self ~others ~input] is one party's machine;
    output is the agreed value. [others] is {!Machine.others} [~self
    p.participants]. [peek] (second component) reads the party's current
    value — used by {!Pi_ba} to bolt on the echo round. *)
val make_with_peek :
  params ->
  self:Party_id.t ->
  others:Party_id.t list ->
  input:string ->
  string Machine.t * (unit -> string)

(** [make p ~self ~input] is the machine alone, broadcasting to its own
    {!Machine.others}. *)
val make : params -> self:Party_id.t -> input:string -> string Machine.t
