(** The Dolev–Strong authenticated broadcast protocol (Theorem 5's
    engine): byzantine broadcast tolerating any number [t < n] of
    corruptions, given PKI, in [t + 1] rounds.

    The sender signs its value; a party that accepts a value with a chain
    of [r] valid signatures from [r] distinct parties (the first being the
    sender) in round [r] appends its own signature and relays. A party
    decides the unique value it accepted, or [default] when it accepted
    zero or several (the latter proves the sender byzantine).

    Signature chains make the protocol's messages grow to
    O(t · |signature|) bytes — visible in the communication-complexity
    experiment (EXPERIMENTS.md, T3).

    {b Skip rule.} A step drops a chain it has no use for before
    decoding it: every chain once two values are extracted, and a chain
    whose value field, [Chain.codec]'s first field read in place with
    [Wire.Dec.peek_string], equals an extracted value. Decoding such a
    chain would have changed nothing. A value field that cannot be read
    falls through to the decode, which rejects it. *)

open Bsm_prelude

type params = {
  participants : Party_id.t list;
  t : int;  (** corruption bound; the protocol runs [t + 1] rounds *)
  verifier : Bsm_crypto.Crypto.Verifier.t;
}

val rounds : params -> int

(** [make p ?others ~signer ~sender ~input ~default] — [input] is
    consulted only by the sender; [others] defaults to {!Machine.others}
    [~self p.participants] for the signer's [self], and a party making
    several machines over one participant set passes that one list to
    each. *)
val make :
  ?others:Party_id.t list ->
  params ->
  signer:Bsm_crypto.Crypto.Signer.t ->
  sender:Party_id.t ->
  input:string ->
  default:string ->
  string Machine.t

(** Exposed for byzantine strategies in tests: a signature chain for
    [value] as produced by honest relays. [sign_onto] appends one link. *)
module Chain : sig
  type t = {
    value : string;
    links : (Party_id.t * Bsm_crypto.Crypto.Signature.t) list;
  }

  val codec : t Bsm_wire.Wire.t
  val start : Bsm_crypto.Crypto.Signer.t -> string -> t
  val sign_onto : Bsm_crypto.Crypto.Signer.t -> t -> t

  (** [valid p ~sender ~length chain] — [length] distinct signers, first is
      [sender], every link verifies. *)
  val valid : params -> sender:Party_id.t -> length:int -> t -> bool
end
