(** Virtual channel simulation — Lemmas 6, 8 and 10.

    When a topology leaves two parties [u], [v] of the same side without a
    channel, [u] reaches [v] through the opposite side: [u] sends a relay
    {e request} to every opposite party, which {e forwards} it to [v].
    Acceptance at [v] depends on the setting:

    - {b Majority} (Lemma 6, unauthenticated): [v] accepts a message
      received identically from strictly more than [k/2] distinct
      forwarders — sound while the forwarding side has an honest majority.
    - {b Signed} (Lemmas 8/10, authenticated): requests carry the sender's
      signature over [(src, dst, vround, id, body)]; [v] accepts any
      correctly-signed forward. The signature covers the payload codec's
      canonical bytes of the payload with its signature blanked, which
      are the request frame's bytes after its tag up to and including
      the [None] byte. One writer produces those bytes for the signer
      and, from a received copy's parsed values, for the verifier: the
      sender signs them where they lie in its encoder, and a receiver
      judges each copy in place with [Wire]'s cursor readers and the
      payload codec's signature codec, exactly as {!relay_codec} accepts
      it, then verifies over the rebuilt canonical bytes, so a copy
      with padded varints is judged as decoding and re-encoding it would
      judge it. The virtual-round stamp [vround] is the
      paper's timestamp τ: a forward arriving outside the immediately
      following virtual round is discarded (an {e omission}), and the [id]
      makes replays detectable — exactly Lemma 10's guarantee that the
      simulated network is reliable up to omissions, and omission-free as
      soon as one forwarder is honest.

    One virtual round costs [stride topology] engine rounds (2 when any
    relaying is needed, 1 on a fully-connected network); direct channels
    are slowed down to the same cadence so that all parties stay in
    lockstep — this is why the paper's Lemma 6/8 reductions state a
    uniform [2Δ] delay.

    Forwarders relay without verifying signatures (the receiver verifies);
    a request is only forwarded when it arrives directly from its claimed
    source, which the majority mode needs for soundness. *)

module Engine := Bsm_runtime.Engine
module Net := Bsm_runtime.Net

type auth_mode =
  | Majority
  | Signed of {
      signer : Bsm_crypto.Crypto.Signer.t;
      verifier : Bsm_crypto.Crypto.Verifier.t;
    }

(** Engine rounds per virtual round: 1 on fully-connected, 2 otherwise. *)
val stride : Bsm_topology.Topology.t -> int

(** [virtual_net env ~topology ~auth] — a {!Net.t} giving [env.self] a
    (simulated) channel to every other party. Calling [sync] also serves
    this party's own forwarding duty for the opposite side. *)
val virtual_net :
  Engine.env -> topology:Bsm_topology.Topology.t -> auth:auth_mode -> Net.t

(** [forward_duty env ~topology envelope] — the forwarding role in
    isolation: if [envelope] is a relay request from its true source whose
    destination [env.self] can reach, forward it. Used by parties (the [R]
    side of Π_bSM) that relay without running machines themselves. Apply
    it to [env] and [topology] once and reuse the result: the partial
    application owns the header reader every call shares. *)
val forward_duty :
  Engine.env -> topology:Bsm_topology.Topology.t -> Engine.envelope -> unit

(** {2 Wire format}

    The relay frame format, exposed so the decoder fuzzer can exercise
    the exact bytes this module puts on (and accepts from) the network.
    Protocol code never needs these — it talks through {!virtual_net}. *)

type payload = {
  src : Bsm_prelude.Party_id.t;
  dst : Bsm_prelude.Party_id.t;
  vround : int;
  id : int;
  body : string;
  signature : Bsm_crypto.Crypto.Signature.t option;
}

type relay =
  | Direct of string
  | Request of payload
  | Forward of payload

val relay_codec : relay Bsm_wire.Wire.t

(** The fixed-position header of a [Request] or [Forward] frame — the
    [(src, dst, vround, id)] prefix of its payload, right after the
    variant tag — read in place without touching the body. Relays use it
    to decide whether to forward, and signed receivers to skip stale or
    duplicate copies before any body decode or signature check. *)
module Header : sig
  (** A reusable reader: {!read} overwrites the fields. [pos] is the
      scan cursor and [values] the run {!Bsm_wire.Wire.Dec.peek_fields}
      fills. *)
  type t = {
    mutable src_side : Bsm_prelude.Side.t;
    mutable src_index : int;
    mutable dst_side : Bsm_prelude.Side.t;
    mutable dst_index : int;
    mutable vround : int;
    mutable id : int;
    pos : int ref;
    values : int array;
  }

  val create : unit -> t

  (** [read h frame] skips the tag byte (any value) and reads both party
      ids and both uints of [frame] with one
      {!Bsm_wire.Wire.Dec.peek_fields} call, so it is [true] exactly when
      {!relay_codec}'s decoder gets through them; it then leaves the
      decoded values in [h]'s fields. The body is neither read nor
      checked, and nothing is allocated. Indices are not checked against
      any roster: a forged frame may name a party outside it. *)
  val read : t -> Bsm_wire.Wire.Slice.t -> bool
end
