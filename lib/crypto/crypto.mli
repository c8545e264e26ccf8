(** Simulated digital signatures and PKI.

    The paper assumes idealized unforgeable signatures ("for simplicity of
    presentation, we assume that signatures are unforgeable"). We implement
    that ideal functionality directly: a trusted setup generates a secret
    per party; a signature is a keyed digest over (signer id, message); a
    party's signing power is handed to its fiber as a closure, so byzantine
    code can sign only as itself. Verification is a separate capability that
    does not expose secrets. See DESIGN.md §4 for the substitution note.

    Signatures are deterministic, so protocols that compare or deduplicate
    signed messages behave reproducibly. *)

module Signature : sig
  (** The digest's bytes. Private: a signature can be read (a frame
      writer copies it onto the wire) but only made by a {!Signer} or
      decoded by {!codec}. *)
  type t = private string

  val equal : t -> t -> bool
  val codec : t Bsm_wire.Wire.t
  val pp : Format.formatter -> t -> unit

  (** Byte length of any signature on the wire (fixed-size digests). *)
  val byte_length : int
end

module Signer : sig
  (** The signing capability of one party. *)
  type t

  val id : t -> Bsm_prelude.Party_id.t

  (** [sign t msg] signs the raw bytes [msg] as [id t]. *)
  val sign : t -> string -> Signature.t

  (** [sign_sub t e ~off ~len] is [sign t] of bytes [off .. off+len) of
      the encoder [e], without a copy of them: the one digest routine
      {!sign} uses copies them straight out of [e], so both give the
      same signature for the same bytes. Raises [Invalid_argument] if
      the range is not within [e]. *)
  val sign_sub : t -> Bsm_wire.Wire.Enc.t -> off:int -> len:int -> Signature.t
end

module Verifier : sig
  (** The public verification capability; safe to hand to any fiber. *)
  type t

  (** [verify t ~signer ~msg signature] checks that [signature] is the
      unique valid signature of [signer] on [msg]. Unknown signers verify
      as [false]. *)
  val verify : t -> signer:Bsm_prelude.Party_id.t -> msg:string -> Signature.t -> bool

  (** [verify_sub t ~signer e ~off ~len signature] is {!verify} of bytes
      [off .. off+len) of the encoder [e], read by the same digest as
      {!Signer.sign_sub}. The range must lie within [e]. *)
  val verify_sub :
    t ->
    signer:Bsm_prelude.Party_id.t ->
    Bsm_wire.Wire.Enc.t ->
    off:int ->
    len:int ->
    Signature.t ->
    bool
end

module Pki : sig
  (** A trusted setup for one protocol execution. *)
  type t

  (** [setup ~k ~seed] generates keys for the [2k] parties of an
      instance. *)
  val setup : k:int -> seed:int -> t

  (** [signer t p] is [p]'s private signing capability. Raises
      [Invalid_argument] for parties outside the setup. *)
  val signer : t -> Bsm_prelude.Party_id.t -> Signer.t

  val verifier : t -> Verifier.t
end

module Signed : sig
  (** A value carried together with a signature over its canonical
      encoding. *)
  type 'a t = {
    value : 'a;
    signer : Bsm_prelude.Party_id.t;
    signature : Signature.t;
  }

  (** [make signer codec value] signs [Wire.encode codec value]. *)
  val make : Signer.t -> 'a Bsm_wire.Wire.t -> 'a -> 'a t

  (** [valid verifier codec t] re-encodes and verifies. *)
  val valid : Verifier.t -> 'a Bsm_wire.Wire.t -> 'a t -> bool

  val codec : 'a Bsm_wire.Wire.t -> 'a t Bsm_wire.Wire.t
end
