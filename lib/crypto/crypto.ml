open Bsm_prelude
module Wire = Bsm_wire.Wire

module Signature = struct
  type t = string (* 16-byte MD5 digest *)

  let equal = String.equal
  let codec = Wire.string
  let pp ppf t = Format.pp_print_string ppf (Digest.to_hex t)
  let byte_length = 16
end

(* A signature binds (secret, signer id, message): it is the MD5 digest of
   [secret ^ "\000" ^ id ^ "\000" ^ msg]. Including the id in the digest
   input means two parties with (impossibly) colliding secrets still
   produce distinct signatures. The part before [msg] depends only on the
   signer, so it is built once per party; each signature writes it and
   the message into one per-domain buffer and digests the buffer in
   place, building no intermediate string. *)
let prefix ~secret ~signer = secret ^ "\000" ^ Party_id.to_string signer ^ "\000"

let scratch_key = Domain.DLS.new_key (fun () -> ref (Bytes.create 256))

(* Don't let one huge message pin a large buffer for the domain's
   lifetime. *)
let retain_limit = 1 lsl 16

(* The one digest routine: [prefix ^ msg.[off .. off+len)]. [blit]
   copies the message range straight out of [msg] — a string, or the
   bytes of a [Wire.Enc.t] — into the scratch after the prefix, and
   raises [Invalid_argument] if the range is not within [msg]. *)
let digest prefix blit msg ~off ~len =
  let scratch = Domain.DLS.get scratch_key in
  let plen = String.length prefix in
  let total = plen + len in
  let raw = if Bytes.length !scratch >= total then !scratch else Bytes.create total in
  if total <= retain_limit then scratch := raw;
  Bytes.blit_string prefix 0 raw 0 plen;
  blit msg off raw plen len;
  Digest.subbytes raw 0 total

module Signer = struct
  type t = {
    id : Party_id.t;
    prefix : string;
  }

  let id t = t.id
  let sign_sub t e ~off ~len = digest t.prefix Wire.Enc.blit e ~off ~len
  let sign t msg = digest t.prefix Bytes.blit_string msg ~off:0 ~len:(String.length msg)
end

module Verifier = struct
  (* The signer's digest prefix; [None] for a party outside the setup. *)
  type t = { prefix_of : Party_id.t -> string option }

  let check t ~signer blit msg ~off ~len signature =
    match t.prefix_of signer with
    | Some prefix -> Signature.equal signature (digest prefix blit msg ~off ~len)
    | None -> false

  let verify_sub t ~signer e ~off ~len signature =
    check t ~signer Wire.Enc.blit e ~off ~len signature

  let verify t ~signer ~msg signature =
    check t ~signer Bytes.blit_string msg ~off:0 ~len:(String.length msg) signature
end

module Pki = struct
  type t = {
    k : int;
    prefixes : string array; (* dense-indexed digest prefixes *)
  }

  let setup ~k ~seed =
    let rng = Rng.make (seed lxor 0x51674) in
    let secret _ = String.init 16 (fun _ -> Char.chr (Rng.int rng 256)) in
    let secrets = Array.init (2 * k) secret in
    {
      k;
      prefixes =
        Array.mapi (fun i secret -> prefix ~secret ~signer:(Party_id.of_dense ~k i)) secrets;
    }

  let prefix_of t p =
    let i = Party_id.index p in
    if i >= t.k then None
    else Some t.prefixes.(Party_id.to_dense ~k:t.k p)

  let signer t p =
    match prefix_of t p with
    | Some prefix -> { Signer.id = p; prefix }
    | None -> invalid_arg "Pki.signer: party outside setup"

  let verifier t = { Verifier.prefix_of = prefix_of t }
end

module Signed = struct
  type 'a t = {
    value : 'a;
    signer : Party_id.t;
    signature : Signature.t;
  }

  let make signer codec value =
    let msg = Wire.encode codec value in
    { value; signer = Signer.id signer; signature = Signer.sign signer msg }

  let valid verifier codec t =
    let msg = Wire.encode codec t.value in
    Verifier.verify verifier ~signer:t.signer ~msg t.signature

  let codec payload =
    Wire.map
      ~inject:(fun ((value, signer), signature) -> { value; signer; signature })
      ~project:(fun t -> (t.value, t.signer), t.signature)
      (Wire.pair (Wire.pair payload Wire.party_id) Signature.codec)
end
