(* Tests for the simulated signature scheme: correctness, binding to
   signer and message, determinism, and the Signed wrapper. *)

open Bsm_prelude
module Crypto = Bsm_crypto.Crypto
module Wire = Bsm_wire.Wire

let pki = Crypto.Pki.setup ~k:3 ~seed:1
let verifier = Crypto.Pki.verifier pki

let test_sign_verify () =
  let p = Party_id.left 1 in
  let signer = Crypto.Pki.signer pki p in
  let signature = Crypto.Signer.sign signer "message" in
  Alcotest.(check bool) "verifies" true
    (Crypto.Verifier.verify verifier ~signer:p ~msg:"message" signature)

let test_signature_binds_message () =
  let p = Party_id.left 0 in
  let signature = Crypto.Signer.sign (Crypto.Pki.signer pki p) "message" in
  Alcotest.(check bool) "other message fails" false
    (Crypto.Verifier.verify verifier ~signer:p ~msg:"other" signature)

let test_signature_binds_signer () =
  let signature = Crypto.Signer.sign (Crypto.Pki.signer pki (Party_id.left 0)) "m" in
  Alcotest.(check bool) "other signer fails" false
    (Crypto.Verifier.verify verifier ~signer:(Party_id.left 1) ~msg:"m" signature)

let test_unknown_signer_rejected () =
  let signature = Crypto.Signer.sign (Crypto.Pki.signer pki (Party_id.left 0)) "m" in
  Alcotest.(check bool) "outside roster" false
    (Crypto.Verifier.verify verifier ~signer:(Party_id.left 99) ~msg:"m" signature)

let test_cross_pki_rejected () =
  (* A signature from a different trusted setup must not verify. *)
  let other = Crypto.Pki.setup ~k:3 ~seed:2 in
  let p = Party_id.right 2 in
  let signature = Crypto.Signer.sign (Crypto.Pki.signer other p) "m" in
  Alcotest.(check bool) "cross-setup" false
    (Crypto.Verifier.verify verifier ~signer:p ~msg:"m" signature)

let test_deterministic_signing () =
  let p = Party_id.right 0 in
  let s1 = Crypto.Signer.sign (Crypto.Pki.signer pki p) "m" in
  let s2 = Crypto.Signer.sign (Crypto.Pki.signer pki p) "m" in
  Alcotest.(check bool) "same signature" true (Crypto.Signature.equal s1 s2)

let test_setup_deterministic_in_seed () =
  let a = Crypto.Pki.setup ~k:2 ~seed:5 and b = Crypto.Pki.setup ~k:2 ~seed:5 in
  let p = Party_id.left 1 in
  Alcotest.(check bool) "same keys" true
    (Crypto.Signature.equal
       (Crypto.Signer.sign (Crypto.Pki.signer a p) "m")
       (Crypto.Signer.sign (Crypto.Pki.signer b p) "m"))

let test_signer_outside_setup_rejected () =
  match Crypto.Pki.signer pki (Party_id.left 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "issued a signer outside the setup"

let test_signed_wrapper () =
  let p = Party_id.left 2 in
  let signer = Crypto.Pki.signer pki p in
  let signed = Crypto.Signed.make signer Wire.string "payload" in
  Alcotest.(check bool) "valid" true (Crypto.Signed.valid verifier Wire.string signed);
  (* Tampering with the value invalidates it. *)
  let tampered = { signed with Crypto.Signed.value = "other" } in
  Alcotest.(check bool) "tampered" false
    (Crypto.Signed.valid verifier Wire.string tampered);
  (* Claiming a different signer invalidates it. *)
  let reattributed = { signed with Crypto.Signed.signer = Party_id.left 0 } in
  Alcotest.(check bool) "reattributed" false
    (Crypto.Signed.valid verifier Wire.string reattributed)

let test_signed_codec_roundtrip () =
  let p = Party_id.right 1 in
  let signed = Crypto.Signed.make (Crypto.Pki.signer pki p) Wire.string "v" in
  let codec = Crypto.Signed.codec Wire.string in
  match Wire.decode codec (Wire.encode codec signed) with
  | Ok signed' ->
    Alcotest.(check bool) "still valid" true
      (Crypto.Signed.valid verifier Wire.string signed')
  | Error e -> Alcotest.fail e

let test_signature_byte_length () =
  let signature = Crypto.Signer.sign (Crypto.Pki.signer pki (Party_id.left 0)) "m" in
  let encoded = Wire.encode Crypto.Signature.codec signature in
  (* length-prefixed digest: 1 length byte + 16 digest bytes *)
  Alcotest.(check int) "16-byte digest" (Crypto.Signature.byte_length + 1)
    (String.length encoded)

(* Signatures are digests of [secret ^ "\000" ^ id ^ "\000" ^ msg]; these
   values were computed with that expression built by string
   concatenation. Signing from the per-domain buffer, by string or by
   codec, must reproduce them byte for byte, including past the buffer's
   initial and retained sizes and for a party index outside the
   interned range. *)
let test_signatures_pinned () =
  let hex s = Format.asprintf "%a" Crypto.Signature.pp s in
  let pki = Crypto.Pki.setup ~k:3 ~seed:11 in
  let signer p = Crypto.Pki.signer pki p in
  let l0 = signer (Party_id.left 0) and r1 = signer (Party_id.right 1) in
  let r2 = signer (Party_id.right 2) in
  let check label expected signature = Alcotest.(check string) label expected (hex signature) in
  check "L0 hello" "06f6bdc2882b578bb612b4dd279f161a" (Crypto.Signer.sign l0 "hello");
  check "R2 empty" "86ab12d41b2ea639bec4c6c62d0f5ce4" (Crypto.Signer.sign r2 "");
  check "R2 1000 bytes" "1e6f136b0c6fd10e137cd3d44820cc1d"
    (Crypto.Signer.sign r2 (String.make 1000 'z'));
  check "R1 70000 bytes" "0442dfc80e47c7e782962761c0e1b22c"
    (Crypto.Signer.sign r1 (String.make 70000 'y'));
  check "L0 signed list" "b81ecda981bb93098484f7f9cec0fa1c"
    (Crypto.Signed.make l0 (Wire.list Wire.uint) [ 1; 2; 300 ]).Crypto.Signed.signature;
  let big = Crypto.Signed.make r1 Wire.string (String.make 70000 'q') in
  check "R1 signed 70000 bytes" "4d4e4c3f19668d432b800b86f266b643" big.Crypto.Signed.signature;
  Alcotest.(check bool) "big signed value verifies" true
    (Crypto.Signed.valid (Crypto.Pki.verifier pki) Wire.string big);
  let wide = Crypto.Pki.setup ~k:200 ~seed:3 in
  check "L150 abc" "e3a8df009e79f7b01158bf2b4c3c334c"
    (Crypto.Signer.sign (Crypto.Pki.signer wide (Party_id.left 150)) "abc")

let () =
  Alcotest.run "crypto"
    [
      ( "signatures",
        [
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "binds message" `Quick test_signature_binds_message;
          Alcotest.test_case "binds signer" `Quick test_signature_binds_signer;
          Alcotest.test_case "unknown signer" `Quick test_unknown_signer_rejected;
          Alcotest.test_case "cross-PKI rejected" `Quick test_cross_pki_rejected;
          Alcotest.test_case "deterministic" `Quick test_deterministic_signing;
          Alcotest.test_case "digests pinned" `Quick test_signatures_pinned;
          Alcotest.test_case "setup deterministic in seed" `Quick
            test_setup_deterministic_in_seed;
          Alcotest.test_case "signer outside setup" `Quick
            test_signer_outside_setup_rejected;
        ] );
      ( "signed-values",
        [
          Alcotest.test_case "wrapper validity" `Quick test_signed_wrapper;
          Alcotest.test_case "codec roundtrip" `Quick test_signed_codec_roundtrip;
          Alcotest.test_case "signature byte length" `Quick test_signature_byte_length;
        ] );
    ]
