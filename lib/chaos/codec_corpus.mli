(** The codec corpus for the decoder fuzzer.

    One {!Bsm_wire.Fuzz.entry} per codec that ever touches the network
    (broadcast messages, Π_bSM messages, channel relay frames, signed
    envelopes, stable-matching payloads) plus the wire primitives and the
    chaos subsystem's own serialized forms (schedules, repro records).
    The serve frames live in a library above this one, so they are not
    listed here: [make fuzz-quick], [bsm fuzz] and the tier-1 fuzz test
    all fuzz [entries () @ Bsm_serve.Frame.fuzz_entries]. Adding a codec
    to either list is all it takes to put it under fuzz. *)

val entries : unit -> Bsm_wire.Fuzz.entry list
