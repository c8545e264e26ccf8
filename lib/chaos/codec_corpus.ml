open Bsm_prelude
module Wire = Bsm_wire.Wire
module Fuzz = Bsm_wire.Fuzz
module Crypto = Bsm_crypto.Crypto
module SM = Bsm_stable_matching
module Core = Bsm_core
module B = Bsm_broadcast
module Sweep = Bsm_harness.Sweep
module Topology = Bsm_topology.Topology

(* --- shared generators --------------------------------------------------- *)

let gen_bytes ?(max_len = 12) rng =
  String.init (Rng.int rng (max_len + 1)) (fun _ -> Char.chr (Rng.int rng 256))

let gen_party rng =
  Party_id.make (if Rng.bool rng then Side.Left else Side.Right) (Rng.int rng 16)

let gen_rate rng = float_of_int (Rng.int rng 101) /. 100.

let gen_float rng =
  (* A spread of magnitudes plus the IEEE specials. *)
  match Rng.int rng 6 with
  | 0 -> 0.
  | 1 -> -0.
  | 2 -> Float.of_int (Rng.int rng 1_000_000 - 500_000)
  | 3 -> gen_rate rng
  | 4 -> Float.infinity
  | _ -> Float.nan

(* One PKI per corpus instantiation: signatures are deterministic in
   (seed, party, bytes), so entries stay replayable. *)
let pki = lazy (Crypto.Pki.setup ~k:4 ~seed:42)

let gen_signature rng =
  let pki = Lazy.force pki in
  let p = Party_id.make (if Rng.bool rng then Side.Left else Side.Right) (Rng.int rng 4) in
  Crypto.Signer.sign (Crypto.Pki.signer pki p) (gen_bytes rng)

let gen_schedule rng =
  let gen_atom rng =
    match Rng.int rng 9 with
    | 0 -> Schedule.bernoulli ~rate:(gen_rate rng)
    | 1 -> Schedule.crash (gen_party rng) ~at_round:(Rng.int rng 8)
    | 2 -> Schedule.send_omission ~rate:(gen_rate rng) (gen_party rng)
    | 3 -> Schedule.receive_omission ~rate:(gen_rate rng) (gen_party rng)
    | 4 ->
      let lo = Rng.int rng 6 in
      Schedule.partition ~from_round:lo
        ~until_round:(lo + 1 + Rng.int rng 6)
        [ gen_party rng ] [ gen_party rng ]
    | 5 ->
      let lo = Rng.int rng 6 in
      Schedule.blackout ~from_round:lo ~until_round:(lo + 1 + Rng.int rng 6)
    | 6 ->
      Schedule.corrupt ~rate:(gen_rate rng)
        ~kind:(Rng.choose rng Mutation.all_kinds)
        (gen_party rng)
    | 7 ->
      (* rate > 0: corrupt_state prunes a zero rate to Never, which the
         canonical codec round-trips as the empty schedule. *)
      Schedule.corrupt_state
        ~rate:(float_of_int (1 + Rng.int rng 100) /. 100.)
        (gen_party rng)
        ~at_round:(1 + Rng.int rng 8)
    | _ -> Schedule.sabotage (gen_party rng) ~at_round:(Rng.int rng 8)
  in
  let rec go depth =
    if depth = 0 || Rng.int rng 3 = 0 then gen_atom rng
    else
      match Rng.int rng 3 with
      | 0 -> Schedule.union (go (depth - 1)) (go (depth - 1))
      | 1 ->
        let lo = Rng.int rng 6 in
        Schedule.during ~from_round:lo ~until_round:(lo + 1 + Rng.int rng 6) (go (depth - 1))
      | _ ->
        Schedule.restrict_to_side
          (if Rng.bool rng then Side.Left else Side.Right)
          (go (depth - 1))
  in
  go (Rng.int rng 3)

let gen_setting rng =
  let k = 1 + Rng.int rng 4 in
  Core.Setting.make_exn ~k
    ~topology:(Rng.choose rng Topology.all)
    ~auth:(if Rng.bool rng then Core.Setting.Unauthenticated else Core.Setting.Authenticated)
    ~t_left:(Rng.int rng (k + 1))
    ~t_right:(Rng.int rng (k + 1))

let gen_repro rng =
  let case =
    Sweep.case ~label:(gen_bytes ~max_len:8 rng) ~profile_seed:(Rng.int rng 1000)
      ~scenario_seed:(Rng.int rng 1000)
      ~adversary:(if Rng.bool rng then Sweep.Honest else Sweep.Random_coalition)
      (gen_setting rng)
  in
  {
    Repro.case;
    schedule = gen_schedule rng;
    seed = Rng.int rng 1000;
    max_rounds = (if Rng.bool rng then Some (1 + Rng.int rng 100) else None);
    expected = Rng.choose rng [ Oracle.Ok; Oracle.Expected_degradation; Oracle.Violation ];
    fingerprint = gen_bytes ~max_len:32 rng;
  }

(* --- the corpus ---------------------------------------------------------- *)

let e = Fuzz.entry

(* Re-route a codec's decode path through an arena-slice view. The value
   is encoded as a length-prefixed body; decoding reads the body, embeds
   it mid-base between continuation-heavy sentinel bytes (standing in for
   the neighbouring frames of a shared arena), and decodes the span with
   [decode_slice_exn]. Fuzz mutations on the outer bytes then probe the
   slice machinery directly: a flipped length prefix moves the span
   boundary, and a decoder that walked past the pinned limit would read
   the sentinels instead of raising [Wire.Malformed]. *)
let via_slice (codec : 'a Wire.t) : 'a Wire.t =
  let sentinel = String.make 9 '\xff' in
  {
    Wire.write = (fun enc v -> Wire.Enc.string enc (Wire.encode codec v));
    read =
      (fun dec ->
        let body = Wire.Dec.string dec in
        let base = sentinel ^ body ^ sentinel in
        let span =
          Wire.Slice.make base ~off:(String.length sentinel)
            ~len:(String.length body)
        in
        Wire.decode_slice_exn codec span);
  }

let entries () =
  [
    (* Wire primitives: the building blocks under every protocol codec. *)
    e ~name:"wire.uint" ~gen:(fun rng -> Rng.int rng 0x3FFFFFFF) ~equal:Int.equal Wire.uint;
    e ~name:"wire.int"
      ~gen:(fun rng -> Rng.int rng 0x3FFFFFFF - 0x20000000)
      ~equal:Int.equal Wire.int;
    e ~name:"wire.string" ~gen:(gen_bytes ~max_len:24) ~equal:String.equal Wire.string;
    e ~name:"wire.float" ~gen:gen_float
      ~equal:(fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
      Wire.float;
    e ~name:"wire.list-int"
      ~gen:(fun rng -> List.init (Rng.int rng 8) (fun _ -> Rng.int rng 1000 - 500))
      ~equal:(List.equal Int.equal) (Wire.list Wire.int);
    e ~name:"wire.party-id" ~gen:gen_party ~equal:Party_id.equal Wire.party_id;
    e ~name:"wire.decision"
      ~gen:(fun rng -> if Rng.bool rng then Some (gen_party rng) else None)
      ~equal:(Option.equal Party_id.equal) Core.Problem.decision_codec;
    (* Broadcast-layer messages. *)
    e ~name:"phase-king.msg"
      ~gen:(fun rng ->
        let b = gen_bytes rng in
        match Rng.int rng 5 with
        | 0 -> B.Phase_king.Msg.Value b
        | 1 -> B.Phase_king.Msg.Propose b
        | 2 -> B.Phase_king.Msg.King b
        | 3 -> B.Phase_king.Msg.Echo b
        | _ -> B.Phase_king.Msg.Sender b)
      ~equal:( = ) B.Phase_king.Msg.codec;
    e ~name:"gradecast.msg"
      ~gen:(fun rng ->
        let b = gen_bytes rng in
        match Rng.int rng 3 with
        | 0 -> B.Gradecast.Value b
        | 1 -> B.Gradecast.Echo b
        | _ -> B.Gradecast.Ready b)
      ~equal:( = ) B.Gradecast.codec;
    e ~name:"dolev-strong.chain"
      ~gen:(fun rng ->
        {
          B.Dolev_strong.Chain.value = gen_bytes rng;
          links =
            List.init (Rng.int rng 4) (fun _ -> gen_party rng, gen_signature rng);
        })
      ~equal:( = ) B.Dolev_strong.Chain.codec;
    (* Π_bSM and channel frames. *)
    e ~name:"pi-bsm.msg"
      ~gen:(fun rng ->
        if Rng.bool rng then Core.Pi_bsm.Msg.Prefs (gen_bytes rng)
        else
          Core.Pi_bsm.Msg.Suggest
            (if Rng.bool rng then Some (gen_party rng) else None))
      ~equal:( = ) Core.Pi_bsm.Msg.codec;
    e ~name:"channels.relay"
      ~gen:(fun rng ->
        let payload () =
          {
            Core.Channels.src = gen_party rng;
            dst = gen_party rng;
            vround = Rng.int rng 64;
            id = Rng.int rng 64;
            body = gen_bytes rng;
            signature = (if Rng.bool rng then Some (gen_signature rng) else None);
          }
        in
        match Rng.int rng 3 with
        | 0 -> Core.Channels.Direct (gen_bytes rng)
        | 1 -> Core.Channels.Request (payload ())
        | _ -> Core.Channels.Forward (payload ()))
      ~equal:( = ) Core.Channels.relay_codec;
    (* Crypto envelopes. *)
    e ~name:"crypto.signature" ~gen:gen_signature ~equal:Crypto.Signature.equal
      Crypto.Signature.codec;
    e ~name:"crypto.signed-string"
      ~gen:(fun rng ->
        let pki = Lazy.force pki in
        let p = Party_id.make Side.Left (Rng.int rng 4) in
        Crypto.Signed.make (Crypto.Pki.signer pki p) Wire.string (gen_bytes rng))
      ~equal:( = )
      (Crypto.Signed.codec Wire.string);
    (* Stable-matching payloads. *)
    e ~name:"sm.prefs"
      ~gen:(fun rng -> SM.Prefs.random rng (1 + Rng.int rng 6))
      ~equal:SM.Prefs.equal SM.Prefs.codec;
    e ~name:"sm.profile"
      ~gen:(fun rng -> SM.Profile.random rng (1 + Rng.int rng 4))
      ~equal:SM.Profile.equal SM.Profile.codec;
    e ~name:"sm.matching"
      ~gen:(fun rng ->
        SM.Matching.of_l2r_exn (Array.of_list (Rng.permutation rng (1 + Rng.int rng 6))))
      ~equal:SM.Matching.equal SM.Matching.codec;
    (* Arena-slice views: the same decoders the engine's message plane
       runs zero-copy out of the per-round frame arena, with mutations
       landing on the span boundaries. *)
    e ~name:"slice.uint" ~gen:(fun rng -> Rng.int rng 0x3FFFFFFF) ~equal:Int.equal
      (via_slice Wire.uint);
    e ~name:"slice.string" ~gen:(gen_bytes ~max_len:24) ~equal:String.equal
      (via_slice Wire.string);
    e ~name:"slice.list-int"
      ~gen:(fun rng -> List.init (Rng.int rng 8) (fun _ -> Rng.int rng 1000 - 500))
      ~equal:(List.equal Int.equal)
      (via_slice (Wire.list Wire.int));
    e ~name:"slice.channels.relay"
      ~gen:(fun rng ->
        match Rng.int rng 3 with
        | 0 -> Core.Channels.Direct (gen_bytes rng)
        | _ ->
          Core.Channels.Request
            {
              Core.Channels.src = gen_party rng;
              dst = gen_party rng;
              vround = Rng.int rng 64;
              id = Rng.int rng 64;
              body = gen_bytes rng;
              signature = (if Rng.bool rng then Some (gen_signature rng) else None);
            })
      ~equal:( = )
      (via_slice Core.Channels.relay_codec);
    e ~name:"slice.pi-bsm.msg"
      ~gen:(fun rng ->
        if Rng.bool rng then Core.Pi_bsm.Msg.Prefs (gen_bytes rng)
        else
          Core.Pi_bsm.Msg.Suggest
            (if Rng.bool rng then Some (gen_party rng) else None))
      ~equal:( = )
      (via_slice Core.Pi_bsm.Msg.codec);
    (* The chaos subsystem's own serialized forms. *)
    e ~name:"chaos.mutation-kind"
      ~gen:(fun rng -> Rng.choose rng Mutation.all_kinds)
      ~equal:Mutation.equal_kind Mutation.codec;
    e ~name:"chaos.schedule" ~gen:gen_schedule ~equal:( = ) Schedule.codec;
    e ~name:"chaos.recovery"
      ~gen:(fun rng ->
        match Rng.int rng 3 with
        | 0 -> Oracle.Recovered (Rng.int rng 64)
        | 1 -> Oracle.Stuck
        | _ -> Oracle.Violated)
      ~equal:( = ) Oracle.recovery_codec;
    e ~name:"chaos.repro" ~gen:gen_repro ~equal:( = ) Repro.codec;
  ]
