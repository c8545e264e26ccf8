(* End-to-end tests for the bSM core: the solvability characterization,
   the virtual-channel layers, and full protocol executions across all six
   (topology × authentication) settings under byzantine coalitions. *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module H = Bsm_harness
module Engine = Bsm_runtime.Engine
module Topology = Bsm_topology.Topology
module B = Bsm_broadcast
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto

let setting ~k ~topology ~auth ~tl ~tr =
  Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr

let all_settings ~k =
  List.concat_map
    (fun topology ->
      List.concat_map
        (fun auth ->
          List.concat_map
            (fun tl ->
              List.map
                (fun tr -> setting ~k ~topology ~auth ~tl ~tr)
                (Util.range 0 (k + 1)))
            (Util.range 0 (k + 1)))
        [ Core.Setting.Unauthenticated; Core.Setting.Authenticated ])
    Topology.all

(* --- solvability predicate ---------------------------------------------- *)

let test_solvability_spot_checks () =
  let check ~expected s =
    if Core.Solvability.solvable s <> expected then
      Alcotest.failf "wrong verdict for %s" (Format.asprintf "%a" Core.Setting.pp s)
  in
  let u = Core.Setting.Unauthenticated and a = Core.Setting.Authenticated in
  (* Theorem 2 *)
  check ~expected:true (setting ~k:3 ~topology:Topology.Fully_connected ~auth:u ~tl:0 ~tr:3);
  check ~expected:true (setting ~k:4 ~topology:Topology.Fully_connected ~auth:u ~tl:1 ~tr:4);
  check ~expected:false (setting ~k:3 ~topology:Topology.Fully_connected ~auth:u ~tl:1 ~tr:1);
  (* Theorem 3 *)
  check ~expected:true (setting ~k:5 ~topology:Topology.Bipartite ~auth:u ~tl:1 ~tr:2);
  check ~expected:false (setting ~k:5 ~topology:Topology.Bipartite ~auth:u ~tl:1 ~tr:3);
  check ~expected:false (setting ~k:6 ~topology:Topology.Bipartite ~auth:u ~tl:2 ~tr:2);
  (* Theorem 4 *)
  check ~expected:true (setting ~k:5 ~topology:Topology.One_sided ~auth:u ~tl:1 ~tr:2);
  check ~expected:true (setting ~k:5 ~topology:Topology.One_sided ~auth:u ~tl:5 ~tr:1);
  check ~expected:false (setting ~k:4 ~topology:Topology.One_sided ~auth:u ~tl:1 ~tr:2);
  (* Theorem 5 *)
  check ~expected:true (setting ~k:2 ~topology:Topology.Fully_connected ~auth:a ~tl:2 ~tr:2);
  (* Theorem 6 *)
  check ~expected:true (setting ~k:3 ~topology:Topology.Bipartite ~auth:a ~tl:2 ~tr:2);
  check ~expected:true (setting ~k:4 ~topology:Topology.Bipartite ~auth:a ~tl:1 ~tr:4);
  check ~expected:false (setting ~k:3 ~topology:Topology.Bipartite ~auth:a ~tl:1 ~tr:3);
  (* Theorem 7 *)
  check ~expected:true (setting ~k:3 ~topology:Topology.One_sided ~auth:a ~tl:3 ~tr:2);
  check ~expected:true (setting ~k:3 ~topology:Topology.One_sided ~auth:a ~tl:0 ~tr:3);
  check ~expected:false (setting ~k:3 ~topology:Topology.One_sided ~auth:a ~tl:1 ~tr:3)

let test_solvability_monotone () =
  (* Fewer corruptions never hurt; signatures never hurt; a stronger
     topology never hurts. Exhaustive over k <= 6. *)
  List.iter
    (fun k ->
      List.iter
        (fun (s : Core.Setting.t) ->
          let v = Core.Solvability.solvable s in
          if v then begin
            (* decreasing thresholds *)
            if s.t_left > 0 then begin
              let s' = { s with Core.Setting.t_left = s.t_left - 1 } in
              if not (Core.Solvability.solvable s') then
                Alcotest.failf "not monotone in t_left at %s"
                  (Format.asprintf "%a" Core.Setting.pp s)
            end;
            if s.t_right > 0 then begin
              let s' = { s with Core.Setting.t_right = s.t_right - 1 } in
              if not (Core.Solvability.solvable s') then
                Alcotest.failf "not monotone in t_right at %s"
                  (Format.asprintf "%a" Core.Setting.pp s)
            end;
            (* adding signatures *)
            if not (Core.Solvability.solvable { s with Core.Setting.auth = Core.Setting.Authenticated })
            then
              Alcotest.failf "authentication hurt at %s"
                (Format.asprintf "%a" Core.Setting.pp s);
            (* strengthening topology *)
            List.iter
              (fun topology' ->
                if Topology.weaker_or_equal s.topology topology' then
                  if not (Core.Solvability.solvable { s with Core.Setting.topology = topology' })
                  then
                    Alcotest.failf "stronger topology hurt at %s"
                      (Format.asprintf "%a" Core.Setting.pp s))
              Topology.all
          end)
        (all_settings ~k))
    [ 1; 2; 3; 4; 5; 6 ]

let test_plan_exists_iff_solvable () =
  List.iter
    (fun k ->
      List.iter
        (fun s ->
          let planned = Result.is_ok (Core.Select.plan s) in
          if planned <> Core.Solvability.solvable s then
            Alcotest.failf "plan/solvability mismatch at %s"
              (Format.asprintf "%a" Core.Setting.pp s))
        (all_settings ~k))
    [ 1; 2; 3; 4; 5 ]

(* --- virtual channels ---------------------------------------------------- *)

(* Drive two L-parties exchanging one message over a proxied topology; all
   other parties just serve sync duty. *)
let channel_roundtrip ~topology ~auth_of ~k ~byz =
  let got = ref None in
  let programs p (env : Engine.env) =
    match byz p with
    | Some program -> program env
    | None ->
      let net = Core.Channels.virtual_net env ~topology ~auth:(auth_of p) in
      if Party_id.equal p (Party_id.left 0) then begin
        net.Bsm_runtime.Net.send (Party_id.left 1) "hello-there";
        ignore (net.Bsm_runtime.Net.sync ())
      end
      else begin
        let inbox = net.Bsm_runtime.Net.sync () in
        if Party_id.equal p (Party_id.left 1) then got := Some inbox
      end
  in
  let cfg = Engine.config ~k ~link:(Engine.Of_topology topology) () in
  ignore (Engine.run cfg ~programs:(fun p -> fun env -> programs p env));
  !got

let test_majority_proxy_delivers () =
  match
    channel_roundtrip ~topology:Topology.One_sided
      ~auth_of:(fun _ -> Core.Channels.Majority)
      ~k:3
      ~byz:(fun _ -> None)
  with
  | Some [ (src, "hello-there") ] ->
    Alcotest.(check bool) "from L0" true (Party_id.equal src (Party_id.left 0))
  | Some _ | None -> Alcotest.fail "expected exactly the relayed message"

let test_majority_proxy_survives_minority_byz () =
  (* k = 5, two byzantine R relays stay silent: 3 > 5/2 forwards remain. *)
  match
    channel_roundtrip ~topology:Topology.One_sided
      ~auth_of:(fun _ -> Core.Channels.Majority)
      ~k:5
      ~byz:(fun p ->
        if Party_id.equal p (Party_id.right 0) || Party_id.equal p (Party_id.right 1)
        then Some B.Strategies.silent
        else None)
  with
  | Some [ (_, "hello-there") ] -> ()
  | Some _ | None -> Alcotest.fail "expected delivery despite 2/5 byzantine relays"

let test_majority_proxy_blocks_forgery () =
  (* All byzantine relays collude to inject a message that L0 never sent:
     with 2 < 5/2 forwarders the forgery must not be delivered; here ALL
     k=3 relays forward a forged payload — but a forged payload claims
     src=L0 while arriving from relays, so honest forwarding never happens
     and the quorum test is fed only byzantine forwards. With k=3 and 3
     forwarders the count passes — which is exactly why Lemma 6 requires
     t_R < k/2. So instead: 1 byzantine relay of 3 forges; 1 < 3/2 fails. *)
  let forged_payload =
    (* Craft a Forward for a message L0 never sent. We cannot build
       Channels payloads directly (abstract), so replay attack: the
       byzantine relay simply sends garbage; the stronger forgery test
       lives in the signed-mode test below via replay. *)
    "garbage-not-a-payload"
  in
  let byz p =
    if Party_id.equal p (Party_id.right 0) then
      Some
        (fun (env : Engine.env) ->
          env.Engine.send (Party_id.left 1) forged_payload;
          ignore (env.Engine.next_round ()))
    else None
  in
  match
    channel_roundtrip ~topology:Topology.One_sided
      ~auth_of:(fun _ -> Core.Channels.Majority)
      ~k:3 ~byz
  with
  | Some inbox ->
    Alcotest.(check int) "only the real message" 1 (List.length inbox)
  | None -> Alcotest.fail "receiver did not sync"

let signed_auth pki p =
  Core.Channels.Signed
    { signer = Crypto.Pki.signer pki p; verifier = Crypto.Pki.verifier pki }

let test_signed_proxy_single_honest_relay () =
  (* Bipartite, k=3: two of three relays byzantine-silent; one honest
     relay suffices (Lemma 8). *)
  let pki = Crypto.Pki.setup ~k:3 ~seed:99 in
  match
    channel_roundtrip ~topology:Topology.Bipartite
      ~auth_of:(signed_auth pki)
      ~k:3
      ~byz:(fun p ->
        if Party_id.equal p (Party_id.right 0) || Party_id.equal p (Party_id.right 2)
        then Some B.Strategies.silent
        else None)
  with
  | Some [ (_, "hello-there") ] -> ()
  | Some _ | None -> Alcotest.fail "one honest relay must deliver"

let test_signed_proxy_drops_late_forward () =
  (* A byzantine relay withholds the only copy and forwards it two rounds
     late: the vround (timestamp) check must reject it — an omission, as
     Lemma 10 prescribes. *)
  let withhold (env : Engine.env) =
    (* The byzantine relay receives the Request in round 1 but acts as a
       correct forwarder two rounds late, replaying the stale envelope
       through [forward_duty]; the receiver's vround check must reject. *)
    let stale = env.Engine.next_round () in
    ignore (env.Engine.next_round ());
    ignore (env.Engine.next_round ());
    List.iter (Core.Channels.forward_duty env ~topology:Topology.Bipartite) stale
  in
  let pki = Crypto.Pki.setup ~k:2 ~seed:7 in
  let received = ref [] in
  let programs p (env : Engine.env) =
    if Side.equal (Party_id.side p) Side.Right then
      (if Party_id.equal p (Party_id.right 0) then withhold env
       else B.Strategies.silent env)
    else begin
      let net =
        Core.Channels.virtual_net env ~topology:Topology.Bipartite
          ~auth:(signed_auth pki p)
      in
      if Party_id.equal p (Party_id.left 0) then begin
        net.Bsm_runtime.Net.send (Party_id.left 1) "late-message";
        ignore (net.Bsm_runtime.Net.sync ());
        ignore (net.Bsm_runtime.Net.sync ())
      end
      else begin
        let i1 = net.Bsm_runtime.Net.sync () in
        let i2 = net.Bsm_runtime.Net.sync () in
        received := i1 @ i2
      end
    end
  in
  let cfg = Engine.config ~k:2 ~link:(Engine.Of_topology Topology.Bipartite) () in
  ignore (Engine.run cfg ~programs:(fun p env -> programs p env));
  Alcotest.(check int) "late forward rejected (omission)" 0 (List.length !received)

(* --- relay header read ------------------------------------------------------ *)

(* The reference for the in-place header scan [Channels.Header.read]:
   walk the payload codec's own [party_id] and [uint] decoders over the
   tag, both party ids, the virtual round and the id, catching
   [Malformed]. The scan must agree with it bit for bit. *)
let reference_peek_header (s : Wire.Slice.t) =
  try
    let d = Wire.Dec.of_slice s in
    let _tag = Wire.Dec.tag d in
    let src = Wire.party_id.Wire.read d in
    let dst = Wire.party_id.Wire.read d in
    let vround = Wire.Dec.uint d in
    let id = Wire.Dec.uint d in
    Some (src, dst, vround, id)
  with Wire.Malformed _ -> None

let header_as_parties (h : Core.Channels.Header.t) view =
  if Core.Channels.Header.read h view then
    Some
      ( Party_id.make h.src_side h.src_index,
        Party_id.make h.dst_side h.dst_index,
        h.vround,
        h.id )
  else None

(* Clean relay frames of every shape, with in-roster, out-of-roster and
   huge party indices and ids, plus every mutation the chaos layer and
   the decoder fuzzer can apply to them. *)
let relay_frames rng =
  let party () =
    let side = if Rng.bool rng then Side.Left else Side.Right in
    let index =
      match Rng.int rng 4 with
      | 0 -> max_int
      | 1 -> 1000 + Rng.int rng 1000
      | _ -> Rng.int rng 4
    in
    Party_id.make side index
  in
  let big () = if Rng.int rng 4 = 0 then max_int - Rng.int rng 3 else Rng.int rng 300 in
  let payload () =
    {
      Core.Channels.src = party ();
      dst = party ();
      vround = big ();
      id = big ();
      body = String.init (Rng.int rng 12) (fun _ -> Char.chr (Rng.int rng 256));
      signature = None;
    }
  in
  let clean =
    List.init 60 (fun i ->
        let frame =
          match i mod 3 with
          | 0 -> Core.Channels.Direct (String.make (Rng.int rng 20) 'd')
          | 1 -> Core.Channels.Request (payload ())
          | _ -> Core.Channels.Forward (payload ())
        in
        Wire.encode Core.Channels.relay_codec frame)
  in
  let mutated =
    List.concat_map
      (fun frame ->
        let kinds =
          List.filter_map
            (fun kind ->
              Bsm_chaos.Mutation.apply
                ~hash:(Rng.mix64 (Int64.of_int (Rng.int rng 1_000_000)))
                ~src:(party ()) ~prev:(Some (List.hd clean)) kind frame)
            Bsm_chaos.Mutation.all_kinds
        in
        let fuzzed = List.init 4 (fun _ -> Bsm_wire.Fuzz.mutate rng frame) in
        let truncated = List.init (String.length frame) (fun n -> String.sub frame 0 n) in
        kinds @ fuzzed @ truncated)
      clean
  in
  clean @ mutated

let test_header_read_matches_reference () =
  let rng = Rng.make 4242 in
  let frames = relay_frames rng in
  (* One reader for the whole corpus, reused as a relay reuses it. *)
  let h = Core.Channels.Header.create () in
  List.iteri
    (fun i frame ->
      (* Once as a whole string, once as a view with live bytes on both
         sides: the read must stop at the slice's edges. *)
      let pad = String.make (1 + Rng.int rng 3) '\255' in
      let views =
        [
          Wire.Slice.of_string frame;
          Wire.Slice.make (pad ^ frame ^ pad) ~off:(String.length pad)
            ~len:(String.length frame);
        ]
      in
      List.iter
        (fun view ->
          let expected = reference_peek_header view in
          let got = header_as_parties h view in
          if expected <> got then
            Alcotest.failf "frame %d (%s): int header read disagrees with the codec" i
              (Wire.to_hex frame))
        views)
    frames;
  Alcotest.(check bool) "both accept and reject outcomes exercised" true
    (List.exists (fun f -> reference_peek_header (Wire.Slice.of_string f) = None) frames
    && List.exists (fun f -> reference_peek_header (Wire.Slice.of_string f) <> None) frames)

let test_direct_frames_match_codec () =
  (* Every frame of the corpus arrives on a direct channel, as a span of
     the sender's round arena, at a party syncing a virtual net: it must
     receive exactly the bodies [relay_codec] decodes as [Direct], in
     order. With k = 2 no forged [Forward] can win the majority vote. *)
  let rng = Rng.make 4243 in
  let frames = relay_frames rng in
  let from = Party_id.left 0 and target = Party_id.left 1 in
  let got = ref [] in
  let programs p (env : Engine.env) =
    if Party_id.equal p from then begin
      List.iter (env.Engine.send target) frames;
      ignore (env.Engine.next_round ())
    end
    else if Party_id.equal p target then begin
      let net =
        Core.Channels.virtual_net env ~topology:Topology.Fully_connected
          ~auth:Core.Channels.Majority
      in
      got := net.Bsm_runtime.Net.sync ()
    end
  in
  let cfg = Engine.config ~k:2 ~link:(Engine.Of_topology Topology.Fully_connected) () in
  ignore (Engine.run cfg ~programs:(fun p env -> programs p env));
  let expected =
    List.filter_map
      (fun f ->
        match Wire.decode Core.Channels.relay_codec f with
        | Ok (Core.Channels.Direct body) -> Some body
        | Ok (Core.Channels.Request _ | Core.Channels.Forward _) | Error _ -> None)
      frames
  in
  Alcotest.(check bool) "some frames are direct" true (List.length expected > 10);
  Alcotest.(check (list string)) "direct bodies" expected (List.map snd !got)

(* Today's forwarding rule over the reference header read: a [Request]
   whose claimed source is the neighbour it came from, towards a party
   the relay reaches other than itself, goes out with its tag byte
   flipped to [Forward] and every other byte unchanged. *)
let reference_forwards ~topology ~relay ~from frames =
  List.filter_map
    (fun frame ->
      if String.length frame = 0 || frame.[0] <> '\001' then None
      else
        match reference_peek_header (Wire.Slice.of_string frame) with
        | Some (src, dst, _, _)
          when Party_id.equal from src
               && Topology.connected topology relay dst
               && not (Party_id.equal dst relay) ->
          Some (dst, "\002" ^ String.sub frame 1 (String.length frame - 1))
        | Some _ | None -> None)
    frames

let test_forward_duty_matches_reference () =
  (* A byzantine L0 hands relay R0 every frame of the corpus, plus
     requests with L0 as the true source towards in- and out-of-roster
     targets with huge ids, and one naming a source outside the roster;
     R0 runs [forward_duty] on each. The engine trace of R0's sends and
     the bytes each L party receives must be exactly the reference
     rule's forwards, in order. *)
  let k = 3 and topology = Topology.Bipartite in
  let rng = Rng.make 99 in
  let from = Party_id.left 0 and relay = Party_id.right 0 in
  let request ~dst ~id =
    Wire.encode Core.Channels.relay_codec
      (Core.Channels.Request
         { src = from; dst; vround = 0; id; body = "b"; signature = None })
  in
  let genuine =
    List.concat_map
      (fun dst ->
        [ request ~dst ~id:0; request ~dst ~id:max_int ])
      [
        Party_id.left 1;
        Party_id.left 2;
        Party_id.left 0;
        Party_id.right 0;
        Party_id.right 2;
        Party_id.left 1000;
        Party_id.left max_int;
      ]
  in
  let forged_source =
    Wire.encode Core.Channels.relay_codec
      (Core.Channels.Request
         {
           src = Party_id.left 1000;
           dst = Party_id.left 1;
           vround = 0;
           id = max_int;
           body = "forged";
           signature = None;
         })
  in
  let frames =
    (* The crafted requests also in every truncated form, so partially
       parseable requests are covered; the corpus brings its own. *)
    List.concat_map
      (fun f -> f :: List.init (String.length f) (fun n -> String.sub f 0 n))
      (forged_source :: genuine)
    @ relay_frames rng
  in
  let received = Hashtbl.create 8 in
  let programs p (env : Engine.env) =
    if Party_id.equal p from then begin
      List.iter (env.Engine.send relay) frames;
      ignore (env.Engine.next_round ());
      ignore (env.Engine.next_round ())
    end
    else if Party_id.equal p relay then begin
      let inbox = env.Engine.next_round () in
      List.iter (Core.Channels.forward_duty env ~topology) inbox;
      ignore (env.Engine.next_round ())
    end
    else begin
      ignore (env.Engine.next_round ());
      let inbox = env.Engine.next_round () in
      Hashtbl.replace received p
        (List.map (fun (e : Engine.envelope) -> Wire.Slice.to_string e.data) inbox)
    end
  in
  let cfg =
    Engine.config ~k ~trace_limit:1_000_000 ~link:(Engine.Of_topology topology) ()
  in
  let res = Engine.run cfg ~programs:(fun p env -> programs p env) in
  let expected = reference_forwards ~topology ~relay ~from frames in
  let sent =
    List.filter_map
      (fun (e : Engine.event) ->
        if e.event_round = 1 && Party_id.equal e.event_src relay then
          Some (e.event_dst, e.event_bytes)
        else None)
      res.Engine.trace
  in
  Alcotest.(check (list (pair string int)))
    "relay sends exactly the reference forwards"
    (List.map (fun (dst, f) -> Party_id.to_string dst, String.length f) expected)
    (List.map (fun (dst, n) -> Party_id.to_string dst, n) sent);
  List.iter
    (fun p ->
      if not (Party_id.equal p from || Party_id.equal p relay) then
        Alcotest.(check (list string))
          (Party_id.to_string p ^ " receives the reference forwards")
          (List.filter_map
             (fun (dst, f) -> if Party_id.equal dst p then Some f else None)
             expected)
          (try Hashtbl.find received p with Not_found -> []))
    (Party_id.all ~k);
  Alcotest.(check bool) "some frames forwarded, some to out-of-roster targets" true
    (expected <> []
    && List.exists (fun (dst, _) -> Party_id.index dst >= k) expected)

let test_majority_dedups_forged_sources () =
  (* Two byzantine relays of three (a majority, so the vote passes) forward
     crafted copies to L1: one naming a source outside the roster, one
     with the largest id a frame can carry, each twice per forwarder. The
     next virtual round they replay both under the new round stamp. Each
     must be delivered exactly once, in the first virtual round only. *)
  let k = 3 and topology = Topology.One_sided in
  let target = Party_id.left 1 in
  let forward ~vround ~src ~id ~body =
    Wire.encode Core.Channels.relay_codec
      (Core.Channels.Forward { src; dst = target; vround; id; body; signature = None })
  in
  let crafted ~vround =
    [
      forward ~vround ~src:(Party_id.left 1000) ~id:7 ~body:"stray";
      forward ~vround ~src:(Party_id.left 2) ~id:max_int ~body:"huge";
      forward ~vround ~src:(Party_id.left 2) ~id:65535 ~body:"last-dense";
      forward ~vround ~src:(Party_id.left 2) ~id:65536 ~body:"first-sparse";
    ]
  in
  let byzantine (env : Engine.env) =
    for vround = 0 to 1 do
      ignore (env.Engine.next_round ());
      List.iter
        (fun f ->
          env.Engine.send target f;
          env.Engine.send target f)
        (crafted ~vround);
      ignore (env.Engine.next_round ())
    done
  in
  let inboxes = ref [] in
  let programs p (env : Engine.env) =
    if Party_id.equal p (Party_id.right 0) || Party_id.equal p (Party_id.right 1) then
      byzantine env
    else begin
      let net = Core.Channels.virtual_net env ~topology ~auth:Core.Channels.Majority in
      let first = net.Bsm_runtime.Net.sync () in
      let second = net.Bsm_runtime.Net.sync () in
      if Party_id.equal p target then inboxes := [ first; second ]
    end
  in
  let cfg = Engine.config ~k ~link:(Engine.Of_topology topology) () in
  ignore (Engine.run cfg ~programs:(fun p env -> programs p env));
  let show inbox = List.map (fun (src, body) -> Party_id.to_string src, body) inbox in
  Alcotest.(check (list (list (pair string string))))
    "each crafted message once, then suppressed"
    [
      [ "L2", "first-sparse"; "L2", "last-dense"; "L2", "huge"; "L1000", "stray" ];
      [];
    ]
    (List.map show !inboxes)

(* --- relay frames against references ----------------------------------------- *)

(* A virtual net driven without an engine: every frame it hands
   [send_multi_w] is captured, newest first, and [next_round] returns
   what [feed] holds once, then nothing. [set_counters] overwrites the
   net's [vround] and [next_id] through the state cells it registers
   (in that order), as a state scramble would. *)
type bare_net = {
  net : Bsm_runtime.Net.t;
  sent : string list ref;
  feed : Engine.envelope list ref;
  set_counters : vround:int -> id:int -> unit;
}

let bare_net ~k ~self ~auth =
  let sent = ref [] and feed = ref [] and cells = ref [] in
  let env =
    {
      Engine.self;
      k;
      round = (fun () -> 0);
      send = (fun _ _ -> ());
      send_w = (fun _ _ _ -> ());
      send_slice = (fun _ _ -> ());
      send_multi_w = (fun c _ v -> sent := Wire.encode c v :: !sent);
      next_round =
        (fun () ->
          let inbox = !feed in
          feed := [];
          inbox);
      output = ignore;
      log = ignore;
      register_state = (fun c r -> cells := Engine.state_cell c r :: !cells);
      register_cell = ignore;
    }
  in
  let net = Core.Channels.virtual_net env ~topology:Topology.Bipartite ~auth in
  let set_counters ~vround ~id =
    match List.rev !cells with
    | [ v; i ] ->
      assert (v.Engine.cell_set (Wire.encode Wire.uint vround));
      assert (i.Engine.cell_set (Wire.encode Wire.uint id))
    | _ -> Alcotest.fail "expected the vround and next_id cells"
  in
  { net; sent; feed; set_counters }

(* The bytes a signature covers: the payload codec's encoding of [p]
   with its signature blanked, i.e. the [Request] frame minus its tag. *)
let reference_signed_bytes (p : Core.Channels.payload) =
  let frame =
    Wire.encode Core.Channels.relay_codec (Core.Channels.Request { p with signature = None })
  in
  String.sub frame 1 (String.length frame - 1)

(* Counters and indices across the one-, two- and three-byte varint
   widths, and the largest a frame can carry. *)
let wide rng =
  match Rng.int rng 5 with
  | 0 -> Rng.int rng 128
  | 1 -> 128 + Rng.int rng (16_384 - 128)
  | 2 -> 16_384 + Rng.int rng 1_000_000
  | 3 -> max_int - Rng.int rng 3
  | _ -> Rng.int rng 300

let random_body rng =
  String.init (Rng.int rng 301) (fun _ -> Char.chr (Rng.int rng 256))

let test_request_frames_match_codec () =
  (* Senders at indices on both sides of the varint widths, in both auth
     modes: each request a virtual net writes equals [relay_codec]'s
     encoding of the [Request], signed over the reference bytes. *)
  let k = 16_385 in
  let pki = Crypto.Pki.setup ~k ~seed:8 in
  let rng = Rng.make 2025 in
  let checked = ref 0 in
  List.iter
    (fun self ->
      List.iter
        (fun signed ->
          let auth = if signed then signed_auth pki self else Core.Channels.Majority in
          let b = bare_net ~k ~self ~auth in
          for _ = 1 to 25 do
            (* A same-side destination, in or out of the roster, is
               reached through the relays. *)
            let dst =
              let i = if Rng.bool rng then Rng.int rng k else wide rng in
              Party_id.make (Party_id.side self)
                (if i = Party_id.index self then i + 1 else i)
            in
            let vround = wide rng and id = wide rng and body = random_body rng in
            b.set_counters ~vround ~id;
            b.net.Bsm_runtime.Net.send dst body;
            let p =
              { Core.Channels.src = self; dst; vround; id; body; signature = None }
            in
            let signature =
              if signed then
                Some (Crypto.Signer.sign (Crypto.Pki.signer pki self) (reference_signed_bytes p))
              else None
            in
            let expected =
              Wire.encode Core.Channels.relay_codec (Core.Channels.Request { p with signature })
            in
            match !(b.sent) with
            | [ frame ] ->
              b.sent := [];
              incr checked;
              if frame <> expected then
                Alcotest.failf "request %s -> %s (vround %d, id %d, %d-byte body, %s): %s, \
                                expected %s"
                  (Party_id.to_string self) (Party_id.to_string dst) vround id
                  (String.length body)
                  (if signed then "signed" else "majority")
                  (Wire.to_hex frame) (Wire.to_hex expected)
            | frames -> Alcotest.failf "expected one request frame, got %d" (List.length frames)
          done)
        [ false; true ])
    [
      Party_id.left 0;
      Party_id.right 5;
      Party_id.left 127;
      Party_id.right 128;
      Party_id.left 16_383;
      Party_id.right 16_384;
    ];
  Alcotest.(check int) "requests checked" 300 !checked

(* A [Forward] frame written field by field, with a non-minimal varint
   (one redundant continuation byte) in the field numbered [padded]:
   0-5 the header fields, 6 the body length; any other number pads
   nothing. [relay_codec]'s decoder reads the same payload. *)
let hand_forward ?(padded = -1) ?signature (p : Core.Channels.payload) =
  let b = Buffer.create 64 in
  let varint field n =
    let rec go n =
      if n >= 0x80 then begin
        Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
        go (n lsr 7)
      end
      else if field = padded then begin
        Buffer.add_char b (Char.chr (0x80 lor n));
        Buffer.add_char b '\000'
      end
      else Buffer.add_char b (Char.chr n)
    in
    go n
  in
  let side p = Side.to_int (Party_id.side p) in
  Buffer.add_char b '\002';
  varint 0 (side p.src);
  varint 1 (Party_id.index p.src);
  varint 2 (side p.dst);
  varint 3 (Party_id.index p.dst);
  varint 4 p.vround;
  varint 5 p.id;
  varint 6 (String.length p.body);
  Buffer.add_string b p.body;
  (match signature with
  | None -> Buffer.add_char b '\000'
  | Some s ->
    Buffer.add_char b '\001';
    Buffer.add_string b (Wire.encode Crypto.Signature.codec s));
  Buffer.contents b

(* The reference for the signed receiver: decode the whole frame,
   require it fresh, and verify the signature over the re-encoded
   payload; [delivered] is its replay memory. *)
let reference_signed_receive ~self ~vround ~verifier delivered frame =
  match Wire.decode Core.Channels.relay_codec frame with
  | Ok (Core.Channels.Forward ({ signature = Some signature; _ } as p))
    when Party_id.equal p.dst self && p.vround = vround
         && (not (Hashtbl.mem delivered (p.src, p.id)))
         && Crypto.Verifier.verify verifier ~signer:p.src ~msg:(reference_signed_bytes p)
              signature ->
    Hashtbl.replace delivered (p.src, p.id) ();
    [ p.src, p.body ]
  | Ok _ | Error _ -> []

let test_signed_receive_matches_reference () =
  (* Every frame reaches a signed receiver as one [Forward] copy in a
     virtual round of its own, the receiver's [vround] reset to [v]
     first. What it delivers must be what the reference chain delivers,
     frame by frame, with both keeping their replay memory across the
     whole corpus. *)
  let k = 200 and v = 300 in
  let self = Party_id.left 150 in
  let pki = Crypto.Pki.setup ~k ~seed:12 in
  let verifier = Crypto.Pki.verifier pki in
  let rng = Rng.make 77 in
  let party () =
    let side = if Rng.bool rng then Side.Left else Side.Right in
    Party_id.make side (if Rng.int rng 8 = 0 then k + Rng.int rng 100 else Rng.int rng k)
  in
  let payload () =
    {
      Core.Channels.src = party ();
      dst = (if Rng.int rng 8 = 0 then party () else self);
      vround = (if Rng.int rng 8 = 0 then v + 1 - Rng.int rng 3 else v);
      id = wide rng;
      body = random_body rng;
      signature = None;
    }
  in
  (* The signature its claimed source would make; a source outside the
     setup signs as a roster party, which must not verify. *)
  let sign (p : Core.Channels.payload) =
    let signer =
      Crypto.Pki.signer pki
        (if Party_id.index p.src < k then p.src else Party_id.right (Party_id.index p.src mod k))
    in
    Crypto.Signer.sign signer (reference_signed_bytes p)
  in
  let party_in_roster () =
    Party_id.make (if Rng.bool rng then Side.Left else Side.Right) (Rng.int rng k)
  in
  let forward (p : Core.Channels.payload) =
    Wire.encode Core.Channels.relay_codec (Core.Channels.Forward p)
  in
  (* Unpadded, the hand-written frame is the codec's. *)
  let p = payload () in
  Alcotest.(check string) "hand-written frame" (forward { p with signature = Some (sign p) })
    (hand_forward ~signature:(sign p) p);
  let signature_of_string s = Wire.decode_exn Crypto.Signature.codec (Wire.encode Wire.string s) in
  let clean =
    List.init 40 (fun _ ->
        let p = payload () in
        forward { p with signature = Some (sign p) })
  in
  let corpus =
    List.concat_map
      (fun frame ->
        let p = payload () in
        let signature = sign p in
        (* Each field padded in turn, in fresh, correctly signed frames
           from roster parties: the decoder accepts the padding, and the
           signature covers the canonical bytes. *)
        let padded =
          List.init 7 (fun padded ->
              let p = { (payload ()) with src = party_in_roster (); dst = self; vround = v } in
              hand_forward ~padded ~signature:(sign p) p)
        in
        let unsigned = [ forward p; hand_forward p ] in
        let odd_signatures =
          List.map
            (fun s -> forward { p with signature = Some (signature_of_string s) })
            [ ""; String.make 15 'x'; (signature :> string) ^ "x"; String.sub (signature :> string) 0 15 ]
        in
        let mutated =
          List.filter_map
            (fun kind ->
              Bsm_chaos.Mutation.apply
                ~hash:(Rng.mix64 (Int64.of_int (Rng.int rng 1_000_000)))
                ~src:(party ()) ~prev:(Some (List.hd clean)) kind frame)
            Bsm_chaos.Mutation.all_kinds
        in
        let fuzzed = List.init 4 (fun _ -> Bsm_wire.Fuzz.mutate rng frame) in
        let truncated = List.init (String.length frame) (fun n -> String.sub frame 0 n) in
        (* The clean frame itself comes after its corrupted forms and
           again after that, as a duplicate. *)
        padded @ unsigned @ odd_signatures @ mutated @ fuzzed @ truncated
        @ [ frame ^ "\000"; frame; frame ])
      clean
  in
  (* Only [Forward] copies reach the signed receiver's judgement. *)
  let corpus = List.filter (fun f -> String.length f > 0 && f.[0] = '\002') corpus in
  let b = bare_net ~k ~self ~auth:(signed_auth pki self) in
  let delivered = Hashtbl.create 64 in
  let accepted = ref 0 in
  List.iteri
    (fun i frame ->
      b.set_counters ~vround:v ~id:0;
      b.feed := [ { Engine.src = Party_id.right 0; data = Wire.Slice.of_string frame } ];
      let got = b.net.Bsm_runtime.Net.sync () in
      let expected = reference_signed_receive ~self ~vround:v ~verifier delivered frame in
      accepted := !accepted + List.length expected;
      let show = List.map (fun (src, body) -> Party_id.to_string src, body) in
      if show got <> show expected then
        Alcotest.failf "frame %d (%s): delivered %d message(s), the reference %d" i
          (Wire.to_hex frame) (List.length got) (List.length expected))
    corpus;
  Alcotest.(check bool)
    (Printf.sprintf "%d frames, %d accepted: both verdicts exercised" (List.length corpus)
       !accepted)
    true
    (!accepted >= 7 * 40 && !accepted < List.length corpus / 2)

let prop_channels_reliable_links =
  (* Random topology, auth mode and traffic: for several virtual rounds,
     every honest party sends random messages to random peers over the
     virtual net; every message must arrive exactly once, in the next
     virtual round, with the true sender. *)
  QCheck.Test.make ~name:"virtual channels are reliable exactly-once links" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.make seed in
      let k = 2 + Rng.int rng 3 in
      let topology = Rng.choose rng Topology.all in
      let pki = Crypto.Pki.setup ~k ~seed in
      (* Fix the mode once for the whole run (all parties must agree). *)
      let mode_signed = Rng.bool rng in
      let auth p = if mode_signed then signed_auth pki p else Core.Channels.Majority in
      let vrounds = 3 in
      (* Pre-draw the traffic plan: (vround, src, dst, payload). *)
      let roster = Party_id.all ~k in
      let plan =
        List.concat_map
          (fun v ->
            List.concat_map
              (fun src ->
                List.filter_map
                  (fun dst ->
                    if Party_id.equal src dst || Rng.int rng 100 >= 40 then None
                    else Some (v, src, dst, Printf.sprintf "m-%d-%s-%s" v
                                 (Party_id.to_string src) (Party_id.to_string dst)))
                  roster)
              roster)
          (Util.range 0 vrounds)
      in
      let received = Hashtbl.create 64 in
      let programs p (env : Engine.env) =
        let net = Core.Channels.virtual_net env ~topology ~auth:(auth p) in
        for v = 0 to vrounds - 1 do
          List.iter
            (fun (v', src, dst, payload) ->
              if v' = v && Party_id.equal src p then net.Bsm_runtime.Net.send dst payload)
            plan;
          let inbox = net.Bsm_runtime.Net.sync () in
          List.iter
            (fun (src, payload) ->
              let key = Party_id.to_string p ^ "|" ^ Party_id.to_string src ^ "|" ^ payload in
              Hashtbl.replace received key
                (1 + try Hashtbl.find received key with Not_found -> 0))
            inbox
        done
      in
      let cfg = Engine.config ~k ~link:(Engine.Of_topology topology) () in
      ignore (Engine.run cfg ~programs:(fun p env -> programs p env));
      List.for_all
        (fun (_, src, dst, payload) ->
          let key = Party_id.to_string dst ^ "|" ^ Party_id.to_string src ^ "|" ^ payload in
          (try Hashtbl.find received key with Not_found -> 0) = 1)
        plan
      && Hashtbl.length received = List.length plan)

(* --- end-to-end honest runs across all six settings ---------------------- *)

let solvable_examples ~k =
  (* One representative maximal-threshold solvable setting per
     (topology, auth) pair. *)
  let u = Core.Setting.Unauthenticated and a = Core.Setting.Authenticated in
  let third = (k - 1) / 3 and half = (k - 1) / 2 in
  [
    setting ~k ~topology:Topology.Fully_connected ~auth:u ~tl:third ~tr:k;
    setting ~k ~topology:Topology.One_sided ~auth:u ~tl:third ~tr:half;
    setting ~k ~topology:Topology.Bipartite ~auth:u ~tl:third ~tr:half;
    setting ~k ~topology:Topology.Fully_connected ~auth:a ~tl:k ~tr:k;
    setting ~k ~topology:Topology.One_sided ~auth:a ~tl:k ~tr:(k - 1);
    setting ~k ~topology:Topology.Bipartite ~auth:a ~tl:third ~tr:k;
  ]

let test_honest_runs_all_settings () =
  let k = 3 in
  let rng = Rng.make 1234 in
  List.iter
    (fun s ->
      let profile = SM.Profile.random rng k in
      let scenario = H.Scenario.make_exn s profile in
      let report = H.Scenario.run scenario in
      if not (H.Scenario.ok report) then
        Alcotest.failf "honest run violated bSM at %s:@ %s"
          (Format.asprintf "%a" Core.Setting.pp s)
          (Format.asprintf "%a" H.Scenario.pp_report report);
      (* With zero byzantine parties the outcome must be the stable
         matching of the true profile. *)
      let m = SM.Gale_shapley.run profile in
      List.iter
        (fun (p, d) ->
          match (d : Core.Problem.decision) with
          | Core.Problem.Matched q ->
            if not (Party_id.equal q (SM.Matching.partner m p)) then
              Alcotest.failf "wrong partner for %s" (Party_id.to_string p)
          | Core.Problem.Nobody | Core.Problem.No_output ->
            Alcotest.failf "%s should be matched" (Party_id.to_string p))
        report.H.Scenario.outcome.Core.Problem.decisions)
    (solvable_examples ~k)

let test_round_complexity_matches_plan () =
  (* plan.engine_rounds is a documented constant; honest executions must
     finish in exactly that many rounds. *)
  let k = 3 in
  let rng = Rng.make 77 in
  List.iter
    (fun s ->
      let profile = SM.Profile.random rng k in
      let report = H.Scenario.run (H.Scenario.make_exn s profile) in
      let plan = report.H.Scenario.plan in
      Alcotest.(check int)
        (Format.asprintf "rounds for %a" Core.Setting.pp s)
        plan.Core.Select.engine_rounds
        report.H.Scenario.metrics.Engine.rounds_used)
    (solvable_examples ~k)

let test_predicted_messages_exact () =
  (* The closed-form communication model must match the engine's counter
     exactly, for every representative solvable setting and k = 2..8 —
     k = 7 and 8 pin both majority-proxy stacks (one-sided and bipartite,
     unauthenticated) past the sizes the chaos grids reach — and at
     k = 16 for the other four settings. The two majority-proxy stacks
     take 1.8 s and 2.9 s at k = 16, so they stop at k = 8. *)
  let majority_proxy (s : Core.Setting.t) =
    s.auth = Core.Setting.Unauthenticated
    && not (Topology.equal s.topology Topology.Fully_connected)
  in
  List.iter
    (fun k ->
      let rng = Rng.make (k * 997) in
      List.iter
        (fun s ->
          let profile = SM.Profile.random rng k in
          let report = H.Scenario.run (H.Scenario.make_exn s profile) in
          let measured = report.H.Scenario.metrics.Engine.messages_sent in
          let predicted = Core.Complexity.predicted_messages s in
          if measured <> predicted then
            Alcotest.failf "message model wrong at %s: predicted %d, measured %d"
              (Format.asprintf "%a" Core.Setting.pp s)
              predicted measured)
        (List.filter
           (fun s -> k <= 8 || not (majority_proxy s))
           (solvable_examples ~k)))
    [ 2; 3; 4; 5; 6; 7; 8; 16 ]

(* --- byzantine end-to-end runs ------------------------------------------- *)

let run_with_random_coalitions ~name ~runs ~k ~seed settings =
  let rng = Rng.make seed in
  List.iter
    (fun (s : Core.Setting.t) ->
      for i = 1 to runs do
        let profile = SM.Profile.random rng k in
        let scenario_seed = (i * 7919) + seed in
        let byzantine =
          H.Adversaries.random_coalition rng ~setting:s ~seed:scenario_seed ~profile
        in
        let scenario = H.Scenario.make_exn ~byzantine ~seed:scenario_seed s profile in
        let report = H.Scenario.run scenario in
        if not (H.Scenario.ok report) then
          Alcotest.failf "%s: violation at %s (run %d):@ %s" name
            (Format.asprintf "%a" Core.Setting.pp s)
            i
            (Format.asprintf "%a" H.Scenario.pp_report report)
      done)
    settings

let test_byzantine_runs_all_settings () =
  run_with_random_coalitions ~name:"T1 sweep" ~runs:6 ~k:3 ~seed:5
    (solvable_examples ~k:3)

let test_byzantine_runs_k4 () =
  run_with_random_coalitions ~name:"T1 sweep k=4" ~runs:4 ~k:4 ~seed:11
    (solvable_examples ~k:4)

let test_byzantine_runs_k6 () =
  run_with_random_coalitions ~name:"T1 sweep k=6" ~runs:3 ~k:6 ~seed:23
    (solvable_examples ~k:6)

let test_pi_bsm_fully_byzantine_side () =
  (* Bipartite authenticated, t_R = k: every R-party byzantine. Lemma 11
     regime — the honest L parties must satisfy all properties (they may
     match nobody). Strategies include fully silent R (pure omission). *)
  let k = 3 in
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:0
      ~tr:k
  in
  let rng = Rng.make 31 in
  let strategies =
    [
      ("silent", fun _ -> H.Adversaries.silent);
      ("noise", fun i -> H.Adversaries.noise ~seed:(100 + i));
      ( "mixed",
        fun i ->
          if i = 0 then H.Adversaries.silent else H.Adversaries.noise ~seed:(200 + i) );
    ]
  in
  List.iter
    (fun (name, strategy_of) ->
      let profile = SM.Profile.random rng k in
      let byzantine =
        List.mapi (fun i r -> r, strategy_of i) (Party_id.side_members Side.Right ~k)
      in
      let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed:3 s profile) in
      if not (H.Scenario.ok report) then
        Alcotest.failf "all-R-byzantine (%s):@ %s" name
          (Format.asprintf "%a" H.Scenario.pp_report report))
    strategies

let test_pi_bsm_selective_forwarding () =
  (* The sharpest Lemma 11 case: every R-party byzantine, but instead of
     staying silent they forward *selectively* — each relay serves only a
     subset of L-destinations, and only in some rounds. This creates
     asymmetric omissions: some L-parties may complete their BB/BA
     instances while others see ⊥. Weak agreement must still prevent any
     two honest L-parties from acting on different matchings; all four
     bSM properties must hold. Swept over many selection patterns. *)
  let k = 3 in
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:0
      ~tr:k
  in
  for seed = 1 to 40 do
    let rng = Rng.make (seed * 131) in
    let profile = SM.Profile.random rng k in
    let selective_relay (env : Engine.env) =
      let rng = Rng.make (seed lxor Party_id.hash env.Engine.self) in
      (* Also send a (possibly garbage) preference list first. *)
      if Rng.bool rng then
        env.Engine.send (Party_id.left (Rng.int rng k)) "not-a-valid-prefs-msg";
      for _ = 1 to 30 do
        let inbox = env.Engine.next_round () in
        List.iter
          (fun (e : Engine.envelope) ->
            (* Forward each relay request only with probability 1/2, and
               occasionally duplicate it. *)
            if Rng.bool rng then begin
              Core.Channels.forward_duty env ~topology:Topology.Bipartite e;
              if Rng.int rng 4 = 0 then
                Core.Channels.forward_duty env ~topology:Topology.Bipartite e
            end)
          inbox
      done
    in
    let byzantine =
      List.map (fun r -> r, selective_relay) (Party_id.side_members Side.Right ~k)
    in
    let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed s profile) in
    if not (H.Scenario.ok report) then
      Alcotest.failf "selective forwarding broke bSM at seed %d:@ %s" seed
        (Format.asprintf "%a" H.Scenario.pp_report report)
  done

let test_pi_bsm_one_honest_relay () =
  (* Lemma 12 regime: one honest R-party; everyone must be matched
     according to the common Gale-Shapley run and R0's true preferences
     must be respected (validity of its Pi_BA instance). *)
  let k = 3 in
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:0
      ~tr:(k - 1)
  in
  (* t_R = k-1 = 2 < k fails the first Thm 6 disjunct? No: tl=0 < k and
     tr=2 < k, so the plan is the DS pipeline. Force Pi_bsm by tr = k with
     an under-budget coalition instead. *)
  ignore s;
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:0
      ~tr:k
  in
  let rng = Rng.make 41 in
  let profile = SM.Profile.random rng k in
  let byzantine =
    [
      Party_id.right 1, H.Adversaries.silent;
      Party_id.right 2, H.Adversaries.noise ~seed:404;
    ]
  in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed:5 s profile) in
  (match Core.Select.(report.H.Scenario.plan.mechanism) with
  | Core.Select.Pi_bsm side ->
    Alcotest.(check bool) "computing side is L" true (Side.equal side Side.Left)
  | Core.Select.Bb_pipeline -> Alcotest.fail "expected Pi_bsm plan");
  if not (H.Scenario.ok report) then
    Alcotest.failf "one honest relay:@ %s"
      (Format.asprintf "%a" H.Scenario.pp_report report);
  (* The honest R0 must be matched (it participates honestly and L runs
     full BA: the suggestion majority reaches it). *)
  let r0_decision =
    List.assoc (Party_id.right 0) report.H.Scenario.outcome.Core.Problem.decisions
  in
  (match r0_decision with
  | Core.Problem.Matched _ -> ()
  | Core.Problem.Nobody | Core.Problem.No_output ->
    Alcotest.fail "honest R0 should be matched")

let test_pi_bsm_mirrored_side () =
  (* t_L = k, t_R < k/3: the mirrored protocol (computing side R). *)
  let k = 3 in
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:k
      ~tr:0
  in
  let rng = Rng.make 43 in
  let profile = SM.Profile.random rng k in
  let byzantine =
    [
      Party_id.left 0, H.Adversaries.silent;
      Party_id.left 1, H.Adversaries.noise ~seed:7;
      Party_id.left 2, H.Adversaries.silent;
    ]
  in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed:9 s profile) in
  (match Core.Select.(report.H.Scenario.plan.mechanism) with
  | Core.Select.Pi_bsm side ->
    Alcotest.(check bool) "computing side is R" true (Side.equal side Side.Right)
  | Core.Select.Bb_pipeline -> Alcotest.fail "expected mirrored Pi_bsm plan");
  if not (H.Scenario.ok report) then
    Alcotest.failf "mirrored Pi_bsm:@ %s"
      (Format.asprintf "%a" H.Scenario.pp_report report)

let test_one_sided_auth_fully_byzantine_r () =
  (* Theorem 7's second regime: one-sided, t_R = k, t_L < k/3. *)
  let k = 4 in
  let s =
    setting ~k ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated ~tl:1
      ~tr:k
  in
  let rng = Rng.make 47 in
  let profile = SM.Profile.random rng k in
  let byzantine =
    (Party_id.left 3, H.Adversaries.noise ~seed:17)
    :: List.mapi
         (fun i r -> r, if i mod 2 = 0 then H.Adversaries.silent else H.Adversaries.noise ~seed:i)
         (Party_id.side_members Side.Right ~k)
  in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed:13 s profile) in
  if not (H.Scenario.ok report) then
    Alcotest.failf "one-sided tR=k:@ %s"
      (Format.asprintf "%a" H.Scenario.pp_report report)

let test_pi_bsm_bogus_suggestions () =
  (* Byzantine members of the computing side lie to R about its match: the
     suggestion majority (k - t_L > t_L honest senders) must override
     them. R0 is honest; its decision must equal the honest G-S result. *)
  let k = 4 in
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:1
      ~tr:k
  in
  let rng = Rng.make 61 in
  let profile = SM.Profile.random rng k in
  let liar = Party_id.left 2 in
  let lying_computer (env : Engine.env) =
    (* Follow the protocol so the BB/BA phase completes normally, but send
       every R-party a bogus suggestion at the end. We just run the honest
       program with sends of Suggest messages garbled: simplest faithful
       lie — run honest, then flood fake suggestions one round before the
       deadline cannot be injected portably, so instead: behave honestly
       for the session but replace outgoing *direct* messages to R (the
       suggestions) with a fixed wrong suggestion. Relay traffic also goes
       to R but is relay-encoded; garbling only Suggest-typed traffic
       keeps the session intact. *)
    let pki = Crypto.Pki.setup ~k ~seed:33 in
    let honest =
      Core.Pi_bsm.program s ~pki ~computing_side:Side.Left
        ~input:(SM.Profile.prefs profile liar) ~self:liar
    in
    let fake =
      (* decodes as a Suggest of R0's own id's opposite: always L3 *)
      Bsm_wire.Wire.encode Core.Pi_bsm.Msg.codec
        (Core.Pi_bsm.Msg.Suggest (Some (Party_id.left 3)))
    in
    let env' =
      {
        env with
        Engine.send =
          (fun dst msg ->
            let is_suggest =
              match Bsm_wire.Wire.decode Core.Pi_bsm.Msg.codec msg with
              | Ok (Core.Pi_bsm.Msg.Suggest _) -> true
              | Ok (Core.Pi_bsm.Msg.Prefs _) | Error _ -> false
            in
            env.Engine.send dst (if is_suggest then fake else msg));
      }
    in
    honest env'
  in
  let byzantine =
    (liar, lying_computer)
    :: List.filteri
         (fun i _ -> i > 0) (* keep R0 honest *)
         (List.map (fun r -> r, H.Adversaries.silent) (Party_id.side_members Side.Right ~k))
  in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed:33 s profile) in
  if not (H.Scenario.ok report) then
    Alcotest.failf "bogus suggestions:@ %s"
      (Format.asprintf "%a" H.Scenario.pp_report report);
  (* R0 is honest and at least one honest L computed a matching; its
     decision must NOT be the liar's fake unless the real matching says
     so. Stronger: symmetry already checked; here assert R0 matched its
     true partner per the honest L majority. *)
  let r0 = List.assoc (Party_id.right 0) report.H.Scenario.outcome.Core.Problem.decisions in
  let l_partner_of_r0 =
    List.find_map
      (fun (p, d) ->
        match (d : Core.Problem.decision) with
        | Core.Problem.Matched q
          when Side.equal (Party_id.side p) Side.Left
               && Party_id.equal q (Party_id.right 0) ->
          Some p
        | _ -> None)
      report.H.Scenario.outcome.Core.Problem.decisions
  in
  match r0, l_partner_of_r0 with
  | Core.Problem.Matched q, Some l -> Alcotest.(check bool) "majority wins" true (Party_id.equal q l)
  | Core.Problem.Matched _, None -> ()
  | (Core.Problem.Nobody | Core.Problem.No_output), _ ->
    Alcotest.fail "R0 should be matched (honest L majority suggests)"

let prop_random_solvable_settings_never_violate =
  (* The global property behind T1: draw a random solvable setting, a
     random profile and a random admissible coalition; the selected
     protocol never violates bSM. *)
  QCheck.Test.make ~name:"random solvable settings never violate bSM" ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.make seed in
      let k = 2 + Rng.int rng 3 in
      let rec draw () =
        let s =
          setting ~k
            ~topology:(Rng.choose rng Topology.all)
            ~auth:
              (Rng.choose rng [ Core.Setting.Unauthenticated; Core.Setting.Authenticated ])
            ~tl:(Rng.int rng (k + 1))
            ~tr:(Rng.int rng (k + 1))
        in
        if Core.Solvability.solvable s then s else draw ()
      in
      let s = draw () in
      let profile = SM.Profile.random rng k in
      let byzantine = H.Adversaries.random_coalition rng ~setting:s ~seed ~profile in
      let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed s profile) in
      H.Scenario.ok report)

let test_lying_is_not_a_violation () =
  (* A byzantine party that simply misreports its preferences produces a
     perfectly valid bSM outcome (stability is judged on honest inputs
     only). This is the Roth manipulation in the distributed setting. *)
  let k = 3 in
  let s =
    setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
      ~tl:0 ~tr:1
  in
  let profile, manipulation = SM.Truthfulness.roth_instance () in
  let liar = manipulation.SM.Truthfulness.manipulator in
  let seed = 21 in
  let byzantine =
    [
      ( liar,
        H.Adversaries.lying ~setting:s ~seed ~fake:manipulation.SM.Truthfulness.fake
          ~self:liar );
    ]
  in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed s profile) in
  if not (H.Scenario.ok report) then
    Alcotest.failf "lying run:@ %s" (Format.asprintf "%a" H.Scenario.pp_report report);
  (* And the liar profits: the honest parties matched it to its true
     favorite. *)
  let partner_of_liar =
    List.find_map
      (fun (p, d) ->
        match (d : Core.Problem.decision) with
        | Core.Problem.Matched q when Party_id.equal q liar -> Some p
        | Core.Problem.Matched _ | Core.Problem.Nobody | Core.Problem.No_output -> None)
      report.H.Scenario.outcome.Core.Problem.decisions
  in
  match partner_of_liar with
  | Some p ->
    Alcotest.(check int) "liar got its lying-partner"
      manipulation.SM.Truthfulness.lying_partner (Party_id.index p)
  | None -> Alcotest.fail "liar unmatched"

(* --- distributed Gale-Shapley (fault-free) --------------------------------- *)

let test_distributed_gs_matches_centralized () =
  (* Same matching and the exact same proposal count as the centralized
     parallel algorithm, over random instances. *)
  let rng = Rng.make 71 in
  for _ = 1 to 25 do
    let k = 2 + Rng.int rng 6 in
    let profile = SM.Profile.random rng k in
    let matching, _, proposals = Core.Distributed_gs.run profile in
    let expected, stats = SM.Gale_shapley.run_with_stats profile in
    Alcotest.(check bool) "same matching" true (SM.Matching.equal matching expected);
    Alcotest.(check int) "same proposal count" stats.SM.Gale_shapley.proposals proposals
  done

let test_distributed_gs_worst_case_quadratic () =
  let k = 8 in
  let _, _, proposals = Core.Distributed_gs.run (SM.Profile.worst_case k) in
  Alcotest.(check int) "k(k+1)/2 proposals" (k * (k + 1) / 2) proposals

let test_distributed_gs_similarity_costs_more () =
  (* Correlated (similar) preference lists create contention: everyone
     chases the same partners and plain Gale-Shapley pays more proposals —
     the regime that motivates Khanchandani-Wattenhofer's specialized
     algorithm (their lower bound grows with similarity). Averaged over
     seeds. *)
  let k = 12 in
  let mean_proposals ~swaps =
    let total = ref 0 in
    for seed = 1 to 8 do
      let profile = SM.Profile.similar (Rng.make seed) ~swaps k in
      let _, _, proposals = Core.Distributed_gs.run profile in
      total := !total + proposals
    done;
    !total / 8
  in
  let near_identical = mean_proposals ~swaps:1 in
  let shuffled = mean_proposals ~swaps:60 in
  Alcotest.(check bool)
    (Printf.sprintf "correlated lists cost more (%d vs %d)" near_identical shuffled)
    true
    (near_identical >= shuffled)

let test_distributed_gs_stability () =
  let rng = Rng.make 73 in
  for _ = 1 to 15 do
    let k = 3 + Rng.int rng 5 in
    let profile = SM.Profile.random rng k in
    let matching, _, _ = Core.Distributed_gs.run profile in
    Alcotest.(check bool) "stable" true (SM.Verify.is_stable profile matching)
  done

(* --- edge cases and robustness --------------------------------------------- *)

let test_k1_settings () =
  (* The degenerate single-pair instance must work in every solvable
     setting: with k = 1, k/3 conditions force t = 0 in unauth settings. *)
  let profile = SM.Profile.worst_case 1 in
  List.iter
    (fun (topology, auth, tl, tr) ->
      let s = setting ~k:1 ~topology ~auth ~tl ~tr in
      if Core.Solvability.solvable s then begin
        let report = H.Scenario.run (H.Scenario.make_exn s profile) in
        if not (H.Scenario.ok report) then
          Alcotest.failf "k=1 violation at %s" (Format.asprintf "%a" Core.Setting.pp s);
        List.iter
          (fun (p, d) ->
            match (d : Core.Problem.decision) with
            | Core.Problem.Matched q ->
              Alcotest.(check bool) "matched across" true
                (not (Side.equal (Party_id.side p) (Party_id.side q)))
            | Core.Problem.Nobody | Core.Problem.No_output ->
              Alcotest.fail "k=1 honest pair must match")
          report.H.Scenario.outcome.Core.Problem.decisions
      end)
    [
      Topology.Fully_connected, Core.Setting.Unauthenticated, 0, 0;
      Topology.Bipartite, Core.Setting.Unauthenticated, 0, 0;
      Topology.Fully_connected, Core.Setting.Authenticated, 1, 1;
      Topology.One_sided, Core.Setting.Authenticated, 1, 0;
    ]

let test_k1_pi_bsm_all_r_byzantine () =
  (* k = 1, bipartite auth, t_R = 1: the single L party's only counterpart
     is byzantine; L must terminate without crashing (matching nobody or
     the byzantine party, both fine). *)
  let s =
    setting ~k:1 ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated ~tl:0
      ~tr:1
  in
  let profile = SM.Profile.worst_case 1 in
  let byzantine = [ Party_id.right 0, H.Adversaries.silent ] in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine s profile) in
  if not (H.Scenario.ok report) then
    Alcotest.failf "k=1 pi_bsm:@ %s" (Format.asprintf "%a" H.Scenario.pp_report report)

let test_scenario_rejects_over_budget () =
  let s =
    setting ~k:2 ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
      ~tl:1 ~tr:0
  in
  let profile = SM.Profile.worst_case 2 in
  let too_many =
    [ Party_id.left 0, H.Adversaries.silent; Party_id.left 1, H.Adversaries.silent ]
  in
  Alcotest.(check bool) "over budget rejected" true
    (Result.is_error (H.Scenario.make ~byzantine:too_many s profile));
  let wrong_side = [ Party_id.right 0, H.Adversaries.silent ] in
  Alcotest.(check bool) "tR budget enforced" true
    (Result.is_error (H.Scenario.make ~byzantine:wrong_side s profile));
  let duplicate =
    [ Party_id.left 0, H.Adversaries.silent; Party_id.left 0, H.Adversaries.noise ~seed:1 ]
  in
  Alcotest.(check bool) "duplicate rejected" true
    (Result.is_error (H.Scenario.make ~byzantine:duplicate s profile))

let test_run_ssm_all_settings_byzantine () =
  (* The sSM wrapper end-to-end in all six settings with byzantine
     coalitions. *)
  let k = 3 in
  let rng = Rng.make 101 in
  List.iter
    (fun s ->
      let favs =
        List.map
          (fun p -> p, Party_id.make (Side.opposite (Party_id.side p)) (Rng.int rng k))
          (Party_id.all ~k)
      in
      let favorites p = List.assoc p favs in
      let profile = Core.Ssm.favorites_to_profile ~k favorites in
      let byzantine = H.Adversaries.random_coalition rng ~setting:s ~seed:7 ~profile in
      let scenario = H.Scenario.make_exn ~byzantine ~seed:7 s profile in
      let report = H.Scenario.run_ssm ~favorites scenario in
      if not (H.Scenario.ok report) then
        Alcotest.failf "ssm violation at %s:@ %s"
          (Format.asprintf "%a" Core.Setting.pp s)
          (Format.asprintf "%a" H.Scenario.pp_report report))
    (solvable_examples ~k)

let test_engine_determinism () =
  (* Two executions of the same scenario are bit-identical: decisions and
     metrics. This is what makes every experiment in this repo
     reproducible. *)
  let k = 4 in
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Unauthenticated ~tl:1
      ~tr:1
  in
  let rng = Rng.make 5 in
  let profile = SM.Profile.random rng k in
  let make_byz () =
    (* Strategies must be rebuilt per run (stateful rngs inside), from the
       same seeds. *)
    [
      Party_id.left 0, H.Adversaries.noise ~seed:11;
      Party_id.right 3, H.Adversaries.noise ~seed:13;
    ]
  in
  let run () = H.Scenario.run (H.Scenario.make_exn ~byzantine:(make_byz ()) ~seed:3 s profile) in
  let a = run () and b = run () in
  Alcotest.(check int) "same messages" a.H.Scenario.metrics.Engine.messages_sent
    b.H.Scenario.metrics.Engine.messages_sent;
  Alcotest.(check int) "same bytes" a.H.Scenario.metrics.Engine.bytes_sent
    b.H.Scenario.metrics.Engine.bytes_sent;
  Alcotest.(check bool) "same decisions" true
    (a.H.Scenario.outcome.Core.Problem.decisions
    = b.H.Scenario.outcome.Core.Problem.decisions)

let test_session_ignores_forged_tags () =
  (* A byzantine party floods a session with unknown and malformed tags;
     the multiplexed BB instances must be unaffected. *)
  let k = 2 in
  let s =
    setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
      ~tl:0 ~tr:1
  in
  let rng = Rng.make 7 in
  let profile = SM.Profile.random rng k in
  let flooder (env : Engine.env) =
    for _ = 1 to 15 do
      List.iter
        (fun p ->
          if not (Party_id.equal p env.Engine.self) then begin
            (* plausible-looking session wrapper with an unknown tag *)
            env.Engine.send p (B.Session.wrap "NO-SUCH-TAG" "payload");
            (* raw garbage *)
            env.Engine.send p "\xff\xfe\x00garbage"
          end)
        (Party_id.all ~k);
      ignore (env.Engine.next_round ())
    done
  in
  let byzantine = [ Party_id.right 1, flooder ] in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed:1 s profile) in
  if not (H.Scenario.ok report) then
    Alcotest.failf "forged tags broke the session:@ %s"
      (Format.asprintf "%a" H.Scenario.pp_report report)

let test_channels_duplicate_forwards_delivered_once () =
  (* A byzantine relay forwards the same signed request twice; replay
     suppression must deliver it exactly once. *)
  let pki = Crypto.Pki.setup ~k:2 ~seed:21 in
  let received = ref [] in
  let duplicating_relay (env : Engine.env) =
    let inbox = env.Engine.next_round () in
    (* forward each request twice in the same round *)
    List.iter (Core.Channels.forward_duty env ~topology:Topology.Bipartite) inbox;
    List.iter (Core.Channels.forward_duty env ~topology:Topology.Bipartite) inbox;
    ignore (env.Engine.next_round ())
  in
  let programs p (env : Engine.env) =
    if Side.equal (Party_id.side p) Side.Right then
      if Party_id.equal p (Party_id.right 0) then duplicating_relay env
      else B.Strategies.silent env
    else begin
      let net =
        Core.Channels.virtual_net env ~topology:Topology.Bipartite
          ~auth:(signed_auth pki p)
      in
      if Party_id.equal p (Party_id.left 0) then begin
        net.Bsm_runtime.Net.send (Party_id.left 1) "once";
        ignore (net.Bsm_runtime.Net.sync ())
      end
      else received := net.Bsm_runtime.Net.sync ()
    end
  in
  let cfg = Engine.config ~k:2 ~link:(Engine.Of_topology Topology.Bipartite) () in
  ignore (Engine.run cfg ~programs:(fun p env -> programs p env));
  Alcotest.(check int) "exactly one delivery" 1 (List.length !received)

(* A byzantine L0 signs its own requests to L1, [schedule] giving the
   fresh ids of each virtual round; every round it also replays all
   earlier ids under the new round stamp, and sends each frame twice to
   both relays. The honest relays forward every copy. Returns L1's inbox
   per virtual round and the bytes the run allocated. *)
let run_signed_ids schedule =
  let k = 2 and topology = Topology.Bipartite in
  let pki = Crypto.Pki.setup ~k ~seed:5 in
  let src = Party_id.left 0 and target = Party_id.left 1 in
  let signer = Crypto.Pki.signer pki src in
  let request ~vround ~id =
    let p = { Core.Channels.src; dst = target; vround; id; body = string_of_int id; signature = None } in
    (* The signature covers the payload codec's bytes: the request frame
       minus its variant tag. *)
    let unsigned = Wire.encode Core.Channels.relay_codec (Core.Channels.Request p) in
    let msg = String.sub unsigned 1 (String.length unsigned - 1) in
    Wire.encode Core.Channels.relay_codec
      (Core.Channels.Request { p with signature = Some (Crypto.Signer.sign signer msg) })
  in
  let vrounds = List.length schedule in
  let byzantine (env : Engine.env) =
    List.iteri
      (fun vround _ ->
        List.iter
          (fun id ->
            let f = request ~vround ~id in
            List.iter (fun r -> env.Engine.send r f; env.Engine.send r f) (Party_id.side_members Side.Right ~k))
          (List.concat (List.filteri (fun i _ -> i <= vround) schedule));
        ignore (env.Engine.next_round ());
        ignore (env.Engine.next_round ()))
      schedule
  in
  let relay (env : Engine.env) =
    let forward = Core.Channels.forward_duty env ~topology in
    for _ = 1 to 2 * vrounds do
      List.iter forward (env.Engine.next_round ())
    done
  in
  let inboxes = ref [] in
  let programs p (env : Engine.env) =
    if Party_id.equal p src then byzantine env
    else if Side.equal (Party_id.side p) Side.Right then relay env
    else begin
      let net = Core.Channels.virtual_net env ~topology ~auth:(signed_auth pki p) in
      inboxes := List.init vrounds (fun _ -> net.Bsm_runtime.Net.sync ())
    end
  in
  let cfg = Engine.config ~k ~link:(Engine.Of_topology topology) () in
  let before = Gc.allocated_bytes () in
  ignore (Engine.run cfg ~programs:(fun p env -> programs p env));
  let allocated = Gc.allocated_bytes () -. before in
  let ids inbox = List.sort compare (List.map (fun (_, body) -> int_of_string body) inbox) in
  List.map ids !inboxes, allocated

let test_signed_replay_across_id_map () =
  (* Ids on both sides of the replay map's dense bound (65536) and at
     max_int; 1500 lands in the sender's table while the map is short
     and moves into the map when 1400 grows it. Each id is accepted
     exactly once, in its own round, and every replay is suppressed. *)
  let schedule = [ [ 0; 1500; 65535; 65536; 65537; max_int ]; [ 900 ]; [ 1400 ]; [] ] in
  let inboxes, _ = run_signed_ids schedule in
  Alcotest.(check (list (list int)))
    "each id once, then suppressed"
    (List.map (List.sort compare) schedule)
    inboxes

let test_far_id_allocates_no_map () =
  (* One accepted id of 65535 must cost a table entry, not a byte map
     reaching it: the run allocates about what the same run with id 0
     does, far less than the 64 KiB such a map would take. *)
  let near, near_bytes = run_signed_ids [ [ 0 ] ] in
  let far, far_bytes = run_signed_ids [ [ 65535 ] ] in
  Alcotest.(check (list (list int))) "id 0 accepted" [ [ 0 ] ] near;
  Alcotest.(check (list (list int))) "id 65535 accepted" [ [ 65535 ] ] far;
  Alcotest.(check bool)
    (Printf.sprintf "far id allocates %.0f bytes more than id 0" (far_bytes -. near_bytes))
    true
    (far_bytes -. near_bytes < 16_384.)

(* --- sSM ------------------------------------------------------------------ *)

let test_ssm_mutual_favorites_matched () =
  let k = 3 in
  let s =
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Unauthenticated ~tl:0
      ~tr:1
  in
  (* L0 and R1 are mutual favorites; R2 is byzantine. *)
  let favorites p =
    match Party_id.side p, Party_id.index p with
    | Side.Left, 0 -> Party_id.right 1
    | Side.Left, i -> Party_id.right ((i + 1) mod k)
    | Side.Right, 1 -> Party_id.left 0
    | Side.Right, i -> Party_id.left ((i + 2) mod k)
  in
  let profile = Core.Ssm.favorites_to_profile ~k favorites in
  let byzantine = [ Party_id.right 2, H.Adversaries.noise ~seed:3 ] in
  let scenario = H.Scenario.make_exn ~byzantine ~seed:17 s profile in
  let report = H.Scenario.run_ssm ~favorites scenario in
  if not (H.Scenario.ok report) then
    Alcotest.failf "sSM run:@ %s" (Format.asprintf "%a" H.Scenario.pp_report report);
  let l0 =
    List.assoc (Party_id.left 0) report.H.Scenario.outcome.Core.Problem.decisions
  in
  match l0 with
  | Core.Problem.Matched q ->
    Alcotest.(check bool) "L0 matched its mutual favorite" true
      (Party_id.equal q (Party_id.right 1))
  | Core.Problem.Nobody | Core.Problem.No_output ->
    Alcotest.fail "L0 must match its mutual favorite"

(* [sync] parks its fiber once per engine round. A cell allocated
   before a park is promoted by any minor collection during it, and
   every later write of a young value into it puts it in the remembered
   set, so the next minor collection promotes whatever it points to —
   the round's whole inbox list, though the cell is already dead. Four
   parties per side multicast 200 bytes to everyone for 50 rounds, and
   L0 collects each round: with the inbox lists threaded through
   arguments, the run promotes ~17k words; with refs written after the
   park, ~96k. *)
let test_sync_promotes_little () =
  if Sys.backend_type = Sys.Native then begin
    let k = 4 and rounds = 50 in
    let body = String.make 200 'x' in
    let programs p (env : Engine.env) =
      let net =
        Core.Channels.virtual_net env ~topology:Topology.Fully_connected
          ~auth:Core.Channels.Majority
      in
      let others = List.filter (fun q -> not (Party_id.equal q p)) (Party_id.all ~k) in
      for _ = 1 to rounds do
        net.Bsm_runtime.Net.send_many others body;
        if Party_id.equal p (Party_id.left 0) then Gc.minor ();
        ignore (Sys.opaque_identity (net.Bsm_runtime.Net.sync ()))
      done
    in
    let cfg = Engine.config ~k ~link:(Engine.Of_topology Topology.Fully_connected) () in
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.promoted_words in
    ignore (Engine.run cfg ~programs);
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
    Alcotest.(check bool)
      (Printf.sprintf "promoted %.0f words <= 40000" promoted)
      true (promoted <= 40_000.)
  end

let () =
  Alcotest.run "core"
    [
      ( "solvability",
        [
          Alcotest.test_case "spot checks per theorem" `Quick test_solvability_spot_checks;
          Alcotest.test_case "monotonicity" `Quick test_solvability_monotone;
          Alcotest.test_case "plan iff solvable" `Quick test_plan_exists_iff_solvable;
        ] );
      ( "channels",
        [
          Alcotest.test_case "majority proxy delivers" `Quick test_majority_proxy_delivers;
          Alcotest.test_case "majority proxy, byzantine minority" `Quick
            test_majority_proxy_survives_minority_byz;
          Alcotest.test_case "majority proxy blocks junk" `Quick
            test_majority_proxy_blocks_forgery;
          Alcotest.test_case "signed proxy, single honest relay" `Quick
            test_signed_proxy_single_honest_relay;
          Alcotest.test_case "signed proxy drops late forward" `Quick
            test_signed_proxy_drops_late_forward;
          QCheck_alcotest.to_alcotest prop_channels_reliable_links;
          Alcotest.test_case "direct frames match the codec" `Quick
            test_direct_frames_match_codec;
          Alcotest.test_case "header read matches the codec" `Quick
            test_header_read_matches_reference;
          Alcotest.test_case "forward duty matches the reference" `Quick
            test_forward_duty_matches_reference;
          Alcotest.test_case "majority dedups forged sources and huge ids" `Quick
            test_majority_dedups_forged_sources;
          Alcotest.test_case "request frames match the codec" `Quick
            test_request_frames_match_codec;
          Alcotest.test_case "signed receive matches the reference" `Quick
            test_signed_receive_matches_reference;
          Alcotest.test_case "sync promotes no dead inbox" `Quick
            test_sync_promotes_little;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "honest runs, all six settings" `Quick
            test_honest_runs_all_settings;
          Alcotest.test_case "round complexity matches plan" `Quick
            test_round_complexity_matches_plan;
          Alcotest.test_case "message model exact" `Quick test_predicted_messages_exact;
          Alcotest.test_case "byzantine sweep k=3" `Slow test_byzantine_runs_all_settings;
          Alcotest.test_case "byzantine sweep k=4" `Slow test_byzantine_runs_k4;
          Alcotest.test_case "byzantine sweep k=6" `Slow test_byzantine_runs_k6;
        ] );
      ( "pi-bsm",
        [
          Alcotest.test_case "fully byzantine R side" `Quick
            test_pi_bsm_fully_byzantine_side;
          Alcotest.test_case "selective forwarding (partial omissions)" `Quick
            test_pi_bsm_selective_forwarding;
          Alcotest.test_case "one honest relay" `Quick test_pi_bsm_one_honest_relay;
          Alcotest.test_case "mirrored computing side" `Quick test_pi_bsm_mirrored_side;
          Alcotest.test_case "one-sided, tR=k" `Quick
            test_one_sided_auth_fully_byzantine_r;
        ] );
      ( "manipulation",
        [ Alcotest.test_case "lying is not a violation" `Quick test_lying_is_not_a_violation ]
      );
      ( "properties",
        [
          Alcotest.test_case "bogus suggestions outvoted" `Quick
            test_pi_bsm_bogus_suggestions;
          QCheck_alcotest.to_alcotest prop_random_solvable_settings_never_violate;
        ] );
      ( "ssm",
        [
          Alcotest.test_case "mutual favorites matched" `Quick
            test_ssm_mutual_favorites_matched;
          Alcotest.test_case "all six settings, byzantine" `Quick
            test_run_ssm_all_settings_byzantine;
        ] );
      ( "distributed-gs",
        [
          Alcotest.test_case "matches centralized run exactly" `Quick
            test_distributed_gs_matches_centralized;
          Alcotest.test_case "worst case is quadratic" `Quick
            test_distributed_gs_worst_case_quadratic;
          Alcotest.test_case "correlated lists cost more proposals" `Quick
            test_distributed_gs_similarity_costs_more;
          Alcotest.test_case "always stable" `Quick test_distributed_gs_stability;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "k=1 settings" `Quick test_k1_settings;
          Alcotest.test_case "k=1 Pi_bsm, byzantine counterpart" `Quick
            test_k1_pi_bsm_all_r_byzantine;
          Alcotest.test_case "scenario budget validation" `Quick
            test_scenario_rejects_over_budget;
          Alcotest.test_case "engine determinism" `Quick test_engine_determinism;
          Alcotest.test_case "session ignores forged tags" `Quick
            test_session_ignores_forged_tags;
          Alcotest.test_case "signed replay across the id map bound" `Quick
            test_signed_replay_across_id_map;
          Alcotest.test_case "far id allocates no dense map" `Quick
            test_far_id_allocates_no_map;
          Alcotest.test_case "duplicate forwards delivered once" `Quick
            test_channels_duplicate_forwards_delivered_once;
        ] );
    ]
