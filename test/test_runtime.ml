(* Tests for the synchronous round engine: fiber scheduling, delivery
   timing, topology enforcement, omission faults, metrics. *)

open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire

(* Envelope payloads are zero-copy arena views; materialize for
   assertions. *)
let data_str (e : Engine.envelope) = Wire.Slice.to_string e.Engine.data

let party_id = Alcotest.testable Party_id.pp Party_id.equal

let run ?(topology = Topology.Fully_connected) ?max_rounds ?faults ~k programs =
  let cfg =
    Engine.config ?max_rounds ?faults ~k ~link:(Engine.Of_topology topology) ()
  in
  Engine.run cfg ~programs

let status_of res p = (Engine.find_result res p).Engine.status

let check_status what expected res p =
  let pp_status ppf (s : Engine.status) =
    match s with
    | Engine.Terminated -> Format.pp_print_string ppf "terminated"
    | Engine.Out_of_rounds -> Format.pp_print_string ppf "out-of-rounds"
    | Engine.Crashed m -> Format.fprintf ppf "crashed: %s" m
  in
  let status = Alcotest.testable pp_status ( = ) in
  Alcotest.check status what expected (status_of res p)

(* --- basic scheduling -------------------------------------------------- *)

let test_all_terminate_immediately () =
  let res = run ~k:2 (fun _ -> fun env -> env.Engine.output "done") in
  List.iter
    (fun (r : Engine.party_result) ->
      Alcotest.(check bool) "terminated" true (r.status = Engine.Terminated);
      Alcotest.(check (option string)) "output" (Some "done") r.out)
    res.parties;
  Alcotest.(check int) "no rounds needed" 0 res.metrics.rounds_used

let test_message_delivered_next_round () =
  (* L0 sends "hi" to R0 in round 0; R0 must see it in round 1 and nothing
     in round 2. *)
  let saw = ref [] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      env.Engine.send (Party_id.right 0) "hi"
    else if Party_id.equal id (Party_id.right 0) then begin
      let inbox1 = env.Engine.next_round () in
      let inbox2 = env.Engine.next_round () in
      saw := [ inbox1; inbox2 ]
    end
  in
  let res = run ~k:1 programs in
  check_status "R0 terminated" Engine.Terminated res (Party_id.right 0);
  match !saw with
  | [ [ e ]; [] ] ->
    Alcotest.check party_id "sender" (Party_id.left 0) e.Engine.src;
    Alcotest.(check string) "payload" "hi" (data_str e)
  | _ -> Alcotest.fail "expected exactly one message in round 1 and none in round 2"

let test_round_counter () =
  let rounds_seen = ref [] in
  let programs _ env =
    rounds_seen := env.Engine.round () :: !rounds_seen;
    ignore (env.Engine.next_round ());
    rounds_seen := env.Engine.round () :: !rounds_seen;
    ignore (env.Engine.next_round ());
    rounds_seen := env.Engine.round () :: !rounds_seen
  in
  let res = run ~k:1 programs in
  Alcotest.(check int) "rounds used" 2 res.metrics.rounds_used;
  let sorted = List.sort_uniq compare !rounds_seen in
  Alcotest.(check (list int)) "each fiber saw rounds 0,1,2" [ 0; 1; 2 ] sorted

let test_ping_pong () =
  (* L0 and R0 bounce a counter; each increments and returns it. After 6
     rounds L0 should hold 6. *)
  let final = ref (-1) in
  let peer id =
    if Side.equal (Party_id.side id) Side.Left then Party_id.right 0
    else Party_id.left 0
  in
  let programs id env =
    let me_first = Side.equal (Party_id.side id) Side.Left in
    if me_first then env.Engine.send (peer id) "0";
    let rec loop () =
      match env.Engine.next_round () with
      | [ e ] ->
        let v = int_of_string (data_str e) + 1 in
        if v >= 6 then final := v
        else begin
          env.Engine.send (peer id) (string_of_int v);
          loop ()
        end
      | [] -> loop ()
      | _ -> Alcotest.fail "unexpected traffic"
    in
    if Party_id.index id = 0 then loop ()
  in
  let res = run ~k:1 ~max_rounds:20 programs in
  ignore res;
  Alcotest.(check int) "counter reached 6" 6 !final

let test_out_of_rounds () =
  let programs _ env =
    while true do
      ignore (env.Engine.next_round ())
    done
  in
  let res = run ~k:1 ~max_rounds:5 programs in
  Alcotest.(check int) "hit the budget" 5 res.metrics.rounds_used;
  check_status "L0 out of rounds" Engine.Out_of_rounds res (Party_id.left 0)

let test_crash_is_reported () =
  let programs id _env =
    if Party_id.equal id (Party_id.left 0) then failwith "boom"
  in
  let res = run ~k:1 programs in
  (match status_of res (Party_id.left 0) with
  | Engine.Crashed m -> Alcotest.(check bool) "message" true (String.length m > 0)
  | _ -> Alcotest.fail "expected crash");
  check_status "R0 unaffected" Engine.Terminated res (Party_id.right 0)

let test_crash_after_send_still_delivers () =
  (* A party that sends then crashes in the same round: the message was
     already queued and must still be delivered (the paper's adversary can
     always behave this way, so the engine must not retract it). *)
  let got = ref false in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.right 0) "last words";
      failwith "crash"
    end
    else got := env.Engine.next_round () <> []
  in
  ignore (run ~k:1 programs);
  Alcotest.(check bool) "delivered" true !got

(* --- topology enforcement ---------------------------------------------- *)

let inbox_senders env = List.map (fun e -> e.Engine.src) (env.Engine.next_round ())

let test_bipartite_blocks_same_side () =
  let l1_saw = ref [] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.left 1) "intra";
      env.Engine.send (Party_id.right 0) "cross"
    end
    else if Party_id.equal id (Party_id.left 1) then l1_saw := inbox_senders env
    else ignore (env.Engine.next_round ())
  in
  let res = run ~topology:Topology.Bipartite ~k:2 programs in
  Alcotest.(check (list party_id)) "L1 got nothing" [] !l1_saw;
  Alcotest.(check int) "one drop" 1 res.metrics.messages_dropped_topology

let test_one_sided_allows_rr_blocks_ll () =
  let r1_saw = ref [] in
  let l1_saw = ref [] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then env.Engine.send (Party_id.left 1) "x"
    else if Party_id.equal id (Party_id.right 0) then
      env.Engine.send (Party_id.right 1) "y"
    else if Party_id.equal id (Party_id.left 1) then l1_saw := inbox_senders env
    else if Party_id.equal id (Party_id.right 1) then r1_saw := inbox_senders env
  in
  ignore (run ~topology:Topology.One_sided ~k:2 programs);
  Alcotest.(check (list party_id)) "L-L dropped" [] !l1_saw;
  Alcotest.(check (list party_id)) "R-R delivered" [ Party_id.right 0 ] !r1_saw

let test_out_of_roster_send_dropped () =
  (* A byzantine fiber addressing a party outside the roster must not
     crash the engine; the message counts as a topology drop. *)
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.left 99) "junk";
      env.Engine.send (Party_id.right 0) "real"
    end
    else ignore (env.Engine.next_round ())
  in
  let res = run ~k:1 programs in
  Alcotest.(check int) "junk dropped" 1 res.metrics.messages_dropped_topology;
  Alcotest.(check int) "real delivered" 1 res.metrics.messages_delivered

let test_self_send_dropped () =
  let saw = ref [ Party_id.left 0 ] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.left 0) "me";
      saw := inbox_senders env
    end
  in
  ignore (run ~k:1 programs);
  Alcotest.(check (list party_id)) "no self delivery" [] !saw

(* --- faults ------------------------------------------------------------ *)

let test_bytes_exclude_omitted () =
  (* L0's messages are omitted by the fault model, L1's delivered;
     bytes_delivered must count only the delivered payloads, while
     bytes_sent counts every send at the length the sender wrote. *)
  let faults =
    Engine.fault_model (fun ~round:_ ~src ~dst:_ ->
        Party_id.equal src (Party_id.left 0))
  in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      env.Engine.send (Party_id.right 0) "dropped!!"
    else if Party_id.equal id (Party_id.left 1) then
      env.Engine.send (Party_id.right 0) "kept"
    else if Party_id.equal id (Party_id.right 0) then
      ignore (env.Engine.next_round ())
  in
  let res = run ~k:2 ~faults programs in
  Alcotest.(check int) "both sends counted" 2 res.metrics.messages_sent;
  Alcotest.(check int) "one delivered" 1 res.metrics.messages_delivered;
  Alcotest.(check int) "one omitted" 1 res.metrics.messages_dropped_fault;
  Alcotest.(check int) "only delivered bytes" 4 res.metrics.bytes_delivered;
  Alcotest.(check int) "all sent bytes" 13 res.metrics.bytes_sent

let test_bytes_exclude_topology_drops () =
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.left 1) "blocked";
      env.Engine.send (Party_id.right 0) "ok"
    end
    else ignore (env.Engine.next_round ())
  in
  let cfg =
    Engine.config ~k:2 ~link:(Engine.Of_topology Topology.Bipartite) ()
  in
  let res = Engine.run cfg ~programs in
  Alcotest.(check int) "only delivered bytes" 2 res.Engine.metrics.bytes_delivered;
  Alcotest.(check int) "all sent bytes" 9 res.Engine.metrics.bytes_sent

let test_omission_fault_drops () =
  let faults =
    Engine.fault_model (fun ~round:_ ~src ~dst:_ ->
        Party_id.equal src (Party_id.left 0))
  in
  let saw = ref [ "sentinel" ] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then env.Engine.send (Party_id.right 0) "a"
    else if Party_id.equal id (Party_id.left 1) then
      env.Engine.send (Party_id.right 0) "b"
    else if Party_id.equal id (Party_id.right 0) then
      saw := List.map data_str (env.Engine.next_round ())
  in
  let res = run ~k:2 ~faults programs in
  Alcotest.(check (list string)) "only L1's message" [ "b" ] !saw;
  Alcotest.(check int) "one fault drop" 1 res.metrics.messages_dropped_fault

let test_topology_drop_precedes_fault_drop () =
  (* A message without a channel is a topology drop even under an
     always-drop fault model: the fault model must not be consulted (its
     label never appears) and the message counts against exactly one
     counter. *)
  let consulted = ref 0 in
  let faults =
    Engine.fault_model
      ~label:(fun ~round:_ ~src:_ ~dst:_ -> Some "always")
      (fun ~round:_ ~src:_ ~dst:_ ->
        incr consulted;
        true)
  in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.left 1) "blocked";
      (* off-topology on Bipartite *)
      env.Engine.send (Party_id.right 0) "omitted" (* on-topology, faulted *)
    end
    else ignore (env.Engine.next_round ())
  in
  let cfg =
    Engine.config ~k:2 ~faults ~link:(Engine.Of_topology Topology.Bipartite) ()
  in
  let res = Engine.run cfg ~programs in
  let m = res.Engine.metrics in
  Alcotest.(check int) "fault model consulted once" 1 !consulted;
  Alcotest.(check int) "one topology drop" 1 m.messages_dropped_topology;
  Alcotest.(check int) "one fault drop" 1 m.messages_dropped_fault;
  Alcotest.(check int) "sent" 2 m.messages_sent;
  Alcotest.(check int) "delivered" 0 m.messages_delivered;
  Alcotest.(check (list (pair string int)))
    "only the faulted message labelled"
    [ "always", 1 ]
    m.messages_dropped_by_label

let test_drop_labels_in_metrics_and_trace () =
  (* Labelled omissions are tallied per label (sorted) and stamped on the
     trace events; unlabelled omissions count in messages_dropped_fault
     but appear under no label. *)
  let faults =
    Engine.fault_model
      ~label:(fun ~round:_ ~src ~dst:_ ->
        if Party_id.equal src (Party_id.left 0) then Some "zap-L0"
        else if Party_id.equal src (Party_id.left 1) then Some "a-zap-L1"
        else None)
      (fun ~round:_ ~src ~dst ->
        Side.equal (Party_id.side src) Side.Left
        && Party_id.equal dst (Party_id.right 0))
  in
  let programs id env =
    if Side.equal (Party_id.side id) Side.Left then begin
      env.Engine.send (Party_id.right 0) "x";
      env.Engine.send (Party_id.right 1) "y"
    end
    else ignore (env.Engine.next_round ())
  in
  let cfg =
    Engine.config ~k:3 ~faults ~trace_limit:100
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  let m = res.Engine.metrics in
  Alcotest.(check int) "three omissions" 3 m.messages_dropped_fault;
  Alcotest.(check (list (pair string int)))
    "labels sorted, unlabelled (L2) unlisted"
    [ "a-zap-L1", 1; "zap-L0", 1 ]
    m.messages_dropped_by_label;
  let labelled_events =
    List.filter_map (fun e -> e.Engine.event_label) res.Engine.trace
  in
  Alcotest.(check (list string))
    "trace carries labels" [ "zap-L0"; "a-zap-L1" ]
    labelled_events;
  List.iter
    (fun e ->
      if e.Engine.event_fate <> `Omitted then
        Alcotest.(check (option string))
          "only omissions labelled" None e.Engine.event_label)
    res.Engine.trace

(* --- in-flight corruption ------------------------------------------------ *)

let test_corrupt_rewrites_and_counts () =
  (* A corrupted frame is delivered (with the mutated bytes), counted in
     messages_delivered AND messages_corrupted, tallied under its label,
     and its mutated length is what bytes_delivered sees (bytes_sent
     keeps the pre-mutation written length). *)
  let faults =
    Engine.fault_model
      ~corrupt:(fun ~round:_ ~src ~dst:_ ~prev:_ data ->
        if Party_id.equal src (Party_id.left 0) then Some (data ^ "!", "garble")
        else None)
      (fun ~round:_ ~src:_ ~dst:_ -> false)
  in
  let saw = ref [] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      env.Engine.send (Party_id.right 0) "hi"
    else if Party_id.equal id (Party_id.left 1) then
      env.Engine.send (Party_id.right 0) "ok"
    else if Party_id.equal id (Party_id.right 0) then
      saw := List.map data_str (env.Engine.next_round ())
  in
  let cfg =
    Engine.config ~k:2 ~faults ~trace_limit:100
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  let m = res.Engine.metrics in
  Alcotest.(check (list string)) "mutated payload delivered" [ "hi!"; "ok" ] !saw;
  Alcotest.(check int) "both delivered" 2 m.messages_delivered;
  Alcotest.(check int) "one corrupted" 1 m.messages_corrupted;
  Alcotest.(check int) "no fault drops" 0 m.messages_dropped_fault;
  Alcotest.(check (list (pair string int)))
    "label tallied" [ "garble", 1 ] m.messages_dropped_by_label;
  Alcotest.(check int) "bytes count the mutated length" 5 m.bytes_delivered;
  Alcotest.(check int) "sent bytes keep the written length" 4 m.bytes_sent;
  let corrupted_events =
    List.filter (fun e -> e.Engine.event_fate = `Corrupted) res.Engine.trace
  in
  match corrupted_events with
  | [ e ] ->
    Alcotest.(check (option string))
      "trace event labelled" (Some "garble") e.Engine.event_label
  | es -> Alcotest.failf "expected one corrupted trace event, got %d" (List.length es)

let test_corrupt_prev_is_last_delivered_frame () =
  (* [prev] must be the frame delivered on the same link in an earlier
     round — post-mutation bytes — and never a same-round frame: both
     round-0 frames see prev = None (staged, committed only after the
     deliver sweep), and the round-1 frame sees the last round-0
     delivery. *)
  let prevs = ref [] in
  let faults =
    Engine.fault_model
      ~corrupt:(fun ~round:_ ~src:_ ~dst:_ ~prev data ->
        prevs := (data, prev) :: !prevs;
        Some (data ^ "!", "tag"))
      (fun ~round:_ ~src:_ ~dst:_ -> false)
  in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.right 0) "x";
      env.Engine.send (Party_id.right 0) "y";
      ignore (env.Engine.next_round ());
      env.Engine.send (Party_id.right 0) "z"
    end
    else begin
      ignore (env.Engine.next_round ());
      ignore (env.Engine.next_round ())
    end
  in
  ignore (run ~k:1 ~faults programs);
  Alcotest.(check (option string)) "x sees no prev" None (List.assoc "x" !prevs);
  Alcotest.(check (option string))
    "y sees no prev (same round as x)" None (List.assoc "y" !prevs);
  Alcotest.(check (option string))
    "z sees the last delivered frame" (Some "y!") (List.assoc "z" !prevs)

let test_drop_precedes_corrupt () =
  (* The corrupt hook is only consulted for frames that survive the drop
     decision: a dropped frame is an omission, never a corruption. *)
  let consulted = ref 0 in
  let faults =
    Engine.fault_model
      ~corrupt:(fun ~round:_ ~src:_ ~dst:_ ~prev:_ _ ->
        incr consulted;
        None)
      (fun ~round:_ ~src ~dst:_ -> Party_id.equal src (Party_id.left 0))
  in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      env.Engine.send (Party_id.right 0) "a"
    else if Party_id.equal id (Party_id.left 1) then
      env.Engine.send (Party_id.right 0) "b"
    else if Party_id.equal id (Party_id.right 0) then
      ignore (env.Engine.next_round ())
  in
  let res = run ~k:2 ~faults programs in
  let m = res.metrics in
  Alcotest.(check int) "hook consulted for the surviving frame only" 1 !consulted;
  Alcotest.(check int) "one omission" 1 m.messages_dropped_fault;
  Alcotest.(check int) "no corruption" 0 m.messages_corrupted

(* --- state-cell scrambling ---------------------------------------------- *)

let test_register_state_scrambled_between_rounds () =
  (* A registered cell is rewritten through its codec between rounds: the
     party parks in round 0, the scramble hook fires entering round 1,
     and the fiber resumes already holding the mutated state. The first
     candidate here is undecodable, forcing the attempt-retry loop; the
     firing is counted once under the hook's label. *)
  let observed = ref [] in
  let value = ref 7 in
  let scramble ~round ~party ~cell ~attempt payload =
    ignore payload;
    ignore cell;
    if round = 1 && Party_id.equal party (Party_id.left 0) then
      if attempt = 0 then Some ("\xff", "scrambler")
      else Some (Wire.encode Wire.uint 42, "scrambler")
    else None
  in
  let faults = Engine.fault_model ~scramble (fun ~round:_ ~src:_ ~dst:_ -> false) in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.register_state Wire.uint value;
      ignore (env.Engine.next_round ());
      observed := !observed @ [ !value ];
      ignore (env.Engine.next_round ());
      observed := !observed @ [ !value ]
    end
  in
  let res = run ~k:1 ~max_rounds:5 ~faults programs in
  Alcotest.(check (list int)) "scrambled in round 1, stable after" [ 42; 42 ]
    !observed;
  Alcotest.(check int) "one cell scrambled" 1 res.metrics.Engine.cells_scrambled;
  Alcotest.(check (option int)) "first scramble round" (Some 1)
    res.metrics.Engine.first_scramble_round;
  Alcotest.(check (list (pair string int)))
    "scramble tallied under the hook's label"
    [ "scrambler", 1 ]
    res.metrics.Engine.messages_dropped_by_label;
  let l0 = Engine.find_result res (Party_id.left 0) in
  Alcotest.(check (option int)) "L0 finished at round 2" (Some 2)
    l0.Engine.finished_round;
  let r0 = Engine.find_result res (Party_id.right 0) in
  Alcotest.(check (option int)) "instant finisher at round 0" (Some 0)
    r0.Engine.finished_round

let test_scramble_gives_up_after_max_attempts () =
  (* A hook that only ever produces undecodable bytes must leave the cell
     untouched and count nothing — decode-validated mutation means the
     adversary can only install well-formed states. *)
  let attempts = ref 0 in
  let value = ref 7 in
  let scramble ~round:_ ~party:_ ~cell:_ ~attempt:_ _payload =
    incr attempts;
    Some ("\xff", "scrambler")
  in
  let faults = Engine.fault_model ~scramble (fun ~round:_ ~src:_ ~dst:_ -> false) in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.register_state Wire.uint value;
      ignore (env.Engine.next_round ())
    end
  in
  let res = run ~k:1 ~max_rounds:3 ~faults programs in
  Alcotest.(check int) "bounded retries" Engine.max_scramble_attempts !attempts;
  Alcotest.(check int) "cell untouched" 7 !value;
  Alcotest.(check int) "nothing counted" 0 res.metrics.Engine.cells_scrambled;
  Alcotest.(check (option int)) "no first round" None
    res.metrics.Engine.first_scramble_round

(* --- determinism & inbox order ------------------------------------------ *)

let test_inbox_sorted_by_sender () =
  let k = 3 in
  let saw = ref [] in
  let programs id env =
    if Party_id.equal id (Party_id.right 0) then saw := inbox_senders env
    else if Side.equal (Party_id.side id) Side.Left then
      env.Engine.send (Party_id.right 0) "m"
  in
  ignore (run ~k programs);
  Alcotest.(check (list party_id))
    "sorted" [ Party_id.left 0; Party_id.left 1; Party_id.left 2 ] !saw

let test_per_sender_order_preserved () =
  let saw = ref [] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.right 0) "first";
      env.Engine.send (Party_id.right 0) "second"
    end
    else if Party_id.equal id (Party_id.right 0) then
      saw := List.map data_str (env.Engine.next_round ())
  in
  ignore (run ~k:1 programs);
  Alcotest.(check (list string)) "order kept" [ "first"; "second" ] !saw

let test_metrics_accounting () =
  let programs id env =
    if Side.equal (Party_id.side id) Side.Left then
      env.Engine.send (Party_id.right 0) "12345"
  in
  let res = run ~k:2 programs in
  Alcotest.(check int) "sent" 2 res.metrics.messages_sent;
  Alcotest.(check int) "delivered" 2 res.metrics.messages_delivered;
  Alcotest.(check int) "bytes" 10 res.metrics.bytes_sent;
  Alcotest.(check int) "delivered bytes" 10 res.metrics.bytes_delivered

let test_raising_codec_rolls_back () =
  (* A codec that writes half a frame and raises, through [send_w] and
     [send_multi_w]: the exception reaches the fiber, nothing of the
     half frame is sent, and the frames around it arrive intact. *)
  let half_then_raise =
    {
      Wire.write =
        (fun e () ->
          Wire.Enc.string e "half a frame";
          raise (Wire.Malformed "unencodable"));
      read = (fun _ -> ());
    }
  in
  let dst = Party_id.right 0 in
  let raised = ref 0 in
  let got = ref [] in
  let programs id (env : Engine.env) =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send_w Wire.string dst "before";
      (try env.Engine.send_w half_then_raise dst () with Wire.Malformed _ -> incr raised);
      (try env.Engine.send_multi_w half_then_raise [ dst; Party_id.right 1 ] ()
       with Wire.Malformed _ -> incr raised);
      env.Engine.send_multi_w Wire.string [ dst ] "after"
    end
    else if Party_id.equal id dst then got := List.map data_str (env.Engine.next_round ())
  in
  let res = run ~k:2 programs in
  Alcotest.(check int) "both raises reached the fiber" 2 !raised;
  Alcotest.(check (list string)) "only the whole frames"
    [ Wire.encode Wire.string "before"; Wire.encode Wire.string "after" ]
    !got;
  Alcotest.(check int) "two messages sent" 2 res.metrics.messages_sent;
  Alcotest.(check int) "their bytes" 13 res.metrics.bytes_sent

let test_trace_records_fates () =
  (* One delivered, one dropped-by-topology, one omitted message; the
     trace must record all three with their fates, in order. *)
  let faults =
    Engine.fault_model (fun ~round:_ ~src:_ ~dst ->
        Party_id.equal dst (Party_id.right 1))
  in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.right 0) "ok";
      env.Engine.send (Party_id.left 1) "blocked";
      env.Engine.send (Party_id.right 1) "omitted"
    end
    else ignore (env.Engine.next_round ())
  in
  let cfg =
    Engine.config ~k:2 ~faults ~trace_limit:100
      ~link:(Engine.Of_topology Topology.Bipartite) ()
  in
  let res = Engine.run cfg ~programs in
  let fates = List.map (fun e -> e.Engine.event_fate) res.Engine.trace in
  Alcotest.(check int) "three events" 3 (List.length fates);
  Alcotest.(check bool) "one of each fate" true
    (List.mem `Delivered fates && List.mem `No_channel fates && List.mem `Omitted fates)

let test_trace_limit_respected () =
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      for _ = 1 to 50 do
        env.Engine.send (Party_id.right 0) "x"
      done
  in
  let cfg =
    Engine.config ~k:1 ~trace_limit:10
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  Alcotest.(check int) "capped at 10" 10 (List.length res.Engine.trace);
  Alcotest.(check int) "metrics still complete" 50 res.Engine.metrics.messages_sent

let test_trace_chronological () =
  (* L0 sends one message per round for 5 rounds; the trace must list the
     events in round order 0,1,2,3,4. *)
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      for _ = 1 to 5 do
        env.Engine.send (Party_id.right 0) "tick";
        ignore (env.Engine.next_round ())
      done
    else
      for _ = 1 to 5 do
        ignore (env.Engine.next_round ())
      done
  in
  let cfg =
    Engine.config ~k:1 ~trace_limit:100 ~max_rounds:10
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  let rounds = List.map (fun e -> e.Engine.event_round) res.Engine.trace in
  Alcotest.(check (list int)) "rounds in order" [ 0; 1; 2; 3; 4 ] rounds

let test_trace_limit_keeps_first_events () =
  (* With a limit of 2, the two earliest events (rounds 0 and 1) must
     survive — truncation drops the tail, never the head. *)
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      for _ = 1 to 5 do
        env.Engine.send (Party_id.right 0) "tick";
        ignore (env.Engine.next_round ())
      done
    else
      for _ = 1 to 5 do
        ignore (env.Engine.next_round ())
      done
  in
  let cfg =
    Engine.config ~k:1 ~trace_limit:2 ~max_rounds:10
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  let rounds = List.map (fun e -> e.Engine.event_round) res.Engine.trace in
  Alcotest.(check (list int)) "first two rounds kept" [ 0; 1 ] rounds

let test_trace_fate_per_event () =
  (* Fates must be attached to the right events, not merely all present:
     the message to R0 is delivered, to L1 blocked by the bipartite
     topology (No_channel), to R1 omitted by the fault model. *)
  let faults =
    Engine.fault_model (fun ~round:_ ~src:_ ~dst ->
        Party_id.equal dst (Party_id.right 1))
  in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.right 0) "ok";
      env.Engine.send (Party_id.left 1) "blocked";
      env.Engine.send (Party_id.right 1) "omitted"
    end
    else ignore (env.Engine.next_round ())
  in
  let cfg =
    Engine.config ~k:2 ~faults ~trace_limit:100
      ~link:(Engine.Of_topology Topology.Bipartite) ()
  in
  let res = Engine.run cfg ~programs in
  let fate_of dst =
    match
      List.find_opt
        (fun e -> Party_id.equal e.Engine.event_dst dst)
        res.Engine.trace
    with
    | Some e -> e.Engine.event_fate
    | None -> Alcotest.failf "no trace event for %s" (Party_id.to_string dst)
  in
  let fate =
    Alcotest.testable
      (fun ppf f ->
        Format.pp_print_string ppf
          (match f with
          | `Delivered -> "delivered"
          | `No_channel -> "no-channel"
          | `Omitted -> "omitted"
          | `Corrupted -> "corrupted"
          | `Scrambled -> "scrambled"))
      ( = )
  in
  Alcotest.check fate "R0 delivered" `Delivered (fate_of (Party_id.right 0));
  Alcotest.check fate "L1 no channel" `No_channel (fate_of (Party_id.left 1));
  Alcotest.check fate "R1 omitted" `Omitted (fate_of (Party_id.right 1))

(* One bipartite k=2 run whose sends meet every fate: delivered, no
   channel (a same-side link and a party outside the roster), omitted and
   corrupted under a label, plus one labelled state scramble. *)
let every_fate_trace ~trace_limit =
  let l0 = Party_id.left 0 and l1 = Party_id.left 1 in
  let r0 = Party_id.right 0 and r1 = Party_id.right 1 in
  let faults =
    Engine.fault_model
      ~label:(fun ~round:_ ~src:_ ~dst:_ -> Some "omit-R1")
      ~corrupt:(fun ~round:_ ~src ~dst:_ ~prev:_ data ->
        if Party_id.equal src l1 then Some (data ^ "!", "garble-L1") else None)
      ~scramble:(fun ~round ~party ~cell:_ ~attempt:_ _ ->
        if round = 1 && Party_id.equal party l0 then
          Some (Wire.encode Wire.uint 300, "scramble-L0")
        else None)
      (fun ~round:_ ~src:_ ~dst -> Party_id.equal dst r1)
  in
  let programs id env =
    if Party_id.equal id l0 then begin
      env.Engine.register_state Wire.uint (ref 7);
      env.Engine.send r0 "a";
      env.Engine.send l1 "bb";
      env.Engine.send (Party_id.left 99) "ccc";
      env.Engine.send r1 "dddd";
      ignore (env.Engine.next_round ());
      ignore (env.Engine.next_round ())
    end
    else if Party_id.equal id l1 then env.Engine.send r0 "eeeee"
    else if Party_id.equal id r0 then begin
      ignore (env.Engine.next_round ());
      env.Engine.send l0 "ffffff"
    end
  in
  let cfg =
    Engine.config ~k:2 ~faults ~trace_limit
      ~link:(Engine.Of_topology Topology.Bipartite) ()
  in
  (Engine.run cfg ~programs).Engine.trace

let test_trace_exact_events () =
  let ev event_round event_src event_dst event_bytes event_fate event_label =
    { Engine.event_round; event_src; event_dst; event_bytes; event_fate; event_label }
  in
  let expected =
    [
      ev 0 (Party_id.left 0) (Party_id.right 0) 1 `Delivered None;
      ev 0 (Party_id.left 0) (Party_id.left 1) 2 `No_channel None;
      ev 0 (Party_id.left 0) (Party_id.left 99) 3 `No_channel None;
      ev 0 (Party_id.left 0) (Party_id.right 1) 4 `Omitted (Some "omit-R1");
      ev 0 (Party_id.left 1) (Party_id.right 0) 6 `Corrupted (Some "garble-L1");
      ev 1 (Party_id.left 0) (Party_id.left 0) 2 `Scrambled (Some "scramble-L0");
      ev 1 (Party_id.right 0) (Party_id.left 0) 6 `Delivered None;
    ]
  in
  let pp_event ppf (e : Engine.event) =
    Format.fprintf ppf "r%d %a->%a %dB %s%s" e.event_round Party_id.pp e.event_src
      Party_id.pp e.event_dst e.event_bytes
      (match e.event_fate with
      | `Delivered -> "delivered"
      | `No_channel -> "no-channel"
      | `Omitted -> "omitted"
      | `Corrupted -> "corrupted"
      | `Scrambled -> "scrambled")
      (match e.event_label with None -> "" | Some l -> " [" ^ l ^ "]")
  in
  let events = Alcotest.(list (testable pp_event ( = ))) in
  Alcotest.check events "every event" expected (every_fate_trace ~trace_limit:100);
  Alcotest.check events "first three at limit 3" (List.filteri (fun i _ -> i < 3) expected)
    (every_fate_trace ~trace_limit:3);
  (* Every party of a k = 2 roster sends to every party, itself included,
     and to two parties outside the roster. A message is delivered
     exactly when its destination is in the roster and [connected]
     holds — [Topology.connected] for each topology, a custom link's
     predicate between distinct parties — and has no channel otherwise. *)
  let k = 2 in
  let dsts = Party_id.all ~k @ [ Party_id.left k; Party_id.right (k + 5) ] in
  let link_fates name link ~connected =
    let programs _ env =
      List.iteri (fun i dst -> env.Engine.send dst (String.make (1 + i) 'x')) dsts
    in
    let cfg = Engine.config ~k ~trace_limit:1000 ~link () in
    let expected =
      List.concat_map
        (fun src ->
          List.mapi
            (fun i dst ->
              let fate =
                if Party_id.index dst < k && connected src dst then `Delivered
                else `No_channel
              in
              ev 0 src dst (1 + i) fate None)
            dsts)
        (Party_id.all ~k)
    in
    Alcotest.check events name expected (Engine.run cfg ~programs).Engine.trace
  in
  List.iter
    (fun t ->
      link_fates (Topology.to_string t) (Engine.Of_topology t) ~connected:(Topology.connected t))
    Topology.all;
  let custom u v = (Party_id.index u + Party_id.index v) mod 2 = 0 in
  link_fates "custom link" (Engine.Custom custom) ~connected:(fun u v ->
      (not (Party_id.equal u v)) && custom u v)

(* The engine used to build each inbox by consing arrivals and re-sorting
   with List.stable_sort every round; it now fills per-sender buckets and
   concatenates them in dense roster order. This property test replays
   random send schedules over random topologies and fault models and
   checks every delivered inbox against the old sort-based algorithm,
   computed independently from the same schedule. *)
let test_bucket_order_matches_sort_reference () =
  let topologies =
    Topology.[ Fully_connected; Bipartite; One_sided ]
  in
  List.iter
    (fun seed ->
      let rng = Rng.make (7000 + (31 * seed)) in
      let k = 1 + Rng.int rng 3 in
      let n = 2 * k in
      let topology = Rng.choose rng topologies in
      let fault_salt = Rng.int rng 1000 in
      let drop ~round ~src ~dst =
        Hashtbl.hash (fault_salt, round, Party_id.to_dense ~k src, Party_id.to_dense ~k dst)
        mod 4
        = 0
      in
      let rounds = 3 + Rng.int rng 3 in
      (* schedule.(sender).(r) = (dst, payload) list in send order; includes
         self-sends and same-side sends so the topology paths fire. *)
      let schedule =
        Array.init n (fun s ->
            let srng = Rng.make ((seed * 997) + s) in
            Array.init rounds (fun r ->
                List.init (Rng.int srng 4) (fun i ->
                    let dst = Party_id.of_dense ~k (Rng.int srng n) in
                    dst, Printf.sprintf "s%d-r%d-%d" s r i)))
      in
      (* observed.(receiver).(r) = inbox delivered for the sends of round r *)
      let observed = Array.make_matrix n rounds [] in
      let programs id (env : Engine.env) =
        let me = Party_id.to_dense ~k id in
        for r = 0 to rounds - 1 do
          List.iter (fun (dst, m) -> env.Engine.send dst m) schedule.(me).(r);
          let inbox = env.Engine.next_round () in
          observed.(me).(r) <-
            List.map (fun e -> e.Engine.src, data_str e) inbox
        done
      in
      let cfg =
        Engine.config ~k ~link:(Engine.Of_topology topology)
          ~faults:(Engine.fault_model drop) ()
      in
      ignore (Engine.run cfg ~programs);
      (* Reference: the pre-bucket algorithm — cons arrivals while iterating
         senders in dense order, reverse, stable-sort by sender. *)
      for r = 0 to rounds - 1 do
        let arrivals = Array.make n [] in
        for s = 0 to n - 1 do
          let src = Party_id.of_dense ~k s in
          List.iter
            (fun (dst, m) ->
              if
                Topology.connected topology src dst
                && not (drop ~round:r ~src ~dst)
              then begin
                let d = Party_id.to_dense ~k dst in
                arrivals.(d) <- (src, m) :: arrivals.(d)
              end)
            schedule.(s).(r)
        done;
        for d = 0 to n - 1 do
          let expected =
            List.stable_sort
              (fun (a, _) (b, _) -> Party_id.compare a b)
              (List.rev arrivals.(d))
          in
          if expected <> observed.(d).(r) then
            Alcotest.failf
              "seed %d: receiver %s round %d: bucket order diverged from the \
               sort reference"
              seed
              (Party_id.to_string (Party_id.of_dense ~k d))
              r
        done
      done)
    (Util.range 0 25)

let test_arena_matches_per_frame_reference () =
  (* Property: the arena-span message plane is observationally identical
     to the per-frame reference semantics — deliver sender-by-sender in
     dense roster order, frame-by-frame in send order, consulting the
     corrupt hook with [prev] = last payload delivered on the ordered
     link in any strictly earlier round. The corrupt hook echoes [prev]
     into the delivered bytes, so any divergence in replay memory shows
     up bit-for-bit in the inboxes, not just in the counters. *)
  let topologies = Topology.[ Fully_connected; Bipartite; One_sided ] in
  List.iter
    (fun seed ->
      let rng = Rng.make (9100 + (37 * seed)) in
      let k = 1 + Rng.int rng 3 in
      let n = 2 * k in
      let topology = Rng.choose rng topologies in
      let salt = Rng.int rng 1000 in
      let drop ~round ~src ~dst =
        Hashtbl.hash
          (salt, 0, round, Party_id.to_dense ~k src, Party_id.to_dense ~k dst)
        mod 5
        = 0
      in
      let corrupt ~round ~src ~dst ~prev payload =
        if
          Hashtbl.hash
            (salt, 1, round, Party_id.to_dense ~k src, Party_id.to_dense ~k dst, payload)
          mod 3
          = 0
        then
          let echo = match prev with None -> "<none>" | Some p -> p in
          Some (echo ^ "#" ^ payload, "replay")
        else None
      in
      let rounds = 3 + Rng.int rng 3 in
      let schedule =
        Array.init n (fun s ->
            let srng = Rng.make ((seed * 1009) + s) in
            Array.init rounds (fun r ->
                List.init (Rng.int srng 4) (fun i ->
                    let dst = Party_id.of_dense ~k (Rng.int srng n) in
                    dst, Printf.sprintf "s%d-r%d-%d" s r i)))
      in
      let observed = Array.make_matrix n rounds [] in
      let programs id (env : Engine.env) =
        let me = Party_id.to_dense ~k id in
        for r = 0 to rounds - 1 do
          List.iter (fun (dst, m) -> env.Engine.send dst m) schedule.(me).(r);
          let inbox = env.Engine.next_round () in
          observed.(me).(r) <- List.map (fun e -> e.Engine.src, data_str e) inbox
        done
      in
      let cfg =
        Engine.config ~k ~link:(Engine.Of_topology topology)
          ~faults:(Engine.fault_model ~corrupt drop)
          ()
      in
      let res = Engine.run cfg ~programs in
      (* Per-frame reference model. *)
      let prev : (int * int, string) Hashtbl.t = Hashtbl.create 16 in
      let ref_sent = ref 0
      and ref_delivered = ref 0
      and ref_topology = ref 0
      and ref_fault = ref 0
      and ref_corrupted = ref 0
      and ref_bytes_sent = ref 0
      and ref_bytes_delivered = ref 0 in
      for r = 0 to rounds - 1 do
        let staged : (int * int, string) Hashtbl.t = Hashtbl.create 16 in
        let arrivals = Array.make n [] in
        for s = 0 to n - 1 do
          let src = Party_id.of_dense ~k s in
          List.iter
            (fun (dst, m) ->
              incr ref_sent;
              ref_bytes_sent := !ref_bytes_sent + String.length m;
              if not (Topology.connected topology src dst) then incr ref_topology
              else if drop ~round:r ~src ~dst then incr ref_fault
              else begin
                let d = Party_id.to_dense ~k dst in
                let p = Hashtbl.find_opt prev (s, d) in
                let delivered =
                  match corrupt ~round:r ~src ~dst ~prev:p m with
                  | Some (bytes, _) ->
                    incr ref_corrupted;
                    bytes
                  | None -> m
                in
                incr ref_delivered;
                ref_bytes_delivered := !ref_bytes_delivered + String.length delivered;
                arrivals.(d) <- (src, delivered) :: arrivals.(d);
                Hashtbl.replace staged (s, d) delivered
              end)
            schedule.(s).(r)
        done;
        (* Replay memory commits only once the round's sweep is done:
           same-round frames never see each other. *)
        Hashtbl.iter (fun key v -> Hashtbl.replace prev key v) staged;
        for d = 0 to n - 1 do
          let expected =
            List.stable_sort
              (fun (a, _) (b, _) -> Party_id.compare a b)
              (List.rev arrivals.(d))
          in
          if expected <> observed.(d).(r) then
            Alcotest.failf
              "seed %d: receiver %s round %d: arena delivery diverged from the \
               per-frame reference"
              seed
              (Party_id.to_string (Party_id.of_dense ~k d))
              r
        done
      done;
      let m = res.Engine.metrics in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: messages_sent" seed)
        !ref_sent m.Engine.messages_sent;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: messages_delivered" seed)
        !ref_delivered m.Engine.messages_delivered;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: dropped_topology" seed)
        !ref_topology m.Engine.messages_dropped_topology;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: dropped_fault" seed)
        !ref_fault m.Engine.messages_dropped_fault;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: corrupted" seed)
        !ref_corrupted m.Engine.messages_corrupted;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: bytes_sent" seed)
        !ref_bytes_sent m.Engine.bytes_sent;
      Alcotest.(check int)
        (Printf.sprintf "seed %d: bytes_delivered" seed)
        !ref_bytes_delivered m.Engine.bytes_delivered)
    (Util.range 0 25)

let test_trace_final_flush_round () =
  (* A party that sends in its final round and returns without another
     next_round: the post-loop flush must record those events with the
     round they were sent in (= rounds_used), so trace rounds stay
     monotone and bounded by rounds_used. *)
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.right 0) "r0";
      ignore (env.Engine.next_round ());
      env.Engine.send (Party_id.right 0) "final"
    end
    else ignore (env.Engine.next_round ())
  in
  let cfg =
    Engine.config ~k:1 ~trace_limit:10
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  let rounds = List.map (fun e -> e.Engine.event_round) res.Engine.trace in
  Alcotest.(check (list int)) "flushed event carries its send round" [ 0; 1 ] rounds;
  Alcotest.(check int)
    "last trace round = rounds_used" res.Engine.metrics.rounds_used
    (List.fold_left max 0 rounds)

let test_trace_rounds_monotone_at_cutoff () =
  (* Out-of-rounds cutoff: every round 0..max_rounds sends, including the
     partial final round flushed after the loop; trace rounds must be the
     contiguous 0..rounds_used. *)
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      while true do
        env.Engine.send (Party_id.right 0) "x";
        ignore (env.Engine.next_round ())
      done
    else
      while true do
        ignore (env.Engine.next_round ())
      done
  in
  let cfg =
    Engine.config ~k:1 ~max_rounds:3 ~trace_limit:100
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  let rounds = List.map (fun e -> e.Engine.event_round) res.Engine.trace in
  Alcotest.(check (list int)) "contiguous through the flush" [ 0; 1; 2; 3 ] rounds;
  Alcotest.(check int) "rounds_used" 3 res.Engine.metrics.rounds_used

let test_negative_index_dst_rejected () =
  (* Party_id's constructors refuse negative indices, so a negative index
     can only mean memory corruption or an engine bug; deliver must fail
     loudly instead of indexing arrays with it. Forged via Obj.magic — the
     only way to build one. *)
  let evil : Party_id.t = Obj.magic (Side.Left, -3) in
  Alcotest.(check int) "forged id has a negative index" (-3) (Party_id.index evil);
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then env.Engine.send evil "junk"
  in
  let cfg =
    Engine.config ~k:1 ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  match Engine.run cfg ~programs with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "descriptive" true
      (String.length msg > 0
      && String.length msg >= 6
      && String.sub msg 0 6 = "Engine")

let test_find_result_out_of_roster () =
  let res = run ~k:1 (fun _ _ -> ()) in
  Alcotest.(check bool)
    "find_result_opt misses" true
    (Engine.find_result_opt res (Party_id.left 9) = None);
  let contains_substring needle hay =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match Engine.find_result res (Party_id.left 9) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names the party" true (contains_substring "L9" msg);
    Alcotest.(check bool) "names the roster size" true (contains_substring "2" msg)

let test_trace_off_by_default () =
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then env.Engine.send (Party_id.right 0) "x"
  in
  let res = run ~k:1 programs in
  Alcotest.(check int) "no trace" 0 (List.length res.Engine.trace)

let test_nested_engines () =
  (* A fiber may itself run an inner engine (the attack constructions do
     exactly this); effects of inner fibers must not leak outward. The
     inner run takes planes of its own: L0 sends one frame before and one
     after it, and the inner L0 sends many, so an inner run handed the
     outer L0's outbox would deliver "before" inside itself and reset it.
     The warm-up run leaves planes on this domain's free list first. *)
  ignore (run ~k:1 (fun _ env -> env.Engine.send (Party_id.right 0) "warm-up"));
  let inner_got = ref [] in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then begin
      env.Engine.send (Party_id.right 0) "before";
      let inner =
        run ~k:1 (fun iid ienv ->
            if Party_id.equal iid (Party_id.left 0) then
              for i = 1 to 100 do
                ienv.Engine.send (Party_id.right 0) (Printf.sprintf "inner %d" i)
              done
            else inner_got := List.map data_str (ienv.Engine.next_round ()))
      in
      ignore inner;
      (* outer fiber still works after the nested run *)
      env.Engine.send (Party_id.right 0) "after"
    end
    else begin
      let inbox = env.Engine.next_round () in
      env.Engine.output (String.concat "," (List.map data_str inbox))
    end
  in
  let res = run ~k:1 programs in
  Alcotest.(check (list string))
    "inner delivered"
    (List.init 100 (fun i -> Printf.sprintf "inner %d" (i + 1)))
    !inner_got;
  let r0 = Engine.find_result res (Party_id.right 0) in
  Alcotest.(check (option string)) "outer delivered" (Some "before,after") r0.Engine.out

(* A party that has returned gets no inbox rows: R0 returns at round 0,
   and L0 sends it 64 KB every round for 100 rounds. Each row would keep
   that round's frozen arena alive until the run ends (6.4 MB here); the
   messages are still delivered, counted and traced. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let test_stopped_party_gets_no_rows () =
  let payload = String.make 65_536 'x' in
  let base = ref 0 and last = ref 0 in
  let programs id env =
    if Party_id.equal id (Party_id.left 0) then
      for r = 1 to 100 do
        env.Engine.send (Party_id.right 0) payload;
        if r = 2 then base := live_words ();
        if r = 100 then last := live_words ();
        ignore (env.Engine.next_round ())
      done
  in
  let res = run ~k:1 programs in
  let grown = !last - !base in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d <= 131072 (1 MB)" grown)
    true (grown <= 131_072);
  Alcotest.(check int) "messages delivered" 100 res.Engine.metrics.messages_delivered;
  Alcotest.(check int) "bytes delivered" (100 * 65_536) res.Engine.metrics.bytes_delivered

(* --- plane reuse --------------------------------------------------------- *)

(* Each check runs on a fresh domain, whose free list of planes starts
   empty. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Words [f ()] allocates straight into the major heap on this domain:
   arrays over 256 words and arenas over 2 KB, the storage a plane
   regrows when it starts empty. Counted exactly, unlike minor words:
   OCaml 5.1's count for one op moves in steps of ~115k words with the
   minor collections that fall inside it (one honest Dolev–Strong k=8
   op reads 293k, 408k, 522k or 637k). *)
let direct_major_words f =
  let _, promoted0, major0 = Gc.counters () in
  f ();
  let _, promoted1, major1 = Gc.counters () in
  major1 -. promoted1 -. (major0 -. promoted0)

(* The second honest Π_bSM k=8 op on a domain starts from the planes the
   first one gave back, instead of regrowing every outbox, inbox and
   arena from empty: ~628k words straight into the major heap for the
   first op, ~337k for the second. *)
let test_planes_reused () =
  let setting =
    Bsm_core.Setting.make_exn ~k:8 ~topology:Topology.Bipartite
      ~auth:Bsm_core.Setting.Authenticated ~t_left:2 ~t_right:8
  in
  let op () =
    let case = Bsm_harness.Sweep.case ~profile_seed:1 ~scenario_seed:1 setting in
    ignore
      (Sys.opaque_identity (Bsm_harness.Scenario.run (Bsm_harness.Sweep.scenario_of_case case)))
  in
  let first, second =
    on_fresh_domain (fun () ->
        let first = direct_major_words op in
        first, direct_major_words op)
  in
  Alcotest.(check bool)
    (Printf.sprintf "second op allocates %.0f major words, first %.0f: >= 100k fewer" second
       first)
    true
    (first -. second >= 100_000.)

(* k = 4 parties that each send [frames] frames of [bytes] bytes to every
   other party for three rounds. *)
let chatter ~frames ~bytes _ env =
  let payload = String.make bytes 'p' in
  for _ = 1 to 3 do
    List.iter
      (fun dst ->
        if not (Party_id.equal dst env.Engine.self) then
          for _ = 1 to frames do
            env.Engine.send_w Wire.string dst payload
          done)
      (Party_id.all ~k:4);
    ignore (env.Engine.next_round ())
  done

(* What a domain keeps after a run is bounded by that run's use
   (engine.mli): after a large run, the domain holds its planes (~2 MB
   of arenas and span vectors); after a small run that follows it, only
   storage of the small run's size, so a pool that kept the large
   planes untrimmed fails. *)
let test_kept_planes_bounded () =
  let large, small =
    on_fresh_domain (fun () ->
        let l0 = live_words () in
        ignore (run ~k:4 (chatter ~frames:64 ~bytes:512));
        let l1 = live_words () in
        ignore (run ~k:4 (chatter ~frames:1 ~bytes:8));
        let l2 = live_words () in
        l1 - l0, l2 - l0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "after the large run the domain keeps %d words >= 200000" large)
    true (large >= 200_000);
  Alcotest.(check bool)
    (Printf.sprintf "after the small run the domain keeps %d words <= 4000" small)
    true (small <= 4_000)

(* A run that raises gives its planes back to no one: L0 sends R0 a frame
   and then a frame to a corrupt destination, so delivery raises with
   R0's inbox row and L0's outbox half-swept. The next run on the domain
   starts clean. *)
let test_raising_run_keeps_nothing () =
  let evil : Party_id.t = Obj.magic (Side.Left, -3) in
  on_fresh_domain (fun () ->
      ignore (run ~k:1 (fun _ env -> env.Engine.send (Party_id.right 0) "warm-up"));
      let raising id env =
        if Party_id.equal id (Party_id.left 0) then begin
          env.Engine.send (Party_id.right 0) "stale";
          env.Engine.send evil "junk"
        end
        else ignore (env.Engine.next_round ())
      in
      (match run ~k:1 raising with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ());
      let res =
        run ~k:1 (fun id env ->
            if Party_id.equal id (Party_id.left 0) then
              env.Engine.send (Party_id.right 0) "fresh"
            else
              env.Engine.output (String.concat "," (List.map data_str (env.Engine.next_round ()))))
      in
      Alcotest.(check (option string))
        "only this run's frame" (Some "fresh")
        (Engine.find_result res (Party_id.right 0)).Engine.out;
      Alcotest.(check int) "messages sent" 1 res.Engine.metrics.messages_sent)

let () =
  Alcotest.run "runtime"
    [
      ( "scheduling",
        [
          Alcotest.test_case "all terminate immediately" `Quick
            test_all_terminate_immediately;
          Alcotest.test_case "delivery at next round" `Quick
            test_message_delivered_next_round;
          Alcotest.test_case "round counter" `Quick test_round_counter;
          Alcotest.test_case "ping pong" `Quick test_ping_pong;
          Alcotest.test_case "out of rounds" `Quick test_out_of_rounds;
          Alcotest.test_case "crash reported" `Quick test_crash_is_reported;
          Alcotest.test_case "crash after send delivers" `Quick
            test_crash_after_send_still_delivers;
        ] );
      ( "topology",
        [
          Alcotest.test_case "bipartite blocks same side" `Quick
            test_bipartite_blocks_same_side;
          Alcotest.test_case "one-sided RR ok, LL blocked" `Quick
            test_one_sided_allows_rr_blocks_ll;
          Alcotest.test_case "self send dropped" `Quick test_self_send_dropped;
          Alcotest.test_case "out-of-roster send dropped" `Quick
            test_out_of_roster_send_dropped;
        ] );
      ( "faults",
        [
          Alcotest.test_case "omission drops" `Quick test_omission_fault_drops;
          Alcotest.test_case "topology drop precedes fault drop" `Quick
            test_topology_drop_precedes_fault_drop;
          Alcotest.test_case "drop labels in metrics and trace" `Quick
            test_drop_labels_in_metrics_and_trace;
          Alcotest.test_case "bytes exclude omitted" `Quick test_bytes_exclude_omitted;
          Alcotest.test_case "corrupt rewrites and counts" `Quick
            test_corrupt_rewrites_and_counts;
          Alcotest.test_case "corrupt prev is last delivered frame" `Quick
            test_corrupt_prev_is_last_delivered_frame;
          Alcotest.test_case "drop precedes corrupt" `Quick test_drop_precedes_corrupt;
          Alcotest.test_case "state cell scrambled between rounds" `Quick
            test_register_state_scrambled_between_rounds;
          Alcotest.test_case "scramble gives up after max attempts" `Quick
            test_scramble_gives_up_after_max_attempts;
          Alcotest.test_case "bytes exclude topology drops" `Quick
            test_bytes_exclude_topology_drops;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "inbox sorted by sender" `Quick
            test_inbox_sorted_by_sender;
          Alcotest.test_case "per-sender order preserved" `Quick
            test_per_sender_order_preserved;
          Alcotest.test_case "bucket order matches sort reference" `Quick
            test_bucket_order_matches_sort_reference;
          Alcotest.test_case "arena plane matches per-frame reference" `Quick
            test_arena_matches_per_frame_reference;
          Alcotest.test_case "negative-index destination rejected" `Quick
            test_negative_index_dst_rejected;
          Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
          Alcotest.test_case "raising codec rolls back" `Quick test_raising_codec_rolls_back;
          Alcotest.test_case "nested engines" `Quick test_nested_engines;
          Alcotest.test_case "stopped party gets no inbox rows" `Quick
            test_stopped_party_gets_no_rows;
          Alcotest.test_case "find_result out of roster" `Quick
            test_find_result_out_of_roster;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records all fates" `Quick test_trace_records_fates;
          Alcotest.test_case "exact events of one run" `Quick test_trace_exact_events;
          Alcotest.test_case "limit respected" `Quick test_trace_limit_respected;
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "chronological order" `Quick test_trace_chronological;
          Alcotest.test_case "truncation keeps first events" `Quick
            test_trace_limit_keeps_first_events;
          Alcotest.test_case "fate attached to the right event" `Quick
            test_trace_fate_per_event;
          Alcotest.test_case "final flush carries its send round" `Quick
            test_trace_final_flush_round;
          Alcotest.test_case "monotone through out-of-rounds cutoff" `Quick
            test_trace_rounds_monotone_at_cutoff;
        ] );
      ( "planes",
        [
          Alcotest.test_case "reuse happens" `Quick test_planes_reused;
          Alcotest.test_case "what is kept is bounded" `Quick test_kept_planes_bounded;
          Alcotest.test_case "a raising run keeps nothing" `Quick
            test_raising_run_keeps_nothing;
        ] );
    ]
