(* Tests for the chaos subsystem: schedule compilation (determinism,
   windows, side restriction, budget attribution), the bSM property
   oracle's classification across the T-table settings, and the
   pool-parallel chaos sweep's bit-identity and JSON determinism. *)

open Bsm_prelude
module Core = Bsm_core
module Engine = Bsm_runtime.Engine
module Pool = Bsm_runtime.Pool
module H = Bsm_harness
module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire
module Schedule = Bsm_chaos.Schedule
module Mutation = Bsm_chaos.Mutation
module Oracle = Bsm_chaos.Oracle
module Shrink = Bsm_chaos.Shrink
module Repro = Bsm_chaos.Repro
module Chaos_sweep = Bsm_chaos.Chaos_sweep

let party_set = Alcotest.testable Party_set.pp Party_set.equal

let setting ~k ~topology ~auth ~tl ~tr =
  Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr

(* Decisions of a compiled model over a small (round, src, dst) cube, as
   a replayable fingerprint. *)
let decisions ~k model =
  let parties = Party_id.all ~k in
  List.concat_map
    (fun round ->
      List.concat_map
        (fun src ->
          List.filter_map
            (fun dst ->
              if Party_id.equal src dst then None
              else
                Some
                  ( round,
                    src,
                    dst,
                    model.Engine.drop ~round ~src ~dst,
                    model.Engine.drop_label ~round ~src ~dst ))
            parties)
        parties)
    (Util.range 0 6)

(* --- schedule construction & compilation -------------------------------- *)

let test_compile_deterministic () =
  let sched =
    Schedule.all
      [
        Schedule.bernoulli ~rate:0.3;
        Schedule.crash (Party_id.left 1) ~at_round:2;
        Schedule.partition ~from_round:1 ~until_round:4
          [ Party_id.right 0 ]
          [ Party_id.left 0; Party_id.left 1 ];
      ]
  in
  let a = decisions ~k:3 (Schedule.compile ~seed:5 sched) in
  let b = decisions ~k:3 (Schedule.compile ~seed:5 sched) in
  Alcotest.(check bool) "same seed, same decisions" true (a = b)

let test_compile_seed_sensitive () =
  let sched = Schedule.bernoulli ~rate:0.5 in
  let a = decisions ~k:3 (Schedule.compile ~seed:1 sched) in
  let b = decisions ~k:3 (Schedule.compile ~seed:2 sched) in
  Alcotest.(check bool) "different seed, different decisions" false (a = b)

let test_crash_window () =
  let p = Party_id.left 0 in
  let model = Schedule.compile ~seed:0 (Schedule.crash p ~at_round:2) in
  let dst = Party_id.right 0 in
  Alcotest.(check bool) "alive before" false (model.Engine.drop ~round:1 ~src:p ~dst);
  Alcotest.(check bool) "dead at crash round" true
    (model.Engine.drop ~round:2 ~src:p ~dst);
  Alcotest.(check bool) "dead forever" true
    (model.Engine.drop ~round:1000 ~src:p ~dst);
  Alcotest.(check bool) "others unaffected" false
    (model.Engine.drop ~round:5 ~src:(Party_id.left 1) ~dst)

let test_partition_symmetric_and_windowed () =
  let a = [ Party_id.left 0 ] and b = [ Party_id.right 0; Party_id.right 1 ] in
  let model =
    Schedule.compile ~seed:0 (Schedule.partition ~from_round:1 ~until_round:3 a b)
  in
  let l0 = Party_id.left 0 and r0 = Party_id.right 0 in
  Alcotest.(check bool) "a->b cut" true (model.Engine.drop ~round:1 ~src:l0 ~dst:r0);
  Alcotest.(check bool) "b->a cut" true (model.Engine.drop ~round:2 ~src:r0 ~dst:l0);
  Alcotest.(check bool) "window end exclusive" false
    (model.Engine.drop ~round:3 ~src:l0 ~dst:r0);
  Alcotest.(check bool) "within a side open" false
    (model.Engine.drop ~round:1 ~src:r0 ~dst:(Party_id.right 1));
  Alcotest.(check bool) "third parties open" false
    (model.Engine.drop ~round:1 ~src:(Party_id.left 1) ~dst:r0)

let test_during_and_restrict () =
  let sched =
    Schedule.during ~from_round:2 ~until_round:4
      (Schedule.restrict_to_side Side.Left (Schedule.blackout ~from_round:0 ~until_round:100))
  in
  let model = Schedule.compile ~seed:0 sched in
  let l0 = Party_id.left 0 and r0 = Party_id.right 0 in
  Alcotest.(check bool) "left send in window cut" true
    (model.Engine.drop ~round:2 ~src:l0 ~dst:r0);
  Alcotest.(check bool) "right send in window open" false
    (model.Engine.drop ~round:2 ~src:r0 ~dst:l0);
  Alcotest.(check bool) "before window open" false
    (model.Engine.drop ~round:1 ~src:l0 ~dst:r0);
  Alcotest.(check bool) "after window open" false
    (model.Engine.drop ~round:4 ~src:l0 ~dst:r0)

let test_send_receive_omission_target () =
  let p = Party_id.right 0 in
  let send = Schedule.compile ~seed:3 (Schedule.send_omission ~rate:1.0 p) in
  let recv = Schedule.compile ~seed:3 (Schedule.receive_omission ~rate:1.0 p) in
  let l0 = Party_id.left 0 in
  Alcotest.(check bool) "send-omit drops p's sends" true
    (send.Engine.drop ~round:0 ~src:p ~dst:l0);
  Alcotest.(check bool) "send-omit spares sends to p" false
    (send.Engine.drop ~round:0 ~src:l0 ~dst:p);
  Alcotest.(check bool) "recv-omit drops sends to p" true
    (recv.Engine.drop ~round:0 ~src:l0 ~dst:p);
  Alcotest.(check bool) "recv-omit spares p's sends" false
    (recv.Engine.drop ~round:0 ~src:p ~dst:l0)

let test_labels_name_the_component () =
  let sched =
    Schedule.union
      (Schedule.crash (Party_id.right 0) ~at_round:1)
      (Schedule.bernoulli ~rate:1.0)
  in
  let model = Schedule.compile ~seed:0 sched in
  (* The first matching component in declaration order labels the drop. *)
  Alcotest.(check (option string))
    "crash label wins for R0" (Some "crash(R0@1)")
    (model.Engine.drop_label ~round:2 ~src:(Party_id.right 0)
       ~dst:(Party_id.left 0));
  Alcotest.(check (option string))
    "bernoulli labels the rest" (Some "drop(100%)")
    (model.Engine.drop_label ~round:2 ~src:(Party_id.left 0)
       ~dst:(Party_id.right 0))

let test_empty_schedules () =
  Alcotest.(check bool) "never empty" true (Schedule.is_empty Schedule.never);
  Alcotest.(check bool) "rate-0 pruned" true
    (Schedule.is_empty (Schedule.bernoulli ~rate:0.));
  Alcotest.(check bool) "empty partition side pruned" true
    (Schedule.is_empty
       (Schedule.partition ~from_round:0 ~until_round:5 [] [ Party_id.left 0 ]));
  Alcotest.(check bool) "contradictory restriction pruned" true
    (Schedule.is_empty
       (Schedule.restrict_to_side Side.Left
          (Schedule.restrict_to_side Side.Right (Schedule.bernoulli ~rate:0.5))));
  Alcotest.(check bool) "empty during pruned" true
    (Schedule.is_empty
       (Schedule.during ~from_round:5 ~until_round:5 (Schedule.bernoulli ~rate:0.5)));
  Alcotest.(check string) "describe none" "none" (Schedule.describe Schedule.never)

let test_invalid_arguments_rejected () =
  let rejects f = Alcotest.(check bool) "rejected" true (
    match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects (fun () -> Schedule.bernoulli ~rate:1.5);
  rejects (fun () -> Schedule.bernoulli ~rate:(-0.1));
  rejects (fun () -> Schedule.send_omission ~rate:2. (Party_id.left 0));
  rejects (fun () -> Schedule.crash (Party_id.left 0) ~at_round:(-1));
  rejects (fun () -> Schedule.blackout ~from_round:3 ~until_round:1);
  rejects (fun () ->
      Schedule.during ~from_round:(-1) ~until_round:2 (Schedule.bernoulli ~rate:0.5))

(* --- in-flight mutation --------------------------------------------------- *)

(* The corrupt hook's verdicts over a (round, src, dst) cube, as a
   replayable fingerprint mirroring [decisions]. *)
let corrupt_decisions ~k model payload =
  let parties = Party_id.all ~k in
  List.concat_map
    (fun round ->
      List.concat_map
        (fun src ->
          List.filter_map
            (fun dst ->
              if Party_id.equal src dst then None
              else Some (model.Engine.corrupt ~round ~src ~dst ~prev:None payload))
            parties)
        parties)
    (Util.range 0 6)

let test_mutation_deterministic_and_seeded () =
  let sched =
    Schedule.union
      (Schedule.corrupt ~rate:0.5 ~kind:Mutation.Bit_flip (Party_id.right 0))
      (Schedule.corrupt ~rate:0.5 ~kind:Mutation.Equivocate (Party_id.left 0))
  in
  let payload = "the quick brown fox" in
  let a = corrupt_decisions ~k:3 (Schedule.compile ~seed:9 sched) payload in
  let b = corrupt_decisions ~k:3 (Schedule.compile ~seed:9 sched) payload in
  Alcotest.(check bool) "same seed, same mutations" true (a = b);
  let c = corrupt_decisions ~k:3 (Schedule.compile ~seed:10 sched) payload in
  Alcotest.(check bool) "different seed, different mutations" false (a = c)

let test_corrupt_never_drops () =
  let r0 = Party_id.right 0 in
  let model =
    Schedule.compile ~seed:2 (Schedule.corrupt ~rate:1.0 ~kind:Mutation.Bit_flip r0)
  in
  Alcotest.(check bool) "corruption is not omission" false
    (model.Engine.drop ~round:0 ~src:r0 ~dst:(Party_id.left 0));
  Alcotest.(check bool) "hook fires at rate 1" true
    (model.Engine.corrupt ~round:0 ~src:r0 ~dst:(Party_id.left 0) ~prev:None
       "payload"
    <> None);
  Alcotest.(check (option string))
    "other senders untouched" None
    (Option.map snd
       (model.Engine.corrupt ~round:0 ~src:(Party_id.right 1)
          ~dst:(Party_id.left 0) ~prev:None "payload"))

let test_equivocate_differs_per_recipient () =
  let r0 = Party_id.right 0 in
  let model =
    Schedule.compile ~seed:4 (Schedule.corrupt ~rate:1.0 ~kind:Mutation.Equivocate r0)
  in
  let payload = String.init 16 Char.chr in
  let get dst =
    match model.Engine.corrupt ~round:0 ~src:r0 ~dst ~prev:None payload with
    | Some (bytes, _) -> bytes
    | None -> Alcotest.fail "rate-1.0 equivocation did not fire"
  in
  let to_l0 = get (Party_id.left 0)
  and to_l1 = get (Party_id.left 1) in
  Alcotest.(check bool) "frames mutated" true (to_l0 <> payload && to_l1 <> payload);
  Alcotest.(check bool) "recipients see different frames" true (to_l0 <> to_l1)

let test_schedule_codec_roundtrip () =
  let r0 = Party_id.right 0 in
  let sched =
    Schedule.all
      [
        Schedule.bernoulli ~rate:0.25;
        Schedule.crash (Party_id.left 1) ~at_round:2;
        Schedule.send_omission ~rate:0.5 r0;
        Schedule.receive_omission ~rate:0.75 r0;
        Schedule.partition ~from_round:1 ~until_round:4 [ r0 ]
          [ Party_id.left 0; Party_id.left 1 ];
        Schedule.during ~from_round:0 ~until_round:3
          (Schedule.blackout ~from_round:0 ~until_round:100);
        Schedule.restrict_to_side Side.Left
          (Schedule.corrupt ~rate:0.3 ~kind:Mutation.Forge_sender (Party_id.left 0));
        Schedule.corrupt_state ~rate:0.8 r0 ~at_round:3;
        Schedule.sabotage (Party_id.left 0) ~at_round:5;
      ]
  in
  let bytes = Wire.encode Schedule.codec sched in
  let decoded = Wire.decode_exn Schedule.codec bytes in
  Alcotest.(check bool) "roundtrip" true (decoded = sched);
  (* Canonicality across every atom: re-encoding the decoded term yields
     the same bytes, so repro files are stable digests of the term. *)
  Alcotest.(check string) "canonical re-encoding"
    (Wire.to_hex bytes)
    (Wire.to_hex (Wire.encode Schedule.codec decoded));
  Alcotest.(check bool) "garbage never crashes the schedule decoder" true
    (match Wire.decode Schedule.codec "\x02\x02\x02\x02\x02" with
    | Ok _ | Error _ -> true)

(* --- state corruption ----------------------------------------------------- *)

let test_corrupt_state_never_drops_and_targets () =
  let r0 = Party_id.right 0 in
  let model = Schedule.compile ~seed:7 (Schedule.corrupt_state ~rate:1.0 r0 ~at_round:2) in
  Alcotest.(check bool) "state corruption is not omission" false
    (model.Engine.drop ~round:2 ~src:r0 ~dst:(Party_id.left 0));
  let fires ~round ~party =
    model.Engine.scramble ~round ~party ~cell:0 ~attempt:0 "payload" <> None
  in
  Alcotest.(check bool) "fires in its round at rate 1" true (fires ~round:2 ~party:r0);
  Alcotest.(check bool) "window start exclusive below" false (fires ~round:1 ~party:r0);
  Alcotest.(check bool) "window end exclusive" false (fires ~round:3 ~party:r0);
  Alcotest.(check bool) "other parties untouched" false
    (fires ~round:2 ~party:(Party_id.right 1));
  (* Omission-only schedules must leave the engine's scramble machinery
     physically disabled — that is what keeps [track_prev]-style gating
     (and hence fault-free runs) on the fast path. *)
  let omission = Schedule.compile ~seed:7 (Schedule.bernoulli ~rate:0.5) in
  Alcotest.(check bool) "no scramblers, no hook" true
    (omission.Engine.scramble == Engine.no_scramble)

let test_corrupt_state_deterministic_and_attempt_varied () =
  let r0 = Party_id.right 0 in
  let sched = Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1 in
  let get seed attempt =
    (Schedule.compile ~seed sched).Engine.scramble ~round:1 ~party:r0 ~cell:0
      ~attempt "some canonical state"
  in
  Alcotest.(check bool) "same seed, same bytes" true (get 5 0 = get 5 0);
  Alcotest.(check bool) "different seed, different bytes" false (get 5 0 = get 6 0);
  (* The retry loop must draw fresh candidates: the firing decision
     ignores the attempt, the content hash absorbs it. *)
  Alcotest.(check bool) "attempts still fire" true (get 5 3 <> None);
  Alcotest.(check bool) "attempts vary the candidate" false (get 5 0 = get 5 1)

let test_corrupt_state_window_and_side_composition () =
  let r0 = Party_id.right 0 in
  let atom = Schedule.corrupt_state ~rate:1.0 r0 ~at_round:2 in
  Alcotest.(check bool) "excluding window prunes the atom" true
    (Schedule.is_empty (Schedule.during ~from_round:3 ~until_round:9 atom));
  (* A mismatched side restriction keeps the term (same contract as the
     other party atoms) but the compiled hook never fires and nobody is
     charged. *)
  let mismatched =
    Schedule.compile ~seed:0 (Schedule.restrict_to_side Side.Left atom)
  in
  Alcotest.(check bool) "mismatched side restriction never fires" true
    (mismatched.Engine.scramble ~round:2 ~party:r0 ~cell:0 ~attempt:0 "state"
    = None);
  Alcotest.check party_set "mismatched side restriction charges nobody"
    Party_set.empty
    (Schedule.charged ~k:2 (Schedule.restrict_to_side Side.Left atom));
  let kept = Schedule.during ~from_round:0 ~until_round:3 atom in
  Alcotest.(check bool) "covering window keeps it" false (Schedule.is_empty kept);
  Alcotest.(check bool) "matching side restriction keeps it" false
    (Schedule.is_empty (Schedule.restrict_to_side Side.Right atom));
  let model = Schedule.compile ~seed:0 kept in
  Alcotest.(check bool) "kept atom still fires in its round" true
    (model.Engine.scramble ~round:2 ~party:r0 ~cell:0 ~attempt:0 "state" <> None);
  Alcotest.(check bool) "zero rate prunes" true
    (Schedule.is_empty (Schedule.corrupt_state ~rate:0. r0 ~at_round:2));
  Alcotest.check party_set "corrupt_state charges its party like send-omission"
    (Party_set.singleton r0)
    (Schedule.charged ~k:2 atom)

(* --- budget attribution -------------------------------------------------- *)

let test_charged_attribution () =
  let k = 3 in
  let r0 = Party_id.right 0 in
  let check name expected sched =
    Alcotest.check party_set name expected (Schedule.charged ~k sched)
  in
  check "never" Party_set.empty Schedule.never;
  check "crash" (Party_set.singleton r0) (Schedule.crash r0 ~at_round:1);
  check "send omission" (Party_set.singleton r0)
    (Schedule.send_omission ~rate:0.5 r0);
  check "receive omission" (Party_set.singleton r0)
    (Schedule.receive_omission ~rate:0.5 r0);
  check "bernoulli charges everyone" (Party_set.full ~k)
    (Schedule.bernoulli ~rate:0.1);
  check "restricted bernoulli charges one side"
    (Party_set.of_list (Party_id.side_members Side.Left ~k))
    (Schedule.restrict_to_side Side.Left (Schedule.bernoulli ~rate:0.1));
  check "partition charges the smaller block" (Party_set.singleton r0)
    (Schedule.partition ~from_round:0 ~until_round:5 [ r0 ]
       (Party_id.side_members Side.Left ~k));
  check "restriction filters a mismatched sender atom" Party_set.empty
    (Schedule.restrict_to_side Side.Left (Schedule.crash r0 ~at_round:0));
  check "union accumulates"
    (Party_set.of_list [ r0; Party_id.left 1 ])
    (Schedule.union
       (Schedule.crash r0 ~at_round:1)
       (Schedule.send_omission ~rate:0.2 (Party_id.left 1)))

let test_corrupt_charged_sabotage_not () =
  let r0 = Party_id.right 0 in
  Alcotest.check party_set "corrupt charges its sender like omission"
    (Party_set.singleton r0)
    (Schedule.charged ~k:2 (Schedule.corrupt ~rate:0.3 ~kind:Mutation.Truncate r0));
  Alcotest.check party_set "restriction filters a mismatched corrupt sender"
    Party_set.empty
    (Schedule.charged ~k:2
       (Schedule.restrict_to_side Side.Left
          (Schedule.corrupt ~rate:0.3 ~kind:Mutation.Truncate r0)));
  Alcotest.check party_set "sabotage is deliberately uncharged" Party_set.empty
    (Schedule.charged ~k:2 (Schedule.sabotage (Party_id.left 0) ~at_round:0))

(* --- the oracle across the T-table --------------------------------------- *)

(* The four feasibility mechanisms under test, each with enough slack on
   the right for one omission-faulty right party. *)
let t_settings ~k =
  let third = max 0 ((k - 1) / 3) in
  [
    setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Unauthenticated
      ~tl:third ~tr:k;
    setting ~k ~topology:Topology.Fully_connected ~auth:Core.Setting.Authenticated
      ~tl:k ~tr:k;
    setting ~k ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
      ~tl:third ~tr:k;
    setting ~k ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated
      ~tl:third ~tr:k;
  ]

let within_budget_schedules ~k:_ =
  let r0 = Party_id.right 0 in
  [
    Schedule.send_omission ~rate:0.4 r0;
    Schedule.receive_omission ~rate:0.4 r0;
    Schedule.crash r0 ~at_round:1;
  ]

let test_within_budget_omissions_are_ok () =
  (* Theorems 8-9: an omission-faulty party within the corruption budget
     costs nothing — every honest party still achieves bSM. *)
  List.iter
    (fun s ->
      List.iter
        (fun sched ->
          let case = H.Sweep.case ~profile_seed:11 s in
          let r = Oracle.run ~seed:1 ~schedule:sched case in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s within budget"
               case.H.Sweep.label (Schedule.describe sched))
            true r.Oracle.within_budget;
          match r.Oracle.verdict with
          | Oracle.Ok -> ()
          | v ->
            Alcotest.failf "%s under %s: expected ok, got %s"
              case.H.Sweep.label (Schedule.describe sched)
              (Oracle.verdict_to_string v))
        (within_budget_schedules ~k:s.Core.Setting.k))
    (t_settings ~k:2 @ t_settings ~k:4)

let test_over_budget_degrades_without_crash () =
  (* Blanket loss charges the whole roster: over budget wherever tL < k,
     and the run must come back classified, not raise. *)
  List.iter
    (fun s ->
      List.iter
        (fun sched ->
          let case = H.Sweep.case ~profile_seed:7 s in
          let r = Oracle.run ~seed:3 ~schedule:sched case in
          if s.Core.Setting.t_left < s.Core.Setting.k then begin
            Alcotest.(check bool) "over budget" false r.Oracle.within_budget;
            Alcotest.(check bool) "classified as degradation" true
              (r.Oracle.verdict = Oracle.Expected_degradation)
          end)
        [
          Schedule.bernoulli ~rate:0.3;
          Schedule.blackout ~from_round:1 ~until_round:3;
        ])
    (t_settings ~k:2 @ t_settings ~k:4)

let test_oracle_counts_fates () =
  let s = List.hd (t_settings ~k:2) in
  let case = H.Sweep.case ~profile_seed:11 s in
  let sched = Schedule.crash (Party_id.right 0) ~at_round:1 in
  let r = Oracle.run ~seed:1 ~schedule:sched case in
  let m = r.Oracle.metrics in
  let labelled =
    List.fold_left (fun acc (_, n) -> acc + n) 0 m.Engine.messages_dropped_by_label
  in
  Alcotest.(check bool) "some omissions" true (m.Engine.messages_dropped_fault > 0);
  Alcotest.(check int) "every omission labelled" m.Engine.messages_dropped_fault
    labelled;
  Alcotest.(check int) "conservation"
    m.Engine.messages_sent
    (m.Engine.messages_delivered + m.Engine.messages_dropped_topology
   + m.Engine.messages_dropped_fault)

(* --- the convergence oracle ------------------------------------------------ *)

(* Fully-connected/unauthenticated k=2 with spare right budget: the
   general phase-king path, whose parties register their round-local
   state, so a corrupt-state schedule on R0 demonstrably scrambles. *)
let scramble_case () = H.Sweep.case ~profile_seed:11 (List.hd (t_settings ~k:2))

let test_recovery_measured_after_scramble () =
  let schedule = Schedule.corrupt_state ~rate:1.0 (Party_id.right 0) ~at_round:1 in
  let r = Oracle.run ~seed:1 ~schedule (scramble_case ()) in
  let m = r.Oracle.metrics in
  Alcotest.(check bool) "cells were scrambled" true (m.Engine.cells_scrambled > 0);
  Alcotest.(check (option int))
    "first scramble in the schedule's round" (Some 1) m.Engine.first_scramble_round;
  Alcotest.(check bool) "within budget" true r.Oracle.within_budget;
  Alcotest.(check bool) "still ok — the protocol absorbs the scramble" true
    (r.Oracle.verdict = Oracle.Ok);
  (match r.Oracle.recovery with
  | Some (Oracle.Recovered n) ->
    Alcotest.(check bool) (Printf.sprintf "recovered in %d rounds" n) true (n >= 0)
  | other ->
    Alcotest.failf "expected Recovered, got %s"
      (match other with
      | None -> "no recovery verdict"
      | Some rc -> Oracle.recovery_to_string rc));
  (* Scrambles are charged to the component's label like omissions. *)
  Alcotest.(check bool) "scramble label tallied" true
    (List.mem_assoc "corrupt-state(R0@1,100%)" m.Engine.messages_dropped_by_label)

let test_recovery_none_without_scramble () =
  let schedule = Schedule.crash (Party_id.right 0) ~at_round:1 in
  let r = Oracle.run ~seed:1 ~schedule (scramble_case ()) in
  Alcotest.(check bool) "no scramble, no recovery verdict" true
    (r.Oracle.recovery = None);
  Alcotest.(check int) "no cells scrambled" 0 r.Oracle.metrics.Engine.cells_scrambled

let test_recovery_stuck_when_rounds_run_out () =
  (* Starve the run of rounds after the scramble: honest parties are
     proven never to converge, which the oracle must report as Stuck
     rather than a bare termination violation. *)
  let schedule = Schedule.corrupt_state ~rate:1.0 (Party_id.right 0) ~at_round:1 in
  let r = Oracle.run ~max_rounds:2 ~seed:1 ~schedule (scramble_case ()) in
  Alcotest.(check bool) "cells were scrambled first" true
    (r.Oracle.metrics.Engine.cells_scrambled > 0);
  Alcotest.(check bool) "proven stuck" true (r.Oracle.recovery = Some Oracle.Stuck)

let test_recovery_codec_roundtrip () =
  List.iter
    (fun rc ->
      let bytes = Wire.encode Oracle.recovery_codec rc in
      Alcotest.(check bool)
        (Oracle.recovery_to_string rc)
        true
        (Wire.decode_exn Oracle.recovery_codec bytes = rc))
    [ Oracle.Recovered 0; Oracle.Recovered 17; Oracle.Stuck; Oracle.Violated ];
  Alcotest.(check bool) "unknown tag rejected" true
    (match Wire.decode Oracle.recovery_codec "\x09" with
    | Error _ -> true
    | Ok _ -> false)

(* --- shrinker & repros ---------------------------------------------------- *)

(* The injected-violation construction the CLI's --inject-violation uses:
   an uncharged sabotage of L0 (the real bug) buried under three
   admissible decoys. Mirrored here so the CLI path stays covered by
   tier-1 tests. *)
let injected_setting () =
  setting ~k:2 ~topology:Topology.Fully_connected ~auth:Core.Setting.Unauthenticated
    ~tl:0 ~tr:2

let injected_schedule () =
  let l0 = Party_id.left 0
  and r0 = Party_id.right 0
  and r1 = Party_id.right 1 in
  Schedule.all
    [
      Schedule.sabotage l0 ~at_round:0;
      Schedule.send_omission ~rate:0.25 r0;
      Schedule.corrupt ~rate:0.3 ~kind:Mutation.Bit_flip r0;
      Schedule.partition ~from_round:0 ~until_round:6 [ r0 ] [ r1 ];
    ]

let test_shrinker_strips_decoys () =
  let case = H.Sweep.case ~label:"injected" ~profile_seed:202 (injected_setting ()) in
  let schedule = injected_schedule () in
  match Shrink.minimize ~seed:0 ~schedule case with
  | Error msg -> Alcotest.failf "expected a violation to shrink: %s" msg
  | Ok out ->
    Alcotest.(check bool) "shrunk schedule still violates" true
      (out.Shrink.report.Oracle.verdict = Oracle.Violation);
    let before = List.length (Schedule.components schedule) in
    let after = List.length (Schedule.components out.Shrink.shrunk) in
    Alcotest.(check bool)
      (Printf.sprintf "decoys stripped (%d -> %d components)" before after)
      true (after <= 2);
    Alcotest.(check bool) "strictly smaller" true (after < before);
    Alcotest.(check bool) "search was logged" true (out.Shrink.trail <> []);
    Alcotest.(check bool) "attempts counted" true (out.Shrink.attempts > 0)

let test_shrinker_deterministic () =
  let case = H.Sweep.case ~label:"injected" ~profile_seed:202 (injected_setting ()) in
  let schedule = injected_schedule () in
  match
    ( Shrink.minimize ~seed:0 ~schedule case,
      Shrink.minimize ~seed:0 ~schedule case )
  with
  | Ok a, Ok b ->
    Alcotest.(check bool) "same shrunk schedule" true
      (a.Shrink.shrunk = b.Shrink.shrunk);
    Alcotest.(check int) "same attempts" a.Shrink.attempts b.Shrink.attempts
  | _ -> Alcotest.fail "minimize did not find the violation twice"

let test_shrinker_rejects_non_violation () =
  let case = H.Sweep.case ~profile_seed:11 (List.hd (t_settings ~k:2)) in
  let schedule = Schedule.crash (Party_id.right 0) ~at_round:1 in
  match Shrink.minimize ~seed:1 ~schedule case with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a clean run must not shrink"

let test_repro_roundtrip_and_replay () =
  let case = H.Sweep.case ~label:"repro" ~profile_seed:202 (injected_setting ()) in
  let schedule = Schedule.sabotage (Party_id.left 0) ~at_round:4 in
  let report = Oracle.run ~seed:0 ~schedule case in
  Alcotest.(check bool) "the minimal schedule violates" true
    (report.Oracle.verdict = Oracle.Violation);
  let t = Repro.make ~case ~schedule ~seed:0 report in
  let bytes = Wire.encode Repro.codec t in
  Alcotest.(check bool) "codec roundtrip" true (Wire.decode_exn Repro.codec bytes = t);
  let path = Filename.temp_file "bsm-repro" ".repro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Repro.to_file path t;
      match Repro.of_file path with
      | Error msg -> Alcotest.fail msg
      | Ok t' -> (
        Alcotest.(check bool) "file roundtrip" true (t = t');
        match Repro.check t' with
        | Ok r ->
          Alcotest.(check bool) "replay reproduces the violation" true
            (r.Oracle.verdict = Oracle.Violation)
        | Error msg -> Alcotest.failf "replay diverged: %s" msg))

(* The bytes of a repro record and of a schedule with a corrupt atom and
   a bernoulli rate, pinned as hex: repro files written earlier must
   keep decoding to the same record. *)
let test_repro_bytes_pinned () =
  let schedule =
    Schedule.union
      (Schedule.during ~from_round:1 ~until_round:9
         (Schedule.corrupt ~rate:0.3 ~kind:Mutation.Equivocate (Party_id.right 1)))
      (Schedule.bernoulli ~rate:0.125)
  in
  let repro =
    {
      Repro.case =
        H.Sweep.case ~label:"pinned" ~profile_seed:202 ~scenario_seed:(-3)
          ~adversary:H.Sweep.Random_coalition
          (setting ~k:3 ~topology:Topology.Bipartite ~auth:Core.Setting.Authenticated
             ~tl:1 ~tr:2);
      schedule;
      seed = 9;
      max_rounds = Some 150;
      expected = Oracle.Expected_degradation;
      fingerprint = "fp";
    }
  in
  let schedule_hex = "0203010a0106010103b3e6cc9903b3e6ccfe030000010000808080fe030000" in
  let repro_hex =
    "0670696e6e65640302010102940305010203010a0106010103b3e6cc9903b3e6ccfe03000001"
    ^ "0000808080fe0300001201960101026670"
  in
  Alcotest.(check string) "schedule bytes" schedule_hex
    (Wire.to_hex (Wire.encode Schedule.codec schedule));
  Alcotest.(check bool) "schedule decodes" true
    (Wire.decode_exn Schedule.codec (Wire.of_hex schedule_hex) = schedule);
  Alcotest.(check string) "repro bytes" repro_hex
    (Wire.to_hex (Wire.encode Repro.codec repro));
  Alcotest.(check bool) "repro decodes" true
    (Wire.decode_exn Repro.codec (Wire.of_hex repro_hex) = repro)

let test_repro_file_rejects_garbage () =
  let rejects content =
    let path = Filename.temp_file "bsm-repro" ".bad" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content);
        match Repro.of_file path with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "accepted %S" content)
  in
  rejects "";
  rejects "not a repro\nabcdef";
  rejects "bsm-repro 1\nzz-not-hex";
  rejects "bsm-repro 1\nabc";
  (* odd-length hex *)
  rejects "bsm-repro 99\n00";
  rejects "bsm-repro 1\n00"
(* valid hex, malformed payload *)

let test_shrink_and_replay_corrupt_state () =
  (* A violation whose schedule carries a corrupt-state decoy: the
     shrinker must handle the new component (strip it — it is not the
     bug), and a repro whose schedule retains corrupt-state components
     must replay bit-identically, scramble hashes included. *)
  let case = H.Sweep.case ~label:"scrambled" ~profile_seed:202 (injected_setting ()) in
  let schedule =
    Schedule.union
      (injected_schedule ())
      (Schedule.corrupt_state ~rate:0.9 (Party_id.right 0) ~at_round:1)
  in
  (match Shrink.minimize ~seed:0 ~schedule case with
  | Error msg -> Alcotest.failf "expected a violation to shrink: %s" msg
  | Ok out ->
    Alcotest.(check bool) "shrunk schedule still violates" true
      (out.Shrink.report.Oracle.verdict = Oracle.Violation);
    Alcotest.(check bool) "corrupt-state decoy stripped" true
      (List.length (Schedule.components out.Shrink.shrunk)
      < List.length (Schedule.components schedule)));
  let full = Schedule.union
      (Schedule.sabotage (Party_id.left 0) ~at_round:4)
      (Schedule.corrupt_state ~rate:1.0 (Party_id.right 0) ~at_round:1)
  in
  let report = Oracle.run ~seed:0 ~schedule:full case in
  Alcotest.(check bool) "violates with the scramble aboard" true
    (report.Oracle.verdict = Oracle.Violation);
  let t = Repro.make ~case ~schedule:full ~seed:0 report in
  match Repro.check (Wire.decode_exn Repro.codec (Wire.encode Repro.codec t)) with
  | Ok r ->
    Alcotest.(check bool) "replay reproduces the scramble counts" true
      (r.Oracle.metrics.Engine.cells_scrambled
      = report.Oracle.metrics.Engine.cells_scrambled)
  | Error msg -> Alcotest.failf "corrupt-state replay diverged: %s" msg

let test_replay_gate_exit_codes () =
  (* The CLI's exit-code policy: reproducing a Violation is a failing
     state (exit 1), clean reproductions pass, divergence fails. *)
  let case = H.Sweep.case ~label:"gate" ~profile_seed:202 (injected_setting ()) in
  let violating = Oracle.run ~seed:0 ~schedule:(injected_schedule ()) case in
  Alcotest.(check int) "reproduced violation exits 1" 1 (Repro.gate (Ok violating));
  let clean =
    Oracle.run ~seed:1
      ~schedule:(Schedule.crash (Party_id.right 0) ~at_round:1)
      (scramble_case ())
  in
  Alcotest.(check bool) "clean run is ok" true (clean.Oracle.verdict = Oracle.Ok);
  Alcotest.(check int) "clean reproduction exits 0" 0 (Repro.gate (Ok clean));
  Alcotest.(check int) "divergence exits 1" 1 (Repro.gate (Error "diverged"))

(* --- chaos sweeps --------------------------------------------------------- *)

let chaos_json outcomes = Json.to_string (Chaos_sweep.to_json ~jobs:1 outcomes)

(* The printed report read back the way tools/bench_compare reads it. *)
let chaos_report outcomes =
  match Json.of_string (chaos_json outcomes) with
  | Ok v -> v
  | Error e -> Alcotest.failf "BENCH_chaos does not parse: %s" (Json.error_to_string e)

let json_list key v =
  match Json.member key v with
  | Some (Json.List l) -> l
  | _ -> Alcotest.failf "no %S list" key

let json_string key v =
  match Json.member key v with
  | Some (Json.String s) -> Some s
  | _ -> None

let test_quick_grid_par_equals_seq () =
  let cells = Chaos_sweep.quick_grid () in
  let seq = Chaos_sweep.run_cells cells in
  let par =
    Pool.with_pool ~jobs:4 (fun pool -> Chaos_sweep.run_cells ~pool cells)
  in
  Alcotest.(check bool) "bit-identical" true (seq = par);
  Alcotest.(check string) "same json" (chaos_json seq) (chaos_json par)

let test_fused_submit_matches_run_cells () =
  (* The chaos grid submitted into a fused batch (one run_cell task per
     cell in the shared graph, as the bench's C1 table does) must be
     bit-identical to the run_cells path, json included. *)
  let cells = Chaos_sweep.quick_grid () in
  let seq = Chaos_sweep.run_cells cells in
  let fused =
    Pool.with_pool ~jobs:4 (fun pool ->
        let batch = H.Sweep.Fused.create () in
        let handle =
          H.Sweep.Fused.add batch ~table:"chaos" Chaos_sweep.run_cell cells
        in
        let _ = H.Sweep.Fused.drain ~pool batch in
        H.Sweep.Fused.results handle)
  in
  Alcotest.(check bool) "fused == sequential" true (seq = fused);
  Alcotest.(check string) "same json" (chaos_json seq) (chaos_json fused)

let test_quick_grid_has_no_violations () =
  let outcomes = Chaos_sweep.run_cells (Chaos_sweep.quick_grid ()) in
  let s = Chaos_sweep.summarize outcomes in
  Alcotest.(check int) "cells" (List.length (Chaos_sweep.quick_grid ())) s.Chaos_sweep.cells;
  Alcotest.(check int) "no violations" 0 s.Chaos_sweep.violated;
  Alcotest.(check bool) "some cells ok" true (s.Chaos_sweep.ok > 0);
  Alcotest.(check bool) "over-budget cells degraded" true (s.Chaos_sweep.degraded > 0);
  Alcotest.(check int) "partition is accounted" s.Chaos_sweep.cells
    (s.Chaos_sweep.ok + s.Chaos_sweep.degraded + s.Chaos_sweep.violated)

let test_json_deterministic () =
  let run () = chaos_json (Chaos_sweep.run_cells (Chaos_sweep.quick_grid ())) in
  Alcotest.(check string) "same seeds, same bytes" (run ()) (run ())

let test_json_pins_corruption_schema () =
  (* BENCH_chaos rows must carry the corrupted-frame count and fold the
     mutation component's label into dropped_by_label — deterministic
     counts only, so the file stays bit-identical. *)
  let case = H.Sweep.case ~profile_seed:11 (List.hd (t_settings ~k:2)) in
  let schedule = Schedule.corrupt ~rate:1.0 ~kind:Mutation.Bit_flip (Party_id.right 0) in
  let outcomes = Chaos_sweep.run_cells [ Chaos_sweep.cell ~chaos_seed:1 ~schedule case ] in
  let m = (List.hd outcomes).Chaos_sweep.oracle.Oracle.metrics in
  Alcotest.(check bool) "frames were corrupted" true (m.Engine.messages_corrupted > 0);
  Alcotest.(check (list (pair string int)))
    "every corruption tallied under the component label"
    [ "corrupt(R0,bit-flip,100%)", m.Engine.messages_corrupted ]
    m.Engine.messages_dropped_by_label;
  let run = List.hd (json_list "runs" (chaos_report outcomes)) in
  Alcotest.(check bool) "corrupted_frames in json" true
    (Json.member "corrupted_frames" run = Some (Json.Int m.Engine.messages_corrupted));
  Alcotest.(check bool) "mutation label in json" true
    (Json.member "dropped_by_label" run
    = Some
        (Json.Obj
           [ "corrupt(R0,bit-flip,100%)", Json.Int m.Engine.messages_corrupted ]))

let test_mutation_sweep_par_equals_seq () =
  (* Mutation schedules go through the same seq==par bit-identity bar as
     the omission vocabulary: the corrupt hook must not depend on
     evaluation order or domain count. *)
  let cases = List.map (fun s -> H.Sweep.case ~profile_seed:11 s) (t_settings ~k:2) in
  let r0 = Party_id.right 0 in
  let schedules =
    List.map (fun kind -> Schedule.corrupt ~rate:0.4 ~kind r0) Mutation.all_kinds
  in
  let cells = Chaos_sweep.grid ~cases ~schedules ~seeds:[ 1; 2 ] in
  let seq = Chaos_sweep.run_cells cells in
  let par = Pool.with_pool ~jobs:4 (fun pool -> Chaos_sweep.run_cells ~pool cells) in
  Alcotest.(check bool) "bit-identical" true (seq = par);
  Alcotest.(check string) "same json" (chaos_json seq) (chaos_json par)

let test_state_corruption_sweep_par_equals_seq () =
  (* The recovery grid's bar: corrupt-state schedules through the pool
     must make identical scramble decisions (and hence identical
     recovery verdicts) in any evaluation order, json included. *)
  let cases = List.map (fun s -> H.Sweep.case ~profile_seed:11 s) (t_settings ~k:2) in
  let r0 = Party_id.right 0 in
  let schedules =
    [
      Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1;
      Schedule.corrupt_state ~rate:0.6 r0 ~at_round:2;
      Schedule.union
        (Schedule.send_omission ~rate:0.3 r0)
        (Schedule.corrupt_state ~rate:0.8 r0 ~at_round:1);
    ]
  in
  let cells = Chaos_sweep.grid ~cases ~schedules ~seeds:[ 1; 2 ] in
  let seq = Chaos_sweep.run_cells cells in
  let par = Pool.with_pool ~jobs:4 (fun pool -> Chaos_sweep.run_cells ~pool cells) in
  Alcotest.(check bool) "bit-identical" true (seq = par);
  Alcotest.(check string) "same json" (chaos_json seq) (chaos_json par);
  (* The grid must have exercised the oracle: at least one cell recovered. *)
  Alcotest.(check bool) "some cell recovered" true
    (List.exists
       (fun o ->
         match o.Chaos_sweep.oracle.Oracle.recovery with
         | Some (Oracle.Recovered _) -> true
         | _ -> false)
       seq)

let test_recovery_grid_rows () =
  let cases = [ scramble_case () ] in
  let r0 = Party_id.right 0 in
  let schedules =
    [
      Schedule.crash r0 ~at_round:1;
      Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1;
    ]
  in
  let outcomes =
    Chaos_sweep.run_cells (Chaos_sweep.grid ~cases ~schedules ~seeds:[ 1 ])
  in
  let rows = Chaos_sweep.recovery_grid outcomes in
  (* Only the scrambling schedule earns a row; the crash group has no
     recovery story to tell. *)
  Alcotest.(check int) "one row" 1 (List.length rows);
  let row = List.hd rows in
  Alcotest.(check string) "the corrupt-state group" "corrupt-state(R0@1,100%)"
    row.Chaos_sweep.rg_schedule;
  Alcotest.(check int) "seed" 1 row.Chaos_sweep.rg_seed;
  Alcotest.(check int) "cells" 1 row.Chaos_sweep.rg_cells;
  Alcotest.(check int) "recovered" 1 row.Chaos_sweep.rg_recovered;
  Alcotest.(check int) "stuck" 0 row.Chaos_sweep.rg_stuck;
  Alcotest.(check bool) "mean == max for one cell" true
    (Float.equal row.Chaos_sweep.rg_mean_rounds
       (float_of_int row.Chaos_sweep.rg_max_rounds));
  let report = chaos_report outcomes in
  Alcotest.(check (list (option string)))
    "recovery_row names in json"
    [ Some "corrupt-state(R0@1,100%)#seed1" ]
    (List.map (json_string "recovery_row") (json_list "recovery_grid" report));
  Alcotest.(check bool) "per-run recovery field in json" true
    (List.exists
       (fun run ->
         match json_string "recovery" run with
         | Some r -> String.starts_with ~prefix:"recovered:" r
         | None -> false)
       (json_list "runs" report))

(* The first path at which two JSON values differ, e.g. ["runs[3].sent"]. *)
let rec json_diff path (a : Json.t) (b : Json.t) =
  match a, b with
  | Json.Obj ma, Json.Obj mb ->
    if List.map fst ma <> List.map fst mb then Some (path ^ " (keys)")
    else
      List.find_map
        (fun ((key, va), (_, vb)) ->
          json_diff (if path = "" then key else path ^ "." ^ key) va vb)
        (List.combine ma mb)
  | Json.List la, Json.List lb ->
    if List.length la <> List.length lb then Some (path ^ " (length)")
    else
      List.find_map Fun.id
        (List.mapi
           (fun i (va, vb) -> json_diff (Printf.sprintf "%s[%d]" path i) va vb)
           (List.combine la lb))
  | _ -> if a = b then None else Some path

(* The committed quick grid: [to_json ~jobs:1] of [run_cells (quick_grid ())],
   which is the BENCH_chaos.quick.json of [bench/main.exe --quick --jobs 1].
   An intended change to a count regenerates the file in the same change. *)
let test_quick_grid_matches_golden () =
  let file = "golden/chaos_quick.json" in
  let golden =
    match Json.of_string (In_channel.with_open_bin file In_channel.input_all) with
    | Ok v -> v
    | Error e -> Alcotest.failf "%s: %s" file (Json.error_to_string e)
  in
  let cells = Chaos_sweep.quick_grid () in
  List.iter
    (fun (what, outcomes) ->
      match json_diff "" golden (chaos_report outcomes) with
      | None -> ()
      | Some path -> Alcotest.failf "%s quick grid differs from %s at %s" what file path)
    [
      "sequential", Chaos_sweep.run_cells cells;
      "2-lane", Pool.with_pool ~jobs:2 (fun pool -> Chaos_sweep.run_cells ~pool cells);
    ]

let test_grid_shape () =
  let cases =
    [ H.Sweep.case (List.hd (t_settings ~k:2)); H.Sweep.case (List.nth (t_settings ~k:2) 1) ]
  in
  let schedules = [ Schedule.never; Schedule.bernoulli ~rate:0.5 ] in
  let cells = Chaos_sweep.grid ~cases ~schedules ~seeds:[ 1; 2; 3 ] in
  Alcotest.(check int) "cross product" 12 (List.length cells);
  (* cases outermost, seeds innermost *)
  let first = List.hd cells in
  Alcotest.(check int) "first seed" 1 first.Chaos_sweep.chaos_seed;
  let second = List.nth cells 1 in
  Alcotest.(check int) "seeds vary fastest" 2 second.Chaos_sweep.chaos_seed

let () =
  Alcotest.run "chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "compile deterministic" `Quick test_compile_deterministic;
          Alcotest.test_case "seed sensitive" `Quick test_compile_seed_sensitive;
          Alcotest.test_case "crash window" `Quick test_crash_window;
          Alcotest.test_case "partition symmetric, windowed" `Quick
            test_partition_symmetric_and_windowed;
          Alcotest.test_case "during + restrict" `Quick test_during_and_restrict;
          Alcotest.test_case "send vs receive omission" `Quick
            test_send_receive_omission_target;
          Alcotest.test_case "labels name the component" `Quick
            test_labels_name_the_component;
          Alcotest.test_case "empty schedules" `Quick test_empty_schedules;
          Alcotest.test_case "invalid arguments rejected" `Quick
            test_invalid_arguments_rejected;
          Alcotest.test_case "charged attribution" `Quick test_charged_attribution;
          Alcotest.test_case "corrupt charged, sabotage not" `Quick
            test_corrupt_charged_sabotage_not;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "deterministic in the seed" `Quick
            test_mutation_deterministic_and_seeded;
          Alcotest.test_case "corrupt never drops" `Quick test_corrupt_never_drops;
          Alcotest.test_case "equivocate differs per recipient" `Quick
            test_equivocate_differs_per_recipient;
          Alcotest.test_case "schedule codec roundtrip" `Quick
            test_schedule_codec_roundtrip;
        ] );
      ( "state-corruption",
        [
          Alcotest.test_case "corrupt_state never drops, targets its cell" `Quick
            test_corrupt_state_never_drops_and_targets;
          Alcotest.test_case "deterministic, attempt-varied" `Quick
            test_corrupt_state_deterministic_and_attempt_varied;
          Alcotest.test_case "window and side composition" `Quick
            test_corrupt_state_window_and_side_composition;
          Alcotest.test_case "recovery measured after scramble" `Quick
            test_recovery_measured_after_scramble;
          Alcotest.test_case "no scramble, no recovery verdict" `Quick
            test_recovery_none_without_scramble;
          Alcotest.test_case "stuck when rounds run out" `Quick
            test_recovery_stuck_when_rounds_run_out;
          Alcotest.test_case "recovery codec roundtrip" `Quick
            test_recovery_codec_roundtrip;
        ] );
      ( "shrink-repro",
        [
          Alcotest.test_case "shrinker strips decoys" `Quick
            test_shrinker_strips_decoys;
          Alcotest.test_case "shrinker deterministic" `Quick
            test_shrinker_deterministic;
          Alcotest.test_case "clean runs don't shrink" `Quick
            test_shrinker_rejects_non_violation;
          Alcotest.test_case "repro roundtrip and replay" `Quick
            test_repro_roundtrip_and_replay;
          Alcotest.test_case "repro bytes pinned" `Quick test_repro_bytes_pinned;
          Alcotest.test_case "garbage repro files rejected" `Quick
            test_repro_file_rejects_garbage;
          Alcotest.test_case "corrupt-state shrink and replay" `Quick
            test_shrink_and_replay_corrupt_state;
          Alcotest.test_case "replay gate exit codes" `Quick
            test_replay_gate_exit_codes;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "within-budget omissions ok (Thms 8-9)" `Quick
            test_within_budget_omissions_are_ok;
          Alcotest.test_case "over budget degrades, no crash" `Quick
            test_over_budget_degrades_without_crash;
          Alcotest.test_case "per-fate counts" `Quick test_oracle_counts_fates;
        ] );
      ( "chaos-sweep",
        [
          Alcotest.test_case "par equals seq" `Quick test_quick_grid_par_equals_seq;
          Alcotest.test_case "fused submit equals seq" `Quick
            test_fused_submit_matches_run_cells;
          Alcotest.test_case "quick grid clean" `Quick
            test_quick_grid_has_no_violations;
          Alcotest.test_case "json deterministic" `Quick test_json_deterministic;
          Alcotest.test_case "json pins corruption schema" `Quick
            test_json_pins_corruption_schema;
          Alcotest.test_case "mutation sweep par equals seq" `Quick
            test_mutation_sweep_par_equals_seq;
          Alcotest.test_case "state-corruption sweep par equals seq" `Quick
            test_state_corruption_sweep_par_equals_seq;
          Alcotest.test_case "recovery grid rows" `Quick test_recovery_grid_rows;
          Alcotest.test_case "quick grid matches golden" `Quick
            test_quick_grid_matches_golden;
          Alcotest.test_case "grid shape" `Quick test_grid_shape;
        ] );
    ]
