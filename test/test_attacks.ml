(* Tests for the impossibility constructions of Lemmas 5, 7 and 13: each
   attack must produce the predicted non-competition violation against the
   naive baseline protocol, and the solvability predicate must already
   declare those frontiers impossible (so our own protocol stack refuses
   to run there). *)

open Bsm_prelude
module A = Bsm_attacks
module Core = Bsm_core
module Topology = Bsm_topology.Topology

let check_violates name report =
  match report.A.Report.violation with
  | Some _ -> ()
  | None ->
    Alcotest.failf "%s: expected a violation;@ %s" name
      (Format.asprintf "%a" A.Report.pp report)

let test_duplication_breaks_naive () =
  check_violates "duplication" (A.Duplication.run A.Protocol_under_test.naive)

let test_cycle_breaks_naive () =
  check_violates "cycle" (A.Cycle.run A.Protocol_under_test.naive)

let test_split_breaks_naive () =
  check_violates "split" (A.Split.run A.Protocol_under_test.naive)

let setting ~k ~topology ~auth ~tl ~tr =
  Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr

let test_constructions_run_against_real_protocol () =
  (* Running the constructions against our real stack forced beyond its
     thresholds must complete without crashing (the impossibility theorem
     guarantees some admissible execution breaks such a protocol, not
     necessarily the covering one — we only require a well-formed report
     here). *)
  let dup_setting =
    setting ~k:3 ~topology:Topology.Fully_connected ~auth:Core.Setting.Unauthenticated
      ~tl:1 ~tr:1
  in
  let cyc_setting =
    setting ~k:2 ~topology:Topology.Bipartite ~auth:Core.Setting.Unauthenticated ~tl:0
      ~tr:1
  in
  let split_setting =
    setting ~k:3 ~topology:Topology.One_sided ~auth:Core.Setting.Unauthenticated ~tl:1
      ~tr:3
  in
  let reports =
    [
      A.Duplication.run (A.Protocol_under_test.thresholded ~setting:dup_setting);
      A.Cycle.run (A.Protocol_under_test.thresholded ~setting:cyc_setting);
      A.Split.run (A.Protocol_under_test.thresholded ~setting:split_setting);
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "report has outputs" true (r.A.Report.outputs <> []))
    reports

(* The frontiers the attacks operate at must be exactly where the
   predicate flips to impossible — and one step inside, solvable. *)

let test_duplication_frontier () =
  let s tl tr =
    setting ~k:3 ~topology:Topology.Fully_connected ~auth:Core.Setting.Unauthenticated
      ~tl ~tr
  in
  Alcotest.(check bool) "attack point impossible" false (Core.Solvability.solvable (s 1 1));
  Alcotest.(check bool) "tL=0 solvable" true (Core.Solvability.solvable (s 0 1));
  Alcotest.(check bool) "tR=0 solvable" true (Core.Solvability.solvable (s 1 0))

let test_cycle_frontier () =
  let s tl tr =
    setting ~k:2 ~topology:Topology.One_sided ~auth:Core.Setting.Unauthenticated ~tl ~tr
  in
  Alcotest.(check bool) "attack point impossible" false (Core.Solvability.solvable (s 0 1));
  Alcotest.(check bool) "tR=0 solvable" true (Core.Solvability.solvable (s 0 0))

let test_split_frontier () =
  let s tl tr =
    setting ~k:3 ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated ~tl ~tr
  in
  Alcotest.(check bool) "attack point impossible" false (Core.Solvability.solvable (s 1 3));
  Alcotest.(check bool) "tL=0 solvable" true (Core.Solvability.solvable (s 0 3));
  Alcotest.(check bool) "tR=k-1 solvable" true (Core.Solvability.solvable (s 1 2))

(* Our own protocol run inside its guarantees at the smallest instances
   near each frontier must keep satisfying bSM — the attacks only bite
   beyond the characterization. *)
let test_protocols_safe_inside_frontier () =
  let module SM = Bsm_stable_matching in
  let module H = Bsm_harness in
  let rng = Rng.make 3 in
  let cases =
    [
      setting ~k:3 ~topology:Topology.Fully_connected
        ~auth:Core.Setting.Unauthenticated ~tl:0 ~tr:1;
      setting ~k:3 ~topology:Topology.One_sided ~auth:Core.Setting.Unauthenticated
        ~tl:0 ~tr:1;
      setting ~k:3 ~topology:Topology.One_sided ~auth:Core.Setting.Authenticated ~tl:0
        ~tr:3;
    ]
  in
  List.iter
    (fun s ->
      let profile = SM.Profile.random rng 3 in
      let byzantine = H.Adversaries.random_coalition rng ~setting:s ~seed:9 ~profile in
      let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed:9 s profile) in
      if not (H.Scenario.ok report) then
        Alcotest.failf "inside-frontier violation at %s"
          (Format.asprintf "%a" Core.Setting.pp s))
    cases

(* --- Lemma 3 scaling -------------------------------------------------- *)

let run_small ~topology ~k ~favorites ~byzantine protocol =
  A.Evaluate.run ~topology ~k ~favorites ~byzantine protocol

let real_protocol ~k ~tl ~tr ~topology ~auth =
  A.Protocol_under_test.thresholded
    ~setting:(setting ~k ~topology ~auth ~tl ~tr)

let test_scaling_preserves_ssm_honest () =
  (* Shrink the real (correct, in-threshold) protocol from k=4 to k=2 and
     check sSM on honest runs with several favorite assignments. *)
  let big =
    real_protocol ~k:4 ~tl:1 ~tr:1 ~topology:Topology.Fully_connected
      ~auth:Core.Setting.Unauthenticated
  in
  let small = A.Scaling.shrink ~big_k:4 ~small_k:2 big in
  let favorite_assignments =
    [
      (fun p -> Party_id.make (Side.opposite (Party_id.side p)) 0);
      (fun p ->
        Party_id.make (Side.opposite (Party_id.side p)) (Party_id.index p));
      (fun p ->
        Party_id.make (Side.opposite (Party_id.side p)) (1 - Party_id.index p));
    ]
  in
  List.iter
    (fun favorites ->
      match
        run_small ~topology:Topology.Fully_connected ~k:2 ~favorites ~byzantine:[]
          small
      with
      | [] -> ()
      | vs ->
        Alcotest.failf "shrunken protocol violated sSM: %s"
          (String.concat "; "
             (List.map (Format.asprintf "%a" Core.Problem.pp_violation) vs)))
    favorite_assignments

let test_scaling_tolerates_scaled_budget () =
  (* Dolev-Strong pipeline at k=4 tolerates (4,4); shrunk to k=2 it must
     tolerate (2,2) — in particular one silent byzantine party per side. *)
  let big =
    real_protocol ~k:4 ~tl:4 ~tr:4 ~topology:Topology.Fully_connected
      ~auth:Core.Setting.Authenticated
  in
  Alcotest.(check int) "budget halves" 2 (A.Scaling.tolerated ~big_k:4 ~small_k:2 4);
  let small = A.Scaling.shrink ~big_k:4 ~small_k:2 big in
  let favorites p = Party_id.make (Side.opposite (Party_id.side p)) (Party_id.index p) in
  let byzantine =
    [
      Party_id.left 1, Bsm_broadcast.Strategies.silent;
      Party_id.right 0, Bsm_broadcast.Strategies.silent;
    ]
  in
  match
    run_small ~topology:Topology.Fully_connected ~k:2 ~favorites ~byzantine small
  with
  | [] -> ()
  | vs ->
    Alcotest.failf "shrunken protocol violated sSM under byzantine: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Core.Problem.pp_violation) vs))

let test_scaling_mutual_favorites_matched () =
  (* Small mutual favorites lift to representative mutual favorites, so
     the shrunken run must match them. *)
  let big =
    real_protocol ~k:6 ~tl:1 ~tr:1 ~topology:Topology.Fully_connected
      ~auth:Core.Setting.Unauthenticated
  in
  let small = A.Scaling.shrink ~big_k:6 ~small_k:3 big in
  let favorites p =
    Party_id.make (Side.opposite (Party_id.side p)) (Party_id.index p)
  in
  let module Engine = Bsm_runtime.Engine in
  let cfg =
    Engine.config ~k:3 ~link:(Engine.Of_topology Topology.Fully_connected)
      ~max_rounds:500 ()
  in
  let res =
    Engine.run cfg ~programs:(fun p ->
        small.A.Protocol_under_test.program ~topology:Topology.Fully_connected ~k:3
          ~favorite:(favorites p) ~self:p)
  in
  List.iter
    (fun (r : Engine.party_result) ->
      match r.Engine.out with
      | Some payload -> (
        match A.Protocol_under_test.decode_decision payload with
        | Some q ->
          Alcotest.(check bool)
            (Party_id.to_string r.Engine.id ^ " got its mutual favorite")
            true
            (Party_id.equal q (favorites r.Engine.id))
        | None -> Alcotest.failf "%s unmatched" (Party_id.to_string r.Engine.id))
      | None -> Alcotest.failf "%s no output" (Party_id.to_string r.Engine.id))
    res.Engine.parties

(* Output bytes that do not decode as a decision are no decision: every
   honest party that outputs them violates termination, as it does under
   [Scenario.run], rather than reading as "matched with nobody". *)
let test_undecodable_output_is_no_output () =
  let k = 2 in
  let garbage =
    {
      A.Protocol_under_test.name = "outputs undecodable bytes";
      rounds = 0;
      program =
        (fun ~topology:_ ~k:_ ~favorite:_ ~self:_ env ->
          env.Bsm_runtime.Engine.output "\xff\xff");
    }
  in
  let violations =
    A.Evaluate.run ~topology:Topology.Fully_connected ~k
      ~favorites:(A.Evaluate.random_favorites (Rng.make 1) ~k)
      ~byzantine:[] garbage
  in
  let silent =
    List.filter_map
      (function Core.Problem.Termination p -> Some p | _ -> None)
      violations
  in
  Alcotest.(check (list string))
    "a termination violation per honest party"
    (List.map Party_id.to_string (Party_id.all ~k))
    (List.map Party_id.to_string (List.sort Party_id.compare silent))

let () =
  Alcotest.run "attacks"
    [
      ( "constructions",
        [
          Alcotest.test_case "Fig 2: duplication defeats naive" `Quick
            test_duplication_breaks_naive;
          Alcotest.test_case "Fig 3: cycle defeats naive" `Quick test_cycle_breaks_naive;
          Alcotest.test_case "Fig 4: split-brain defeats naive" `Quick
            test_split_breaks_naive;
          Alcotest.test_case "constructions vs real protocol (no crash)" `Quick
            test_constructions_run_against_real_protocol;
        ] );
      ( "frontiers",
        [
          Alcotest.test_case "Lemma 5 frontier" `Quick test_duplication_frontier;
          Alcotest.test_case "Lemma 7 frontier" `Quick test_cycle_frontier;
          Alcotest.test_case "Lemma 13 frontier" `Quick test_split_frontier;
          Alcotest.test_case "protocols safe inside frontier" `Quick
            test_protocols_safe_inside_frontier;
        ] );
      ( "equivocation",
        [
          Alcotest.test_case "naive breaks, tolerant protocol survives" `Quick
            (fun () ->
              let k = 4 in
              let topology = Topology.Fully_connected in
              let naive_bad = ref 0 in
              for seed = 1 to 12 do
                let rng = Rng.make seed in
                let favorites = A.Evaluate.random_favorites rng ~k in
                let byzantine =
                  [
                    Party_id.left 3, A.Naive.equivocating_announcer ~topology ~k;
                    Party_id.right 2, A.Naive.equivocating_announcer ~topology ~k;
                  ]
                in
                if
                  A.Evaluate.run ~topology ~k ~favorites ~byzantine
                    A.Protocol_under_test.naive
                  <> []
                then incr naive_bad;
                let ours =
                  A.Protocol_under_test.thresholded
                    ~setting:
                      (setting ~k ~topology ~auth:Core.Setting.Unauthenticated ~tl:1
                         ~tr:1)
                in
                Alcotest.(check (list reject))
                  "tolerant protocol has no violations" []
                  (List.map (fun _ -> ()) (A.Evaluate.run ~topology ~k ~favorites ~byzantine ours))
              done;
              Alcotest.(check bool) "naive violated at least once" true (!naive_bad > 0));
          Alcotest.test_case "undecodable output is no output" `Quick
            test_undecodable_output_is_no_output;
        ] );
      ( "scaling",
        [
          Alcotest.test_case "Lemma 3: shrunken protocol keeps sSM" `Quick
            test_scaling_preserves_ssm_honest;
          Alcotest.test_case "Lemma 3: scaled byzantine budget" `Quick
            test_scaling_tolerates_scaled_budget;
          Alcotest.test_case "Lemma 3: mutual favorites lift" `Quick
            test_scaling_mutual_favorites_matched;
        ] );
    ]
