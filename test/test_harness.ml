(* Tests for the harness layer: each adversary behaves as documented,
   scenarios validate their inputs, and reports render faithfully. *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module H = Bsm_harness
module Engine = Bsm_runtime.Engine
module Topology = Bsm_topology.Topology

let setting ~k ~tl ~tr =
  Core.Setting.make_exn ~k ~topology:Topology.Fully_connected
    ~auth:Core.Setting.Authenticated ~t_left:tl ~t_right:tr

let run ~byzantine ~seed s profile =
  H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed s profile)

(* --- individual adversaries ---------------------------------------------- *)

let test_silent_party_still_matched_by_others () =
  (* A silent byzantine party contributes the default list; honest parties
     still compute a full matching (its "partner" slot is filled). *)
  let k = 3 in
  let s = setting ~k ~tl:1 ~tr:0 in
  let profile = SM.Profile.random (Rng.make 1) k in
  let report = run ~byzantine:[ Party_id.left 0, H.Adversaries.silent ] ~seed:1 s profile in
  Alcotest.(check bool) "ok" true (H.Scenario.ok report);
  (* every honest right party is matched with someone *)
  List.iter
    (fun (p, d) ->
      if Side.equal (Party_id.side p) Side.Right then
        match (d : Core.Problem.decision) with
        | Core.Problem.Matched _ -> ()
        | Core.Problem.Nobody | Core.Problem.No_output ->
          Alcotest.failf "%s unmatched" (Party_id.to_string p))
    report.H.Scenario.outcome.Core.Problem.decisions

let test_crash_adversary_partial_participation () =
  (* Crashing after the first round: the party's initial broadcast may be
     in flight but it stops responding; the run still satisfies bSM. *)
  let k = 3 in
  let s = setting ~k ~tl:0 ~tr:1 in
  let profile = SM.Profile.random (Rng.make 2) k in
  let crasher = Party_id.right 2 in
  let byzantine =
    [
      ( crasher,
        H.Adversaries.crash ~setting:s ~seed:9 ~input:(SM.Profile.prefs profile crasher)
          ~self:crasher ~round:1 );
    ]
  in
  let report = run ~byzantine ~seed:9 s profile in
  Alcotest.(check bool) "ok" true (H.Scenario.ok report)

let test_crash_round_zero_equals_silent () =
  (* crash ~round:0 must send nothing at all — same decisions as silent,
     given everything else equal. *)
  let k = 3 in
  let s = setting ~k ~tl:1 ~tr:0 in
  let profile = SM.Profile.random (Rng.make 3) k in
  let target = Party_id.left 1 in
  let with_strategy strategy =
    (run ~byzantine:[ target, strategy ] ~seed:4 s profile).H.Scenario.outcome
      .Core.Problem.decisions
  in
  let crashed =
    with_strategy
      (H.Adversaries.crash ~setting:s ~seed:4 ~input:(SM.Profile.prefs profile target)
         ~self:target ~round:0)
  in
  let silent = with_strategy H.Adversaries.silent in
  Alcotest.(check bool) "same decisions" true (crashed = silent)

let test_garble_after_keeps_early_rounds () =
  (* Garbling from a late round only: by then Dolev-Strong already
     delivered the list, so honest parties use the true preferences —
     outcome equals the fully-honest run. *)
  let k = 3 in
  let s = setting ~k ~tl:0 ~tr:1 in
  let profile = SM.Profile.random (Rng.make 5) k in
  let target = Party_id.right 0 in
  let byzantine =
    [
      ( target,
        H.Adversaries.garble_after ~setting:s ~seed:6
          ~input:(SM.Profile.prefs profile target) ~self:target ~from_round:50 );
    ]
  in
  let garbled = run ~byzantine ~seed:6 s profile in
  let honest = run ~byzantine:[] ~seed:6 s profile in
  Alcotest.(check bool) "ok" true (H.Scenario.ok garbled);
  let decisions_of (r : H.Scenario.report) =
    List.filter
      (fun (p, _) -> not (Party_id.equal p target))
      r.H.Scenario.outcome.Core.Problem.decisions
  in
  Alcotest.(check bool) "same matching as honest run" true
    (decisions_of garbled = decisions_of honest)

let test_random_coalition_respects_budget () =
  let k = 4 in
  let s = setting ~k ~tl:2 ~tr:3 in
  let rng = Rng.make 7 in
  let profile = SM.Profile.random rng k in
  for _ = 1 to 10 do
    let coalition = H.Adversaries.random_coalition rng ~setting:s ~seed:1 ~profile in
    let members = Party_set.of_list (List.map fst coalition) in
    Alcotest.(check int) "exactly tL lefts" 2 (Party_set.count_side Side.Left members);
    Alcotest.(check int) "exactly tR rights" 3 (Party_set.count_side Side.Right members);
    Alcotest.(check int) "no duplicates" 5 (Party_set.cardinal members)
  done

(* --- pinned per-run counts ------------------------------------------------- *)

(* The five feasibility mechanisms, each in the setting whose plan selects
   it (the same settings the proto-mix benchmark cycles through), at
   k in {4, 6, 8} with the majority proxy at k <= 6, honest and under a
   random maximal coalition. Every engine count and every honest decision
   is pinned to a literal: a change that alters what any party sends —
   honest or byzantine, through any send function — fails here, not only
   in a run-vs-run comparison. *)
let mechanism_setting name ~k =
  let third = (k - 1) / 3 and half = (k - 1) / 2 in
  let make topology auth ~tl ~tr =
    Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr
  in
  match name with
  | `Phase_king ->
    make Topology.Fully_connected Core.Setting.Unauthenticated ~tl:third ~tr:k
  | `Dolev_strong -> make Topology.Fully_connected Core.Setting.Authenticated ~tl:k ~tr:k
  | `Pi_bsm -> make Topology.Bipartite Core.Setting.Authenticated ~tl:third ~tr:k
  | `Majority_proxy ->
    make Topology.One_sided Core.Setting.Unauthenticated ~tl:0 ~tr:half
  | `Signature_proxy ->
    make Topology.One_sided Core.Setting.Authenticated ~tl:third ~tr:(k - 1)

(* One character per roster party, L0..Lk-1 then R0..Rk-1: the partner's
   index, '-' for "nobody", '?' for no output, 'x' for a byzantine party
   (which has no decision). *)
let decisions_string ~k (o : Core.Problem.outcome) =
  String.concat ""
    (List.map
       (fun p ->
         match List.assoc_opt p o.Core.Problem.decisions with
         | None -> "x"
         | Some Core.Problem.No_output -> "?"
         | Some Core.Problem.Nobody -> "-"
         | Some (Core.Problem.Matched q) -> string_of_int (Party_id.index q))
       (Party_id.all ~k))

(* A fault model that drops and corrupts nothing: its [corrupt] hook
   absorbs the round, source, destination and bytes of every delivered
   frame into a buffer and returns [None]. The row's frame digest is the
   MD5 of that buffer, so it pins what every frame contains, not only how
   many frames and bytes there are. *)
let frame_recorder () =
  let frames = Buffer.create 4096 in
  let corrupt ~round ~src ~dst ~prev:_ bytes =
    Printf.bprintf frames "%d %s %s %d:" round (Party_id.to_string src)
      (Party_id.to_string dst) (String.length bytes);
    Buffer.add_string frames bytes;
    None
  in
  Engine.fault_model ~corrupt (fun ~round:_ ~src:_ ~dst:_ -> false), frames

(* (k, adversary, (rounds_used, messages_sent, messages_delivered,
   bytes_delivered, decisions, frame digest)). Seeds are a function of
   (k, mechanism index), so the rows are reproducible from this table
   alone. *)
let check_pinned ~index name rows () =
  List.iter
    (fun (k, adversary, expected) ->
      let seed = (100 * k) + (10 * index) in
      let case =
        H.Sweep.case ~profile_seed:(seed + 1) ~scenario_seed:(seed + 2) ~adversary
          (mechanism_setting name ~k)
      in
      let faults, frames = frame_recorder () in
      let r = H.Scenario.run ~faults (H.Sweep.scenario_of_case case) in
      let m = r.H.Scenario.metrics in
      let label =
        Printf.sprintf "k=%d %s" k
          (match adversary with
          | H.Sweep.Honest -> "honest"
          | H.Sweep.Random_coalition | H.Sweep.Scripted _ -> "coalition")
      in
      let digest = String.sub (Digest.to_hex (Digest.string (Buffer.contents frames))) 0 16 in
      Alcotest.(check (pair (pair int int) (pair (pair int int) (pair string string))))
        label expected
        ( (m.Engine.rounds_used, m.Engine.messages_sent),
          ( (m.Engine.messages_delivered, m.Engine.bytes_delivered),
            (decisions_string ~k r.H.Scenario.outcome, digest) ) ))
    rows

let pin (rounds, sent, delivered, bytes, decisions, frames) =
  (rounds, sent), ((delivered, bytes), (decisions, frames))

let honest = H.Sweep.Honest
let coalition = H.Sweep.Random_coalition

let pinned_phase_king =
  [
    4, honest, pin (8, 2408, 2408, 31304, "21032103", "317e0409bf652232");
    4, coalition, pin (60, 2262, 2262, 37987, "2x13xxxx", "3a7b8eef74f1a8c9");
    6, honest, pin (8, 8316, 8316, 124740, "420513241503", "8c84548913fb013a");
    6, coalition, pin (60, 7285, 7285, 117783, "x20543xxxxxx", "9b574980108a0779");
    8, honest, pin (11, 27840, 27840, 473280, "2563471076034125", "a1b66310c783573d");
    8, coalition, pin (60, 22418, 22418, 402264, "27530xx1xxxxxxxx", "da9119799112b6a6");
  ]

let pinned_dolev_strong =
  [
    4, honest, pin (9, 448, 448, 21784, "13022031", "5917f89383f5e578");
    4, coalition, pin (60, 1375, 1375, 45538, "xxxxxxxx", "643a98244c285da9");
    6, honest, pin (13, 1584, 1584, 81444, "250341250341", "f1677edca4443dbf");
    6, coalition, pin (60, 1345, 1345, 60013, "xxxxxxxxxxxx", "e2e09ccc4e584f60");
    8, honest, pin (17, 3840, 3840, 206640, "7615032442657310", "e998205fde48f2d5");
    8, coalition, pin (60, 2102, 2102, 81909, "xxxxxxxxxxxxxxxx", "dd01c09c471ab07f");
  ]

let pinned_pi_bsm =
  [
    4, honest, pin (18, 4352, 4352, 173280, "20131203", "c98aaaa11cd403ec");
    4, coalition, pin (60, 3379, 2807, 106968, "10x3xxxx", "0377bed5b60d1002");
    6, honest, pin (18, 23472, 23472, 997452, "042531052413", "bfb99b0b08123ae1");
    6, coalition, pin (60, 19064, 18661, 788033, "42x531xxxxxx", "292909cb9db13629");
    8, honest, pin (24, 106752, 106752, 4782656, "5036147214725036", "42a17c77a5c39a0c");
    8, coalition, pin (60, 69669, 69458, 3108172, "56x314x2xxxxxxxx", "4202f3c751e8befc");
  ]

let pinned_majority_proxy =
  [
    4, honest, pin (10, 3724, 3724, 66556, "23103201", "b7f6584b121c7bea");
    4, coalition, pin (10, 3724, 3724, 66556, "2310x201", "b7f6584b121c7bea");
    6, honest, pin (10, 17886, 17886, 371394, "321504421053", "bddb3ec165ce1aed");
    6, coalition, pin (10, 17886, 17886, 371394, "3215044x10x3", "55157910a6c1e596");
  ]

let pinned_signature_proxy =
  [
    4, honest, pin (10, 1120, 1120, 72892, "21303102", "d17f37ca36b151b0");
    4, coalition, pin (10, 1120, 1120, 72892, "2x303xxx", "207ab89b61a41224");
    6, honest, pin (14, 5544, 5544, 388734, "125430501432", "120bea89dfd0077d");
    6, coalition, pin (60, 3371, 3159, 209955, "1x4352xx5xxx", "bf73d96cf6426947");
    8, honest, pin (20, 17280, 17280, 1273944, "5437602157621043", "0cb4ba69403d6781");
    8, coalition, pin (60, 10591, 10394, 714324, "2x3x5641xxx2xxxx", "b7cea9b994625877");
  ]

(* --- report rendering ------------------------------------------------------ *)

let test_report_rendering () =
  let k = 2 in
  let s = setting ~k ~tl:0 ~tr:0 in
  let profile = SM.Profile.worst_case k in
  let report = run ~byzantine:[] ~seed:1 s profile in
  let text = Format.asprintf "%a" H.Scenario.pp_report report in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions plan" true (contains "Dolev-Strong");
  Alcotest.(check bool) "mentions success" true (contains "no violations");
  Alcotest.(check bool) "lists a decision" true (contains "L0:")

let test_violations_render () =
  (* Fabricate an outcome with every violation type and check the
     pretty-printers name them. *)
  let profile = SM.Profile.worst_case 2 in
  let outcome =
    {
      Core.Problem.profile;
      byzantine = Party_set.empty;
      decisions =
        [
          Party_id.left 0, Core.Problem.No_output;
          Party_id.left 1, Core.Problem.Matched (Party_id.right 0);
          Party_id.right 0, Core.Problem.Matched (Party_id.left 0);
          Party_id.right 1, Core.Problem.Nobody;
        ];
    }
  in
  let violations = Core.Problem.check outcome in
  Alcotest.(check bool) "several violations" true (List.length violations >= 2);
  List.iter
    (fun v ->
      let text = Format.asprintf "%a" Core.Problem.pp_violation v in
      Alcotest.(check bool) "non-empty rendering" true (String.length text > 0))
    violations

let () =
  Alcotest.run "harness"
    [
      ( "adversaries",
        [
          Alcotest.test_case "silent party still matched" `Quick
            test_silent_party_still_matched_by_others;
          Alcotest.test_case "crash mid-protocol" `Quick
            test_crash_adversary_partial_participation;
          Alcotest.test_case "crash at round 0 = silent" `Quick
            test_crash_round_zero_equals_silent;
          Alcotest.test_case "late garble is harmless" `Quick
            test_garble_after_keeps_early_rounds;
          Alcotest.test_case "random coalition budget" `Quick
            test_random_coalition_respects_budget;
        ] );
      ( "pinned counts",
        [
          Alcotest.test_case "phase king" `Quick
            (check_pinned ~index:0 `Phase_king pinned_phase_king);
          Alcotest.test_case "Dolev-Strong" `Quick
            (check_pinned ~index:1 `Dolev_strong pinned_dolev_strong);
          Alcotest.test_case "Pi_bSM" `Quick (check_pinned ~index:2 `Pi_bsm pinned_pi_bsm);
          Alcotest.test_case "majority proxy" `Quick
            (check_pinned ~index:3 `Majority_proxy pinned_majority_proxy);
          Alcotest.test_case "signature proxy" `Quick
            (check_pinned ~index:4 `Signature_proxy pinned_signature_proxy);
        ] );
      ( "reports",
        [
          Alcotest.test_case "report rendering" `Quick test_report_rendering;
          Alcotest.test_case "violations render" `Quick test_violations_render;
        ] );
    ]
