(* Execution-trace walkthrough of Π_bSM.

   Runs the paper's Section 5.2 protocol on the smallest interesting
   instance (k = 2, bipartite, authenticated, the whole right side
   byzantine-silent) with engine tracing enabled, and prints an annotated
   round-by-round account: preference dissemination, the signed relay
   traffic of Lemma 10 (requests fanned out to R, forwards back to L — all
   omitted here, since R is silent), and the final suggestion round.

   Run with: dune exec examples/trace_demo.exe *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module Engine = Bsm_runtime.Engine
module Crypto = Bsm_crypto.Crypto
module Topology = Bsm_topology.Topology

let () =
  let k = 2 in
  let setting =
    Core.Setting.make_exn ~k ~topology:Topology.Bipartite
      ~auth:Core.Setting.Authenticated ~t_left:0 ~t_right:k
  in
  let rng = Rng.make 1 in
  let profile = SM.Profile.random rng k in
  let pki = Crypto.Pki.setup ~k ~seed:1 in
  let programs p =
    if Side.equal (Party_id.side p) Side.Right then Bsm_broadcast.Strategies.silent
    else
      Core.Pi_bsm.program setting ~pki ~computing_side:Side.Left
        ~input:(SM.Profile.prefs profile p) ~self:p
  in
  let cfg =
    Engine.config ~k ~trace_limit:10_000
      ~link:(Engine.Of_topology Topology.Bipartite) ()
  in
  let res = Engine.run cfg ~programs:(fun p -> programs p) in

  Printf.printf "Pi_bSM, k = %d, all of R byzantine-silent — %d engine rounds\n\n" k
    res.Engine.metrics.rounds_used;

  (* Group trace events by round and summarize. *)
  let by_round =
    Util.group_by ~key:(fun e -> e.Engine.event_round) res.Engine.trace
  in
  let describe round =
    if round = 0 then "L waits; honest R would send preference lists here"
    else if round = 1 then "session starts: BB/BA relay requests fan out to R"
    else if round = res.Engine.metrics.rounds_used - 1 then
      "deadline: L decided; suggestions would go to R here"
    else "relay cadence: requests out (odd), forwards back (even) — R silent, so \
          every virtual message is omitted"
  in
  List.iter
    (fun (round, events) ->
      let delivered =
        List.length (List.filter (fun e -> e.Engine.event_fate = `Delivered) events)
      in
      let bytes = List.fold_left (fun a e -> a + e.Engine.event_bytes) 0 events in
      Printf.printf "round %2d: %3d messages (%5d bytes, %d delivered)  %s\n" round
        (List.length events) bytes delivered (describe round))
    by_round;

  print_newline ();
  print_endline "Outputs:";
  List.iter
    (fun (r : Engine.party_result) ->
      if Side.equal (Party_id.side r.id) Side.Left then
        match r.out with
        | Some payload -> (
          match Bsm_wire.Wire.decode_exn Core.Problem.decision_codec payload with
          | Some q ->
            Printf.printf "  %s -> %s\n" (Party_id.to_string r.id) (Party_id.to_string q)
          | None -> Printf.printf "  %s -> nobody (weak agreement: safe abstention)\n"
                      (Party_id.to_string r.id))
        | None -> Printf.printf "  %s -> no output\n" (Party_id.to_string r.id))
    res.parties;
  print_newline ();
  print_endline
    "With every forwarder byzantine, the Lemma 10 channels degrade to pure \
     omissions; Pi_BA/Pi_BB fall back to weak agreement, and the honest side \
     abstains rather than risk inconsistent matchings (Lemma 11)."
