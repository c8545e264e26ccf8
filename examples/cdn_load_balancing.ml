(* CDN global load balancing (Maggs & Sitaraman, SIGCOMM CCR 2015).

   The paper's introduction motivates byzantine stable matching with
   content delivery networks: client groups ("map units") are matched to
   server clusters by a stable-matching mechanism, and the original
   deployment mitigates failures with leader election — a single point of
   failure if the leader misbehaves. Here the same assignment is computed
   with no leader at all, tolerating byzantine server clusters.

   Left side: map units, preferring clusters by network latency.
   Right side: server clusters, preferring map units by traffic value
   (revenue), each with limited appetite for far-away traffic.

   One cluster is compromised and equivocates; one crashes mid-protocol.
   The run still produces a stable assignment for all honest participants.

   Run with: dune exec examples/cdn_load_balancing.exe *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module H = Bsm_harness
module Topology = Bsm_topology.Topology

(* Synthetic geography: positions on a line; latency = distance. *)
let k = 8

let map_unit_pos i = float_of_int (i * 13 mod 17)
let cluster_pos j = float_of_int (j * 7 mod 17)
let traffic_value i = float_of_int ((i * 31) mod 23)

let rank_by score candidates =
  List.sort (fun a b -> compare (score a) (score b)) candidates
  |> List.map (fun c -> c)

let profile =
  let left =
    Array.init k (fun i ->
        (* map unit i prefers low-latency clusters *)
        let ranked =
          rank_by (fun j -> abs_float (map_unit_pos i -. cluster_pos j)) (List.init k Fun.id)
        in
        SM.Prefs.of_list_exn ranked)
  in
  let right =
    Array.init k (fun j ->
        (* cluster j prefers high-value traffic, latency as tiebreak *)
        let ranked =
          rank_by
            (fun i ->
              (-.traffic_value i, abs_float (map_unit_pos i -. cluster_pos j)))
            (List.init k Fun.id)
        in
        SM.Prefs.of_list_exn ranked)
  in
  SM.Profile.make_exn ~left ~right

let () =
  (* Clusters talk to each other over the backbone; map units (resolvers)
     talk only to clusters: the paper's one-sided topology. *)
  let setting =
    Core.Setting.make_exn ~k ~topology:Topology.One_sided
      ~auth:Core.Setting.Authenticated ~t_left:0 ~t_right:2
  in
  Printf.printf "CDN load balancing: %d map units, %d clusters (%s)\n\n" k k
    (Format.asprintf "%a" Core.Setting.pp setting);

  let seed = 99 in
  let compromised = Party_id.right 3 in
  let crashing = Party_id.right 6 in
  let byzantine =
    [
      (* the compromised cluster lies about its preferences, trying to
         grab high-value traffic it doesn't deserve *)
      ( compromised,
        H.Adversaries.honest ~setting ~seed
          ~input:(SM.Prefs.of_list_exn (List.init k (fun i -> (i + 5) mod k)))
          ~self:compromised );
      (* another cluster fails mid-protocol *)
      ( crashing,
        H.Adversaries.crash_at ~round:4
          (H.Adversaries.honest ~setting ~seed
             ~input:(SM.Profile.prefs profile crashing)
             ~self:crashing) );
    ]
  in
  let report = H.Scenario.run (H.Scenario.make_exn ~byzantine ~seed setting profile) in

  Printf.printf "Protocol: %s\n\n" report.H.Scenario.plan.Core.Select.describe;
  print_endline "Assignment (map unit -> cluster, with latency):";
  List.iter
    (fun (p, d) ->
      if Side.equal (Party_id.side p) Side.Left then
        match (d : Core.Problem.decision) with
        | Core.Problem.Matched q ->
          let latency =
            abs_float (map_unit_pos (Party_id.index p) -. cluster_pos (Party_id.index q))
          in
          Printf.printf "  unit%-2d -> cluster%-2d  latency %.0f%s\n" (Party_id.index p)
            (Party_id.index q) latency
            (if Party_id.equal q compromised || Party_id.equal q crashing then
               "  (byzantine cluster)"
             else "")
        | Core.Problem.Nobody ->
          Printf.printf "  unit%-2d -> unassigned\n" (Party_id.index p)
        | Core.Problem.No_output ->
          Printf.printf "  unit%-2d -> NO OUTPUT\n" (Party_id.index p))
    report.H.Scenario.outcome.Core.Problem.decisions;

  print_newline ();
  (match report.H.Scenario.violations with
  | [] -> print_endline "Stable despite 2 byzantine clusters, no leader involved."
  | vs ->
    Printf.printf "violations: %d\n" (List.length vs);
    exit 1);
  Printf.printf "Cost: %d rounds, %d messages, %d bytes.\n"
    report.H.Scenario.metrics.Bsm_runtime.Engine.rounds_used
    report.H.Scenario.metrics.Bsm_runtime.Engine.messages_sent
    report.H.Scenario.metrics.Bsm_runtime.Engine.bytes_delivered
