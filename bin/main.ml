(* bsm — command-line interface to the byzantine stable matching library.

   Subcommands:
     solvable    decide one setting (Theorems 2-7) and show the protocol plan
     matrix      the full solvability matrix for a given k (Table T1)
     run         execute a scenario with a random byzantine coalition
                 (optionally under a fault schedule: --drop-rate, --crash)
     chaos       the chaos grid: fault schedules vs the bSM oracle
                 (--shrink minimizes a violation; --inject-violation plants
                 one to exercise the shrinker end-to-end)
     replay      re-execute a repro file bit-identically and check it
     fuzz        deterministic decoder fuzzing over every registered codec
     ssm         execute a simplified-stable-matching scenario
     attack      run an impossibility construction (Figures 2-4)
     topology    render the three communication models (Figure 1)
     complexity  round/message/byte costs per setting as k grows
     serve       the matchmaking daemon: a Unix-domain-socket listener over
                 the persistent domain pool
     load        open-loop load bench for the serve layer (BENCH_serve.json;
                 --chaos for fault schedules against live traffic)  *)

open Bsm_prelude
module SM = Bsm_stable_matching
module Core = Bsm_core
module H = Bsm_harness
module A = Bsm_attacks
module Chaos = Bsm_chaos
module Topology = Bsm_topology.Topology
open Cmdliner

(* --- shared argument parsers --------------------------------------------- *)

let topology_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "full" | "fully-connected" | "fc" -> Ok Topology.Fully_connected
    | "one-sided" | "onesided" | "os" -> Ok Topology.One_sided
    | "bipartite" | "bp" -> Ok Topology.Bipartite
    | _ -> Error (`Msg "expected full | one-sided | bipartite")
  in
  Arg.conv (parse, Topology.pp)

let auth_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "auth" | "authenticated" | "signatures" -> Ok Core.Setting.Authenticated
    | "unauth" | "unauthenticated" | "none" -> Ok Core.Setting.Unauthenticated
    | _ -> Error (`Msg "expected auth | unauth")
  in
  let print ppf a = Format.pp_print_string ppf (Core.Setting.auth_to_string a) in
  Arg.conv (parse, print)

(* An integer flag with a lower bound: a smaller value is a usage error
   naming the flag (exit 124), not an exception deep in the run. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "expected an integer >= %d, got %S" lo s))
  in
  Arg.conv (parse, Format.pp_print_int)

let k_arg = Arg.(value & opt (int_at_least 1) 4 & info [ "k" ] ~doc:"Parties per side.")

let topology_arg =
  Arg.(
    value
    & opt topology_conv Topology.Fully_connected
    & info [ "t"; "topology" ] ~doc:"Topology: full | one-sided | bipartite.")

let auth_arg =
  Arg.(
    value
    & opt auth_conv Core.Setting.Unauthenticated
    & info [ "a"; "auth" ] ~doc:"Cryptographic setup: auth | unauth.")

let tl_arg = Arg.(value & opt int 0 & info [ "tl" ] ~doc:"Corruption budget in L.")
let tr_arg = Arg.(value & opt int 0 & info [ "tr" ] ~doc:"Corruption budget in R.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.")

let setting_of k topology auth tl tr =
  match Core.Setting.make ~k ~topology ~auth ~t_left:tl ~t_right:tr with
  | Ok s -> s
  | Error msg ->
    Printf.eprintf "invalid setting: %s\n" msg;
    exit 2

(* --- solvable -------------------------------------------------------------- *)

let solvable_cmd =
  let run k topology auth tl tr =
    let s = setting_of k topology auth tl tr in
    let verdict = Core.Solvability.decide s in
    Format.printf "%a@.%a@." Core.Setting.pp s Core.Solvability.pp_verdict verdict;
    match Core.Select.plan s with
    | Ok plan -> Format.printf "plan: %s (%d rounds)@." plan.Core.Select.describe
                   plan.Core.Select.engine_rounds
    | Error _ -> Format.printf "plan: none (impossible setting)@."
  in
  Cmd.v
    (Cmd.info "solvable" ~doc:"Decide solvability of one setting (Theorems 2-7).")
    Term.(const run $ k_arg $ topology_arg $ auth_arg $ tl_arg $ tr_arg)

(* --- matrix ----------------------------------------------------------------- *)

let matrix_cmd =
  let run k =
    let table =
      Table.make
        ~title:(Printf.sprintf "T1: solvability matrix, k = %d" k)
        ~header:[ "topology"; "auth"; "solvable iff"; "frontier examples" ]
    in
    let frontier s_of =
      (* first impossible (tl, tr) in lexicographic scan, plus a maximal
         solvable pair *)
      let points =
        List.concat_map
          (fun tl -> List.map (fun tr -> tl, tr) (Util.range 0 (k + 1)))
          (Util.range 0 (k + 1))
      in
      let solvable (tl, tr) = Core.Solvability.solvable (s_of tl tr) in
      let impossible = List.filter (fun p -> not (solvable p)) points in
      let max_solvable =
        List.fold_left
          (fun acc ((tl, tr) as p) ->
            match acc with
            | Some (tl', tr') when tl' + tr' >= tl + tr -> acc
            | _ when solvable p -> Some (tl, tr)
            | _ -> acc)
          None points
      in
      let show = function
        | Some (tl, tr) -> Printf.sprintf "(%d,%d)" tl tr
        | None -> "-"
      in
      Printf.sprintf "max ok %s, first bad %s" (show max_solvable)
        (show (List.nth_opt impossible 0))
    in
    List.iter
      (fun topology ->
        List.iter
          (fun auth ->
            let s_of tl tr =
              Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr
            in
            let condition =
              (Core.Solvability.decide (s_of 0 0)).Core.Solvability.theorem
            in
            Table.add_row table
              [
                Topology.to_string topology;
                Core.Setting.auth_to_string auth;
                condition;
                frontier s_of;
              ])
          [ Core.Setting.Unauthenticated; Core.Setting.Authenticated ])
      Topology.all;
    Table.print table
  in
  Cmd.v
    (Cmd.info "matrix" ~doc:"Print the solvability matrix (the paper's headline table).")
    Term.(const run $ k_arg)

(* --- run --------------------------------------------------------------------- *)

(* "L0@3" -> (L0, 3): crash party L0 from round 3 on. *)
let crash_conv =
  let parse s =
    match String.index_opt s '@' with
    | None -> Error (`Msg "expected PARTY@ROUND, e.g. L0@3")
    | Some i -> (
      let party = String.sub s 0 i in
      let round = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt round with
      | None -> Error (`Msg (Printf.sprintf "bad round %S" round))
      | Some r when r < 0 -> Error (`Msg "negative crash round")
      | Some r -> (
        try Ok (Party_id.of_string party, r)
        with Invalid_argument m -> Error (`Msg m)))
  in
  let print ppf (p, r) = Format.fprintf ppf "%a@@%d" Party_id.pp p r in
  Arg.conv (parse, print)

let run_cmd =
  let run (k, drop_rate, crashes) topology auth tl tr seed verbose =
    let s = setting_of k topology auth tl tr in
    let rng = Rng.make seed in
    let profile = SM.Profile.random rng k in
    let byzantine = H.Adversaries.random_coalition rng ~setting:s ~seed ~profile in
    Format.printf "%a — %d byzantine parties: %s@." Core.Setting.pp s
      (List.length byzantine)
      (String.concat ", " (List.map (fun (p, _) -> Party_id.to_string p) byzantine));
    let schedule =
      Chaos.Schedule.all
        (Chaos.Schedule.bernoulli ~rate:drop_rate
        :: List.map
             (fun (p, at_round) -> Chaos.Schedule.crash p ~at_round)
             crashes)
    in
    let faults =
      if Chaos.Schedule.is_empty schedule then None
      else begin
        Format.printf "fault schedule: %a (chaos seed = run seed)@."
          Chaos.Schedule.pp schedule;
        Some (Chaos.Schedule.compile ~seed schedule)
      end
    in
    let report =
      H.Scenario.run ?faults (H.Scenario.make_exn ~byzantine ~seed s profile)
    in
    if verbose then Format.printf "%a@." H.Scenario.pp_report report
    else begin
      Format.printf "plan: %s@." report.H.Scenario.plan.Core.Select.describe;
      List.iter
        (fun (p, d) ->
          match (d : Core.Problem.decision) with
          | Core.Problem.Matched q ->
            Format.printf "  %a -> %a@." Party_id.pp p Party_id.pp q
          | Core.Problem.Nobody -> Format.printf "  %a -> nobody@." Party_id.pp p
          | Core.Problem.No_output -> Format.printf "  %a -> NO OUTPUT@." Party_id.pp p)
        report.H.Scenario.outcome.Core.Problem.decisions
    end;
    let m = report.H.Scenario.metrics in
    Format.printf "cost: %d rounds, %d messages, %d bytes sent@."
      m.Bsm_runtime.Engine.rounds_used m.Bsm_runtime.Engine.messages_sent
      m.Bsm_runtime.Engine.bytes_sent;
    Format.printf
      "message fates: %d delivered (%d bytes, %d corrupted in flight), %d \
       dropped by topology, %d dropped by faults@."
      m.Bsm_runtime.Engine.messages_delivered
      m.Bsm_runtime.Engine.bytes_delivered
      m.Bsm_runtime.Engine.messages_corrupted
      m.Bsm_runtime.Engine.messages_dropped_topology
      m.Bsm_runtime.Engine.messages_dropped_fault;
    List.iter
      (fun (label, n) -> Format.printf "  %s: %d@." label n)
      m.Bsm_runtime.Engine.messages_dropped_by_label;
    match report.H.Scenario.violations with
    | [] -> Format.printf "result: bSM achieved@."
    | vs ->
      Format.printf "result: %d VIOLATIONS@." (List.length vs);
      List.iter (fun v -> Format.printf "  %a@." Core.Problem.pp_violation v) vs;
      exit 1
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full report.")
  in
  let drop_rate =
    Arg.(
      value & opt float 0.
      & info [ "drop-rate" ]
          ~doc:
            "Drop every message independently with this probability (seeded by \
             --seed; deterministic).")
  in
  let crashes =
    Arg.(
      value
      & opt_all crash_conv []
      & info [ "crash" ] ~docv:"PARTY@ROUND"
          ~doc:
            "Crash $(docv) (e.g. L0@3): all its sends are dropped from that \
             round on. Repeatable.")
  in
  (* A fault the run cannot apply is a usage error naming its flag: a
     rate outside [0, 1], or a crash of a party outside the roster (which
     would crash nobody). *)
  let k_and_faults =
    let check k drop_rate crashes =
      if not (drop_rate >= 0. && drop_rate <= 1.) then
        `Error (true, Printf.sprintf "option '--drop-rate': %g is not in [0, 1]" drop_rate)
      else
        match List.find_opt (fun (p, _) -> Party_id.index p >= k) crashes with
        | Some (p, _) ->
          `Error
            ( true,
              Printf.sprintf "option '--crash': %s is not a party at k = %d"
                (Party_id.to_string p) k )
        | None -> `Ok (k, drop_rate, crashes)
    in
    Term.(ret (const check $ k_arg $ drop_rate $ crashes))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run one bSM execution with a random byzantine coalition at full budget.")
    Term.(
      const run $ k_and_faults $ topology_arg $ auth_arg $ tl_arg $ tr_arg $ seed_arg
      $ verbose)

(* --- chaos ------------------------------------------------------------------- *)

(* The planted violation for --inject-violation: sabotage silences L0
   without charging it (crash-like omission the oracle doesn't pay for),
   buried under decoy components that all fire but stay admissible — a
   send-omission and a bit-flip corruption on R0, and an R0/R1 partition.
   The shrinker's job is to strip the decoys and hand back (essentially)
   the sabotage alone. *)
let injected_label = "injected-sabotage"

let injected_cell () =
  let s =
    Core.Setting.make_exn ~k:2 ~topology:Topology.Fully_connected
      ~auth:Core.Setting.Unauthenticated ~t_left:0 ~t_right:2
  in
  let case = H.Sweep.case ~label:injected_label ~profile_seed:202 s in
  let l0 = Party_id.make Side.Left 0
  and r0 = Party_id.make Side.Right 0
  and r1 = Party_id.make Side.Right 1 in
  let schedule =
    Chaos.Schedule.all
      [
        Chaos.Schedule.sabotage l0 ~at_round:0;
        Chaos.Schedule.send_omission ~rate:0.25 r0;
        Chaos.Schedule.corrupt ~rate:0.3 ~kind:Chaos.Mutation.Bit_flip r0;
        Chaos.Schedule.partition ~from_round:0 ~until_round:6 [ r0 ] [ r1 ];
      ]
  in
  Chaos.Chaos_sweep.cell ~schedule case

let shrink_violation ~repro_path (o : Chaos.Chaos_sweep.outcome) =
  let cell = o.Chaos.Chaos_sweep.cell in
  let case = cell.Chaos.Chaos_sweep.case in
  let schedule = cell.Chaos.Chaos_sweep.schedule in
  let seed = cell.Chaos.Chaos_sweep.chaos_seed in
  let n_before = List.length (Chaos.Schedule.components schedule) in
  Format.printf "@.shrinking the %s violation (%d components, chaos seed %d)@."
    case.H.Sweep.label n_before seed;
  match Chaos.Shrink.minimize ~seed ~schedule case with
  | Error msg ->
    Printf.eprintf "shrink: %s\n" msg;
    exit 1
  | Ok out ->
    List.iter (fun line -> Format.printf "  %s@." line) out.Chaos.Shrink.trail;
    let n_after = List.length (Chaos.Schedule.components out.Chaos.Shrink.shrunk) in
    Format.printf "shrunk %d -> %d component(s) in %d oracle run(s): %s@."
      n_before n_after out.Chaos.Shrink.attempts
      (Chaos.Schedule.describe out.Chaos.Shrink.shrunk);
    Chaos.Repro.to_file repro_path
      (Chaos.Repro.make ~case ~schedule:out.Chaos.Shrink.shrunk ~seed
         out.Chaos.Shrink.report);
    Format.printf "repro written to %s (re-execute with: bsm replay %s)@." repro_path
      repro_path;
    if n_after >= n_before && n_before > 1 then begin
      Printf.eprintf "shrink: failed to reduce the schedule\n";
      exit 1
    end

let chaos_cmd =
  let run full jobs shrink inject repro_path =
    let cells =
      if full then Chaos.Chaos_sweep.full_grid ()
      else Chaos.Chaos_sweep.quick_grid ()
    in
    let cells = if inject then cells @ [ injected_cell () ] else cells in
    let outcomes =
      Bsm_runtime.Pool.with_pool ?jobs (fun pool ->
          Chaos.Chaos_sweep.run_cells ~pool cells)
    in
    let table =
      Table.make
        ~title:
          (Printf.sprintf
             "chaos grid (%s): fault schedules vs the bSM oracle"
             (if full then "full, k=2,4" else "quick, k=2"))
        ~header:[ "case"; "schedule"; "seed"; "charged"; "verdict" ]
    in
    List.iter
      (fun (o : Chaos.Chaos_sweep.outcome) ->
        let c = o.Chaos.Chaos_sweep.cell in
        let r = o.Chaos.Chaos_sweep.oracle in
        Table.add_row table
          [
            c.Chaos.Chaos_sweep.case.H.Sweep.label;
            Chaos.Schedule.describe c.Chaos.Chaos_sweep.schedule;
            string_of_int c.Chaos.Chaos_sweep.chaos_seed;
            Format.asprintf "%a" Party_set.pp r.Chaos.Oracle.charged;
            Chaos.Oracle.verdict_to_string r.Chaos.Oracle.verdict;
          ])
      outcomes;
    Table.print table;
    let s = Chaos.Chaos_sweep.summarize outcomes in
    Format.printf "%a@." Chaos.Chaos_sweep.pp_summary s;
    let violating =
      List.filter
        (fun (o : Chaos.Chaos_sweep.outcome) ->
          o.Chaos.Chaos_sweep.oracle.Chaos.Oracle.verdict = Chaos.Oracle.Violation)
        outcomes
    in
    if shrink then begin
      match violating with
      | [] -> Format.printf "shrink: no violation in the grid, nothing to do@."
      | o :: _ -> shrink_violation ~repro_path o
    end;
    if inject
       && not
            (List.exists
               (fun (o : Chaos.Chaos_sweep.outcome) ->
                 o.Chaos.Chaos_sweep.cell.Chaos.Chaos_sweep.case.H.Sweep.label
                 = injected_label)
               violating)
    then begin
      Printf.eprintf "--inject-violation: the planted sabotage did not violate\n";
      exit 1
    end;
    (* Planted violations are the expected outcome of --inject-violation;
       only unexpected ones fail the run. *)
    let unexpected =
      List.filter
        (fun (o : Chaos.Chaos_sweep.outcome) ->
          o.Chaos.Chaos_sweep.cell.Chaos.Chaos_sweep.case.H.Sweep.label
          <> injected_label)
        violating
    in
    if unexpected <> [] then exit 1
  in
  let full =
    Arg.(
      value & flag
      & info [ "full" ] ~doc:"Run the full grid (k = 2 and 4, three chaos seeds).")
  in
  let jobs =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "j"; "jobs" ]
          ~doc:"Domains for the sweep (default: the recommended domain count).")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:
            "Delta-debug the first within-budget violation down to a minimal \
             schedule and write a replayable repro file.")
  in
  let inject =
    Arg.(
      value & flag
      & info [ "inject-violation" ]
          ~doc:
            "Plant a known violation (an uncharged sabotage of L0 buried \
             under admissible decoy faults) to exercise --shrink end-to-end. \
             The planted violation is expected and does not fail the run.")
  in
  let repro_path =
    Arg.(
      value
      & opt string "violation.repro"
      & info [ "repro" ] ~docv:"FILE"
          ~doc:"Where --shrink writes the repro file.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the chaos grid: T-table settings under deterministic fault \
          schedules, judged by the bSM property oracle (Theorems 8-9).")
    Term.(const run $ full $ jobs $ shrink $ inject $ repro_path)

(* --- replay ------------------------------------------------------------------- *)

let replay_cmd =
  let run file =
    match Chaos.Repro.of_file file with
    | Error msg ->
      Printf.eprintf "replay: %s\n" msg;
      exit 2
    | Ok t ->
      Format.printf "case: %s@.schedule: %s@.chaos seed: %d@.expected: %s@."
        t.Chaos.Repro.case.H.Sweep.label
        (Chaos.Schedule.describe t.Chaos.Repro.schedule)
        t.Chaos.Repro.seed
        (Chaos.Oracle.verdict_to_string t.Chaos.Repro.expected);
      let result = Chaos.Repro.check t in
      (match result with
      | Ok report ->
        Format.printf "%a@." Chaos.Oracle.pp_report report;
        Format.printf "replay: bit-identical reproduction (fingerprints match)@.";
        if report.Chaos.Oracle.verdict = Chaos.Oracle.Violation then
          Format.printf
            "replay: reproduced verdict is a VIOLATION — exiting nonzero@."
      | Error msg -> Format.printf "replay: DIVERGED — %s@." msg);
      (* Exit-code policy lives in the library so it is testable:
         reproducing a Violation is still a failing state for CI. *)
      exit (Chaos.Repro.gate result)
  in
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"A repro file written by bsm chaos --shrink.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a chaos repro file and verify it reproduces the recorded \
          oracle verdict bit-identically.")
    Term.(const run $ file)

(* --- fuzz -------------------------------------------------------------------- *)

let fuzz_cmd =
  let run cases seed =
    let entries = Chaos.Codec_corpus.entries () @ Bsm_serve.Frame.fuzz_entries in
    let stats = Bsm_wire.Fuzz.run ~seed ~cases entries in
    List.iter (fun s -> Format.printf "%a@." Bsm_wire.Fuzz.pp_stats s) stats;
    let total = Bsm_wire.Fuzz.total_cases stats in
    let crashed = Bsm_wire.Fuzz.total_crashed stats in
    Format.printf
      "fuzz: %d codec(s), %d decoder invocation(s) (clean + mutated), %d \
       crash(es), seed %d@."
      (List.length stats) total crashed seed;
    if crashed > 0 then exit 1
  in
  let cases =
    Arg.(
      value
      & opt (int_at_least 1) 500
      & info [ "cases" ]
          ~doc:
            "Values generated per codec; each contributes one clean \
             round-trip and one mutated decode.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Fuzzing seed (deterministic).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fuzz every registered decoder with deterministic byte mutations: \
          each must round-trip, reinterpret, or raise Malformed — never \
          crash.")
    Term.(const run $ cases $ seed)

(* --- attack ------------------------------------------------------------------ *)

let attack_cmd =
  let run which use_real =
    let protocol =
      if not use_real then A.Protocol_under_test.naive
      else begin
        let setting =
          match which with
          | "duplication" ->
            Core.Setting.make_exn ~k:3 ~topology:Topology.Fully_connected
              ~auth:Core.Setting.Unauthenticated ~t_left:1 ~t_right:1
          | "cycle" ->
            Core.Setting.make_exn ~k:2 ~topology:Topology.Bipartite
              ~auth:Core.Setting.Unauthenticated ~t_left:0 ~t_right:1
          | _ ->
            Core.Setting.make_exn ~k:3 ~topology:Topology.One_sided
              ~auth:Core.Setting.Unauthenticated ~t_left:1 ~t_right:3
        in
        A.Protocol_under_test.thresholded ~setting
      end
    in
    let report =
      match which with
      | "duplication" -> A.Duplication.run protocol
      | "cycle" -> A.Cycle.run protocol
      | "split" -> A.Split.run protocol
      | other ->
        Printf.eprintf "unknown attack %S (expected duplication | cycle | split)\n" other;
        exit 2
    in
    Format.printf "%a@." A.Report.pp report
  in
  let which =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"ATTACK" ~doc:"duplication (Fig 2) | cycle (Fig 3) | split (Fig 4)")
  in
  let use_real =
    Arg.(
      value & flag
      & info [ "real-protocol" ]
          ~doc:
            "Attack our actual protocol stack forced beyond its thresholds instead of \
             the naive baseline.")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run an impossibility construction (Lemmas 5, 7, 13).")
    Term.(const run $ which $ use_real)

(* --- topology ------------------------------------------------------------------ *)

let topology_cmd =
  let run k =
    List.iter (fun t -> print_endline (Topology.render t ~k)) Topology.all
  in
  Cmd.v
    (Cmd.info "topology" ~doc:"Render the three communication models (Figure 1).")
    Term.(const run $ k_arg)

(* --- ssm ------------------------------------------------------------------------ *)

let ssm_cmd =
  let run k topology auth tl tr seed =
    let s = setting_of k topology auth tl tr in
    let rng = Rng.make seed in
    (* Random favorites. *)
    let favs =
      List.map
        (fun p ->
          ( p,
            Party_id.make (Side.opposite (Party_id.side p)) (Rng.int rng k) ))
        (Party_id.all ~k)
    in
    let favorites p = List.assoc p favs in
    let profile = Core.Ssm.favorites_to_profile ~k favorites in
    let byzantine = H.Adversaries.random_coalition rng ~setting:s ~seed ~profile in
    let scenario = H.Scenario.make_exn ~byzantine ~seed s profile in
    let report = H.Scenario.run_ssm ~favorites scenario in
    List.iter
      (fun (p, d) ->
        let fav = favorites p in
        match (d : Core.Problem.decision) with
        | Core.Problem.Matched q ->
          Format.printf "  %a (fav %a) -> %a@." Party_id.pp p Party_id.pp fav
            Party_id.pp q
        | Core.Problem.Nobody ->
          Format.printf "  %a (fav %a) -> nobody@." Party_id.pp p Party_id.pp fav
        | Core.Problem.No_output ->
          Format.printf "  %a -> NO OUTPUT@." Party_id.pp p)
      report.H.Scenario.outcome.Core.Problem.decisions;
    match report.H.Scenario.violations with
    | [] -> Format.printf "result: sSM achieved@."
    | vs ->
      Format.printf "result: %d VIOLATIONS@." (List.length vs);
      exit 1
  in
  Cmd.v
    (Cmd.info "ssm" ~doc:"Run a simplified stable matching (favorites only) scenario.")
    Term.(const run $ k_arg $ topology_arg $ auth_arg $ tl_arg $ tr_arg $ seed_arg)

(* --- lattice ----------------------------------------------------------------- *)

let lattice_cmd =
  let run k seed =
    let rng = Rng.make seed in
    let profile = SM.Profile.random rng k in
    Format.printf "%a@." SM.Profile.pp profile;
    let all = SM.Lattice.all_stable profile in
    Format.printf "%d stable matching(s):@." (List.length all);
    let left_opt = SM.Gale_shapley.run ~proposers:Side.Left profile in
    let right_opt = SM.Gale_shapley.run ~proposers:Side.Right profile in
    let egal = SM.Lattice.egalitarian profile in
    List.iter
      (fun m ->
        let tags =
          List.filter_map Fun.id
            [
              (if SM.Matching.equal m left_opt then Some "left-optimal" else None);
              (if SM.Matching.equal m right_opt then Some "right-optimal" else None);
              (if SM.Matching.equal m egal then Some "egalitarian" else None);
            ]
        in
        Format.printf "  %a  cost=%d regret=%d %s@." SM.Matching.pp m
          (SM.Lattice.egalitarian_cost profile m)
          (SM.Lattice.regret profile m)
          (match tags with
          | [] -> ""
          | _ -> "[" ^ String.concat ", " tags ^ "]"))
      all
  in
  Cmd.v
    (Cmd.info "lattice"
       ~doc:"Enumerate all stable matchings of a random instance (lattice structure).")
    Term.(const run $ k_arg $ seed_arg)

(* --- roommates --------------------------------------------------------------- *)

let roommates_cmd =
  let run n seed =
    let rng = Rng.make seed in
    let solvable = ref 0 in
    let runs = 200 in
    for _ = 1 to runs do
      let inst = SM.Roommates.random rng n in
      match SM.Roommates.solve inst with
      | Some partner ->
        incr solvable;
        assert (SM.Roommates.is_stable inst partner)
      | None -> ()
    done;
    Format.printf
      "stable roommates, n = %d: %d/%d random instances solvable (%.0f%%)@." n
      !solvable runs
      (Stats.rate !solvable runs);
    Format.printf
      "(the paper's conclusion: unlike bipartite stable matching, existence can \
       fail — the byzantine variant needs refined definitions)@."
  in
  let n_arg =
    let even =
      let parse s =
        match int_of_string_opt s with
        | Some n when n >= 2 && n mod 2 = 0 -> Ok n
        | Some _ | None ->
          Error (`Msg (Printf.sprintf "expected an even integer >= 2, got %S" s))
      in
      Arg.conv (parse, Format.pp_print_int)
    in
    Arg.(value & opt even 8 & info [ "n" ] ~doc:"Number of persons (even).")
  in
  Cmd.v
    (Cmd.info "roommates"
       ~doc:
         "Solve random stable-roommates instances (Irving's algorithm; the paper's \
          future-work direction).")
    Term.(const run $ n_arg $ seed_arg)

(* --- bsr (byzantine stable roommates) ----------------------------------------- *)

let bsr_cmd =
  let run (k, t) seed =
    let rng = Rng.make seed in
    let inputs = Core.Roommates_bsm.random_inputs rng ~k in
    let pki = Bsm_crypto.Crypto.Pki.setup ~k ~seed in
    let byzantine =
      if t = 0 then []
      else
        List.mapi
          (fun i p ->
            p, if i mod 2 = 0 then H.Adversaries.silent else H.Adversaries.noise ~seed:i)
          (Rng.sample rng t (Party_id.all ~k))
    in
    let byz_set = Party_set.of_list (List.map fst byzantine) in
    let programs p =
      match List.assoc_opt p byzantine with
      | Some program -> program
      | None -> Core.Roommates_bsm.program ~k ~t ~pki ~input:(inputs p) ~self:p
    in
    let cfg =
      Bsm_runtime.Engine.config ~k
        ~link:(Bsm_runtime.Engine.Of_topology Topology.Fully_connected) ()
    in
    let res = Bsm_runtime.Engine.run cfg ~programs:(fun p -> programs p) in
    Format.printf
      "byzantine stable roommates: n = %d parties, %d byzantine (%s)@." (2 * k)
      (List.length byzantine)
      (String.concat ", " (List.map (fun (p, _) -> Party_id.to_string p) byzantine));
    let decisions =
      List.filter_map
        (fun (r : Bsm_runtime.Engine.party_result) ->
          if Party_set.mem r.Bsm_runtime.Engine.id byz_set then None
          else
            Some
              ( r.Bsm_runtime.Engine.id,
                match Core.Problem.decision_of_result r with
                | Core.Problem.Matched q -> Some (Some q)
                | Core.Problem.Nobody -> Some None
                | Core.Problem.No_output -> None ))
        res.Bsm_runtime.Engine.parties
    in
    List.iter
      (fun (p, d) ->
        match d with
        | Some (Some q) -> Format.printf "  %a -> %a@." Party_id.pp p Party_id.pp q
        | Some None -> Format.printf "  %a -> nobody@." Party_id.pp p
        | None -> Format.printf "  %a -> NO OUTPUT@." Party_id.pp p)
      decisions;
    match Core.Roommates_bsm.check ~k ~inputs ~byzantine:byz_set ~decisions with
    | [] -> Format.printf "result: byzantine stable roommates achieved@."
    | vs ->
      Format.printf "result: %d VIOLATIONS@." (List.length vs);
      List.iter (fun v -> Format.printf "  %a@." Core.Roommates_bsm.pp_violation v) vs;
      exit 1
  in
  let t_arg =
    Arg.(
      value
      & opt (int_at_least 0) 1
      & info [ "byzantine" ] ~doc:"Number of byzantine parties.")
  in
  (* A coalition of every party leaves no honest party to check. *)
  let k_and_t =
    let check k t =
      if t >= 2 * k then
        `Error
          ( true,
            Printf.sprintf "option '--byzantine': %d is not below 2k = %d parties" t
              (2 * k) )
      else `Ok (k, t)
    in
    Term.(ret (const check $ k_arg $ t_arg))
  in
  Cmd.v
    (Cmd.info "bsr"
       ~doc:
         "Run byzantine stable roommates (the paper's future-work direction) on a \
          random instance.")
    Term.(const run $ k_and_t $ seed_arg)

(* --- manipulate --------------------------------------------------------------- *)

let manipulate_cmd =
  let run () =
    let profile, m = SM.Truthfulness.roth_instance () in
    Format.printf "%a@." SM.Profile.pp profile;
    Format.printf
      "Roth (1982): stable matching is not truthful. Party %a misreports %a:@."
      Party_id.pp m.SM.Truthfulness.manipulator SM.Prefs.pp m.SM.Truthfulness.fake;
    Format.printf "  honest partner: index %d; lying partner: index %d (better)@."
      m.SM.Truthfulness.honest_partner m.SM.Truthfulness.lying_partner;
    Format.printf
      "Dubins-Freedman/Roth: the proposing side never gains — checked exhaustively \
       by the test suite.@."
  in
  Cmd.v
    (Cmd.info "manipulate" ~doc:"Demonstrate Roth's manipulability result.")
    Term.(const run $ const ())

(* --- complexity ------------------------------------------------------------------ *)

let complexity_cmd =
  let run max_k =
    let table =
      Table.make ~title:"T2/T3: honest-run cost per setting"
        ~header:[ "setting"; "k"; "rounds"; "messages"; "predicted"; "bytes" ]
    in
    let settings k =
      let third = max 0 ((k - 1) / 3) and half = max 0 ((k - 1) / 2) in
      [
        Core.Setting.make_exn ~k ~topology:Topology.Fully_connected
          ~auth:Core.Setting.Unauthenticated ~t_left:third ~t_right:k;
        Core.Setting.make_exn ~k ~topology:Topology.Bipartite
          ~auth:Core.Setting.Unauthenticated ~t_left:third ~t_right:half;
        Core.Setting.make_exn ~k ~topology:Topology.Fully_connected
          ~auth:Core.Setting.Authenticated ~t_left:k ~t_right:k;
        Core.Setting.make_exn ~k ~topology:Topology.Bipartite
          ~auth:Core.Setting.Authenticated ~t_left:third ~t_right:k;
      ]
    in
    List.iter
      (fun k ->
        let rng = Rng.make (k * 31) in
        List.iter
          (fun s ->
            let profile = SM.Profile.random rng k in
            let report = H.Scenario.run (H.Scenario.make_exn s profile) in
            let m = report.H.Scenario.metrics in
            Table.add_row table
              [
                Format.asprintf "%a" Core.Setting.pp s;
                string_of_int k;
                string_of_int m.Bsm_runtime.Engine.rounds_used;
                string_of_int m.Bsm_runtime.Engine.messages_sent;
                string_of_int (Core.Complexity.predicted_messages s);
                string_of_int m.Bsm_runtime.Engine.bytes_delivered;
              ])
          (settings k))
      (Util.range 2 (max_k + 1));
    Table.print table
  in
  let max_k =
    Arg.(value & opt (int_at_least 2) 6 & info [ "max-k" ] ~doc:"Largest k to measure.")
  in
  Cmd.v
    (Cmd.info "complexity" ~doc:"Measure round/message/byte costs as k grows.")
    Term.(const run $ max_k)

(* --- serve / load ------------------------------------------------------------ *)

module Serve = Bsm_serve

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/bsm.sock"
    & info [ "socket" ] ~doc:"Unix-domain socket path.")

let queue_arg =
  Arg.(
    value
    & opt (int_at_least 1) 256
    & info [ "queue" ] ~doc:"Submission queue capacity.")

let batch_arg =
  Arg.(
    value & opt (int_at_least 1) 64 & info [ "batch" ] ~doc:"Max instances retired per tick.")

(* The commands that write to sockets: a write to a vanished peer must
   surface as an EPIPE error that the serve and load paths handle, not
   kill the process. Every other command keeps SIGPIPE's default action,
   so a reader that closes the pipe early ([bsm topology | head]) ends it
   quietly. *)
let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let serve_cmd =
  let run socket jobs queue batch max_k max_requests chaos =
    ignore_sigpipe ();
    Bsm_runtime.Pool.with_pool ?jobs @@ fun pool ->
    let server =
      Serve.Server.create ~pool
        ~config:
          {
            Serve.Server.default_config with
            queue_capacity = queue;
            batch;
            max_k;
            chaos;
          }
        ()
    in
    let listener = Serve.Uds.listen ~path:socket in
    Printf.printf "bsm serve: listening on %s (%d pool lane(s))\n%!" socket
      (Bsm_runtime.Pool.jobs pool);
    let stop = ref false in
    Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true));
    let routes = Hashtbl.create 256 in
    let tick = ref 0 in
    let served = ref 0 in
    while (not !stop) && (max_requests = 0 || !served < max_requests) do
      List.iter
        (fun event ->
          match event with
          | Serve.Uds.Request (conn, Serve.Frame.Submit spec) ->
            let resp = Serve.Server.submit server ~tick:!tick spec in
            (match resp with
            | Serve.Frame.Accepted _ ->
              Hashtbl.replace routes spec.Serve.Frame.req_id conn
            | _ -> ());
            Serve.Uds.respond listener conn resp
          | Serve.Uds.Request (conn, Serve.Frame.Bye) -> Serve.Uds.drop listener conn
          | Serve.Uds.Bad_frame (conn, reason) ->
            Printf.printf "bsm serve: dropped conn %d: %s\n%!" conn reason
          | Serve.Uds.Connect _ | Serve.Uds.Disconnect _ -> ())
        (Serve.Uds.poll listener ~timeout_s:0.005);
      List.iter
        (fun resp ->
          match resp with
          | Serve.Frame.Done { req_id; _ } ->
            incr served;
            (match Hashtbl.find_opt routes req_id with
            | Some conn ->
              Hashtbl.remove routes req_id;
              Serve.Uds.respond listener conn resp
            | None -> ())
          | _ -> ())
        (Serve.Server.tick server ~tick:!tick);
      incr tick
    done;
    Serve.Uds.shutdown listener;
    Printf.printf "bsm serve: %d instance(s) served, %d oracle violation(s)\n%!"
      !served
      (Serve.Server.violations server)
  in
  let jobs =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "j"; "jobs" ] ~doc:"Pool lanes (default: the recommended domain count).")
  in
  let max_k =
    Arg.(value & opt int 4096 & info [ "max-k" ] ~doc:"Admission ceiling on k.")
  in
  let max_requests =
    Arg.(
      value & opt int 0
      & info [ "max-requests" ]
          ~doc:"Exit after serving this many instances (0 = run forever).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:"Run bSM instances under within-budget fault schedules, oracle-judged.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the matchmaking daemon: a Unix-domain-socket listener \
          multiplexing concurrent instances over the persistent domain pool.")
    Term.(const run $ socket_arg $ jobs $ queue_arg $ batch_arg $ max_k $ max_requests $ chaos)

let load_cmd =
  let run (instances, live_check) seed jobs queue batch (k_min, k_max) mean_gap
      chaos wall out connect =
    ignore_sigpipe ();
    let params =
      {
        Serve.Serve_bench.instances;
        seed;
        jobs = Option.value jobs ~default:(Domain.recommended_domain_count ());
        queue_capacity = queue;
        batch;
        k_min;
        k_max;
        mean_gap;
        chaos;
        max_rounds = None;
      }
    in
    (match live_check with
    | 0 -> ()
    | k -> (
      match Serve.Serve_bench.live_check ~k ~seed with
      | Ok k -> Printf.printf "live-check: k=%d live == engine (bit-identical)\n" k
      | Error msg ->
        Printf.printf "live-check: DIVERGED: %s\n" msg;
        exit 1));
    if instances = 0 then exit 0 (* live-check-only invocation *);
    match connect with
    | Some path ->
      (* Drive a remote daemon with the same deterministic schedule,
         windowed to keep its queue busy without flooding it. *)
      let client = Serve.Uds.connect ~path in
      let matched = ref 0 and failed = ref 0 and rejected = ref 0 in
      let outstanding = ref 0 in
      let next = ref 0 in
      let completed = ref 0 in
      let window = min queue 32 in
      while !completed < instances do
        while !next < instances && !outstanding < window do
          Serve.Uds.send client
            (Serve.Frame.Submit (Serve.Serve_bench.spec_of ~params !next));
          incr next;
          incr outstanding
        done;
        match Serve.Uds.recv client with
        | None -> failwith "bsm load: daemon closed the connection"
        | Some (Serve.Frame.Accepted _) -> ()
        | Some (Serve.Frame.Rejected _) ->
          incr rejected;
          incr completed;
          decr outstanding
        | Some (Serve.Frame.Done { outcome; _ }) ->
          incr completed;
          decr outstanding;
          (match outcome with
          | Serve.Frame.Matched _ -> incr matched
          | Serve.Frame.Failed _ | Serve.Frame.Timed_out -> incr failed)
      done;
      (* The daemon may already have exited (--max-requests); the
         goodbye is best-effort. *)
      (try Serve.Uds.send client Serve.Frame.Bye with Unix.Unix_error _ -> ());
      Serve.Uds.close client;
      Printf.printf "bsm load: %d over %s — matched %d, failed %d, rejected %d\n"
        instances path !matched !failed !rejected;
      if !matched < instances then exit 1
    | None ->
      let results = Serve.Serve_bench.run params in
      Format.printf "%a@." Serve.Serve_bench.pp_results results;
      Json.to_file out (Serve.Serve_bench.to_json ~wall results);
      Printf.printf "wrote %s\n" out;
      if chaos then begin
        if results.Serve.Serve_bench.violations > 0 then begin
          Printf.printf "bsm load: oracle violations under chaos\n";
          exit 1
        end
      end
      else if results.Serve.Serve_bench.matched < instances then begin
        Printf.printf "bsm load: %d instance(s) not matched\n"
          (instances - results.Serve.Serve_bench.matched);
        exit 1
      end
  in
  let instances =
    Arg.(
      value
      & opt (int_at_least 0) 1000
      & info [ "instances" ] ~doc:"Instances to submit (0 only with --live-check).")
  in
  let jobs =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "j"; "jobs" ] ~doc:"Pool lanes (default: the recommended domain count).")
  in
  let k_min =
    Arg.(value & opt (int_at_least 1) 8 & info [ "k-min" ] ~doc:"Smallest instance k.")
  in
  let k_max = Arg.(value & opt int 64 & info [ "k-max" ] ~doc:"Largest instance k.") in
  let k_range =
    let check k_min k_max =
      if k_max < k_min then
        `Error
          ( true,
            Printf.sprintf "option '--k-max': %d is below --k-min %d" k_max k_min )
      else `Ok (k_min, k_max)
    in
    Term.(ret (const check $ k_min $ k_max))
  in
  let mean_gap =
    Arg.(
      value & opt int 1
      & info [ "gap" ] ~doc:"Mean inter-arrival gap in ticks (0 = all at once).")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Submit bSM workloads and run each under a within-budget fault \
             schedule; fails on any oracle violation.")
  in
  let wall =
    Arg.(
      value & flag
      & info [ "wall" ]
          ~doc:
            "Include wall-clock numbers in the JSON (breaks bit-identity \
             across machines; tick fields stay deterministic).")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_serve.json"
      & info [ "out" ] ~doc:"Output JSON path.")
  in
  let live_check =
    Arg.(
      value
      & opt (int_at_least 0) 0
      & info [ "live-check" ]
          ~doc:
            "First run distributed GS at this k through the engine twice, \
             once sequentially and once with each round's parties resumed \
             on a 2-lane pool, and require bit-identical parties, metrics \
             and traces (0 = skip).")
  in
  (* A load of no instances runs nothing, so it is only a live-check. *)
  let instances_and_check =
    let check instances live_check =
      if instances = 0 && live_check = 0 then
        `Error
          (true, "option '--instances': 0 runs nothing unless --live-check is given")
      else `Ok (instances, live_check)
    in
    Term.(ret (const check $ instances $ live_check))
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ]
          ~doc:"Drive a running daemon over this socket instead of in-process.")
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Open-loop load bench for the serve layer: deterministic arrival \
          schedule, ring (or socket) transport, BENCH_serve.json output.")
    Term.(
      const run $ instances_and_check $ seed_arg $ jobs $ queue_arg $ batch_arg
      $ k_range $ mean_gap $ chaos $ wall $ out $ connect)

let () =
  let doc = "byzantine stable matching (PODC 2025) — protocols, attacks, experiments" in
  let info = Cmd.info "bsm" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
    [
      solvable_cmd; matrix_cmd; run_cmd; chaos_cmd; replay_cmd; fuzz_cmd;
      ssm_cmd; attack_cmd; topology_cmd; complexity_cmd; lattice_cmd;
      roommates_cmd; bsr_cmd; manipulate_cmd; serve_cmd; load_cmd;
    ]))
