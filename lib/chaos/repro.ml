open Bsm_prelude
module Core = Bsm_core
module Engine = Bsm_runtime.Engine
module Sweep = Bsm_harness.Sweep
module Wire = Bsm_wire.Wire

type t = {
  case : Sweep.case;
  schedule : Schedule.t;
  seed : int;
  max_rounds : int option;
  expected : Oracle.verdict;
  fingerprint : string;
}

let fingerprint_of_report (r : Oracle.report) =
  let m = r.Oracle.metrics in
  Format.asprintf
    "%s|budget=%b|charged=%a|corrupted=%a|violations=[%a]|sent=%d|delivered=%d|topo=%d|omitted=%d|mutated=%d|scrambled=%d@%s|recovery=%s|by-label=[%s]|bytes=%d|rounds=%d"
    (Oracle.verdict_to_string r.Oracle.verdict)
    r.Oracle.within_budget Party_set.pp r.Oracle.charged Party_set.pp
    r.Oracle.corrupted
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Core.Problem.pp_violation)
    r.Oracle.violations m.Engine.messages_sent m.Engine.messages_delivered
    m.Engine.messages_dropped_topology m.Engine.messages_dropped_fault
    m.Engine.messages_corrupted m.Engine.cells_scrambled
    (match m.Engine.first_scramble_round with
    | Some n -> string_of_int n
    | None -> "-")
    (match r.Oracle.recovery with
    | Some rc -> Oracle.recovery_to_string rc
    | None -> "-")
    (String.concat ","
       (List.map
          (fun (l, n) -> Printf.sprintf "%s=%d" l n)
          m.Engine.messages_dropped_by_label))
    m.Engine.bytes_delivered m.Engine.rounds_used

let make ?max_rounds ~case ~schedule ~seed report =
  {
    case;
    schedule;
    seed;
    max_rounds;
    expected = report.Oracle.verdict;
    fingerprint = fingerprint_of_report report;
  }

(* --- codec --------------------------------------------------------------- *)

let case_codec =
  Wire.map
    ~inject:(fun ((label, setting), (profile_seed, scenario_seed, adversary)) ->
      { Sweep.label; setting; profile_seed; scenario_seed; adversary })
    ~project:(fun (c : Sweep.case) ->
      ( (c.Sweep.label, c.Sweep.setting),
        (c.Sweep.profile_seed, c.Sweep.scenario_seed, c.Sweep.adversary) ))
    (Wire.pair
       (Wire.pair Wire.string Core.Setting.codec)
       (Wire.triple Wire.int Wire.int
          (Wire.enum ~name:"adversary" [ Sweep.Honest; Sweep.Random_coalition ])))

let codec =
  Wire.map
    ~inject:(fun ((case, schedule), ((seed, max_rounds), (expected, fingerprint))) ->
      { case; schedule; seed; max_rounds; expected; fingerprint })
    ~project:(fun t ->
      ( (t.case, t.schedule),
        ((t.seed, t.max_rounds), (t.expected, t.fingerprint)) ))
    (Wire.pair
       (Wire.pair case_codec Schedule.codec)
       (Wire.pair
          (Wire.pair Wire.int (Wire.option Wire.uint))
          (Wire.pair
             (Wire.enum ~name:"verdict"
                [ Oracle.Ok; Oracle.Expected_degradation; Oracle.Violation ])
             Wire.string)))

(* --- file format --------------------------------------------------------- *)

let header = "bsm-repro 1"

let to_file path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Printf.fprintf oc "%s\n%s\n" header (Wire.to_hex (Wire.encode codec t)))

let of_file path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines -> (
    match List.filter (fun l -> String.trim l <> "") lines with
    | [ h; payload ] when String.trim h = header -> (
      match Wire.of_hex (String.trim payload) with
      | exception Wire.Malformed e -> Error ("bad repro hex: " ^ e)
      | bytes -> (
        match Wire.decode codec bytes with
        | Ok t -> Ok t
        | Error e -> Error ("bad repro payload: " ^ e)))
    | h :: _ when String.trim h <> header ->
      Error (Printf.sprintf "not a repro file (expected %S header)" header)
    | _ -> Error "malformed repro file: expected header and one hex line")

(* --- replay -------------------------------------------------------------- *)

let run t = Oracle.run ?max_rounds:t.max_rounds ~seed:t.seed ~schedule:t.schedule t.case

let check t =
  let report = run t in
  let got = fingerprint_of_report report in
  if String.equal got t.fingerprint then Ok report
  else
    Error
      (Format.asprintf
         "replay diverged:@,expected %s@,     got %s@,(verdict %s, expected %s)"
         t.fingerprint got
         (Oracle.verdict_to_string report.Oracle.verdict)
         (Oracle.verdict_to_string t.expected))

(* Exit-code policy for [bsm replay]: a faithfully reproduced run is only
   "success" when the reproduced verdict is clean — a repro that still
   demonstrates a Violation must fail CI, that's its whole point. *)
let gate = function
  | Error _ -> 1
  | Ok (r : Oracle.report) -> (
    match r.Oracle.verdict with
    | Oracle.Violation -> 1
    | Oracle.Ok | Oracle.Expected_degradation -> 0)
