(* bench_compare — diff two BENCH_*.json files and fail on regressions.

   Usage: bench_compare OLD.json NEW.json [--threshold PCT]

   Both files are parsed with Bsm_prelude.Json; a file that is not one
   well-formed JSON value (truncated, malformed, trailing bytes) is an
   error naming the file and the byte offset (exit 2, like an
   unreadable file). Records are looked up by key, in the five bench
   schemas:

   - BENCH_sweeps: "sweeps" records named by "table" — the sequential
     wall (sequential_ms), plus the "whole_run" block's parallel_ms;
   - BENCH_scale: "rows" named by "row" — the Gale-Shapley wall (gs_ms)
     and the sequential verification wall (verify_sequential_ms);
   - BENCH_serve: "workloads" named by "workload" — drain time and
     latency quantiles (ticks, p50_ticks, p99_ticks): virtual scheduler
     ticks, but the same gate applies;
   - BENCH_plane: "workloads" named by "plane" — the message-plane legs
     (encode_ms, deliver_ms, decode_ms);
   - BENCH_chaos: "recovery_grid" named by "recovery_row" — the
     rounds-to-recovery aggregates (max_rounds_to_recovery,
     mean_rounds_to_recovery): growth means recovery from state
     corruption got slower.

   Exits 1 if any compared number regresses by more than the threshold
   (default 20%) AND by more than 1 unit (quick runs have
   millisecond-scale walls where percentages alone are noise).

   Missing input fails too (exit 1, naming what is missing on a MISSING
   line): a table or row of OLD that NEW lacks, a compared key (or the
   whole_run block) present in one file only, or two files with no bench
   record at all. Tables/rows new in NEW are reported but don't fail the
   diff: the bench grows across PRs. A key absent from both files is
   reported and skipped (recovery rows have no rounds when nothing was
   scrambled). *)

open Bsm_prelude

let read_json path =
  let contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error msg ->
      Printf.eprintf "bench_compare: %s\n" msg;
      exit 2
  in
  match Json.of_string contents with
  | Ok v -> v
  | Error e ->
    Printf.eprintf "bench_compare: %s: malformed JSON at %s\n" path
      (Json.error_to_string e);
    exit 2

(* Per schema, [(list, name, unit, keys)]: its records are the elements
   of the top-level [list] member, each named by its [name] member, and
   [keys] are the numbers compared, in [unit]. *)
let schemas =
  [
    "sweeps", "table", "ms", [ "sequential_ms" ];
    "rows", "row", "ms", [ "gs_ms"; "verify_sequential_ms" ];
    "workloads", "workload", "ticks", [ "ticks"; "p50_ticks"; "p99_ticks" ];
    "workloads", "plane", "ms", [ "encode_ms"; "deliver_ms"; "decode_ms" ];
    ( "recovery_grid",
      "recovery_row",
      "rounds",
      [ "max_rounds_to_recovery"; "mean_rounds_to_recovery" ] );
  ]

let number key v = Option.bind (Json.member key v) Json.number

(* The named records of [json]'s [list], with their [keys] numbers. *)
let records (list, name, _, keys) json =
  match Json.member list json with
  | Some (Json.List items) ->
    List.filter_map
      (fun item ->
        match Json.member name item with
        | Some (Json.String n) ->
          Some (n, List.map (fun key -> key, number key item) keys)
        | _ -> None)
      items
  | _ -> []

let whole_run_parallel_ms json =
  Option.bind (Json.member "whole_run" json) (number "parallel_ms")

let () =
  let threshold = ref 20.0 in
  let paths = ref [] in
  let rec parse = function
    | "--threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t > 0. -> threshold := t
      | Some _ | None ->
        Printf.eprintf "bench_compare: --threshold %s: expected a positive number\n" v;
        exit 2);
      parse rest
    | arg :: rest ->
      paths := arg :: !paths;
      parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let old_path, new_path =
    match List.rev !paths with
    | [ o; n ] -> o, n
    | _ ->
      Printf.eprintf "usage: bench_compare OLD.json NEW.json [--threshold PCT]\n";
      exit 2
  in
  let old_json = read_json old_path and new_json = read_json new_path in
  let regressions = ref 0 in
  let missing = ref [] in
  let report_missing what =
    Printf.printf "  %-40s MISSING\n" what;
    missing := what :: !missing
  in
  let compare_value ~unit label old_v new_v =
    let pct = (new_v -. old_v) /. old_v *. 100. in
    let regressed =
      old_v > 0.
      && new_v > old_v *. (1. +. (!threshold /. 100.))
      && new_v -. old_v > 1.0
    in
    Printf.printf "  %-40s %10.3f -> %10.3f %s  (%+.1f%%)%s\n" label old_v
      new_v unit pct
      (if regressed then "  REGRESSION" else "");
    if regressed then incr regressions
  in
  Printf.printf "bench_compare: %s -> %s (threshold %.0f%%)\n" old_path new_path
    !threshold;
  (* One keyed-record diff for every schema: each NEW record against its
     OLD namesake, key by key, then every OLD record NEW dropped. *)
  let diff ((_, what, unit, keys) as schema) =
    let old_rows = records schema old_json and new_rows = records schema new_json in
    let label name key = match keys with [ _ ] -> name | _ -> name ^ " " ^ key in
    if old_rows <> [] || new_rows <> [] then begin
      Printf.printf "%s per %s:\n" (String.concat ", " keys) what;
      List.iter
        (fun (name, new_values) ->
          match List.assoc_opt name old_rows with
          | None -> Printf.printf "  %-40s (new %s, no baseline)\n" name what
          | Some old_values ->
            List.iter
              (fun (key, nv) ->
                let missing_from side =
                  report_missing
                    (Printf.sprintf "%s %s: %s missing from %s" what name key side)
                in
                match List.assoc key old_values, nv with
                | Some ov, Some nv -> compare_value ~unit (label name key) ov nv
                | None, None ->
                  Printf.printf "  %-40s (no %s in either file)\n" name key
                | Some _, None -> missing_from "NEW"
                | None, Some _ -> missing_from "OLD")
              new_values)
        new_rows;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name new_rows) then
            report_missing (Printf.sprintf "%s %s dropped from NEW" what name))
        old_rows
    end;
    old_rows <> [] || new_rows <> []
  in
  let found = List.filter diff schemas in
  (match whole_run_parallel_ms old_json, whole_run_parallel_ms new_json with
  | Some om, Some nm ->
    Printf.printf "whole-run parallel wall:\n";
    compare_value ~unit:"ms" "whole_run" om nm
  | None, None -> ()
  | Some _, None -> report_missing "whole_run parallel_ms missing from NEW"
  | None, Some _ -> report_missing "whole_run parallel_ms missing from OLD");
  if found = [] then report_missing "bench records (none found in either file)";
  flush stdout;
  if !missing <> [] then
    Printf.eprintf "bench_compare: missing input: %s\n"
      (String.concat "; " (List.rev !missing));
  if !regressions > 0 then
    Printf.eprintf "bench_compare: %d regression(s) beyond %.0f%%\n"
      !regressions !threshold;
  if !missing <> [] || !regressions > 0 then exit 1
  else print_endline "bench_compare: no regressions beyond threshold"
