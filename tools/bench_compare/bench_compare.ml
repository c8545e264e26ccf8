(* bench_compare — diff two BENCH_sweeps.json (or BENCH_scale.json)
   files and fail on wall regressions.

   Usage: bench_compare OLD.json NEW.json [--threshold PCT]

   Per table it compares the sequential wall clock — the one number
   that is comparable across scheduler modes (fused vs barrier) and job
   counts — and, when both files carry a "whole_run" block, the
   whole-run parallel wall. T-scale files carry one record per
   "{\"row\": ..." marker instead; for those the Gale-Shapley wall
   (gs_ms) and the sequential verification wall (verify_sequential_ms)
   are compared per row. BENCH_serve.json carries one record per
   "{\"workload\": ..." marker; for those the drain time (ticks) and
   latency quantiles (p50_ticks, p99_ticks) are compared — virtual
   scheduler ticks, but the same gate applies. BENCH_chaos.json carries
   a recovery grid with one record per "{\"recovery_row\": ..." marker;
   for those the rounds-to-recovery aggregates (max and mean engine
   rounds) are compared — growth means recovery from state corruption
   got slower. Exits 1 if any compared
   number regresses by more than the threshold (default 20%) AND by
   more than 1 unit (quick runs have millisecond-scale walls where
   percentages alone are noise).

   Missing input fails too (exit 1, naming what is missing): a table or
   row of OLD that NEW lacks, a compared key (or the whole_run block)
   present in one file only, or two files with no bench record at all.
   Tables/rows new in NEW are reported but don't fail the diff: the
   bench grows across PRs. A key absent from both files is reported and
   skipped (recovery rows have no rounds when nothing was scrambled).

   The container has no JSON library, so this is a minimal scanner over
   the bench writers' known layouts ("key": number pairs inside each
   record). It tolerates the PR 3 schema (parallel_ms per table, no
   whole_run), the fused schema, and the scale schema. *)

let read_file path =
  try
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  with Sys_error msg ->
    Printf.eprintf "bench_compare: %s\n" msg;
    exit 2

(* Index of [sub] in [s] at or after [pos], if any. *)
let find s pos sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  if m = 0 then None else go (max 0 pos)

(* Parse the number starting at [pos] (after optional spaces). *)
let float_at s pos =
  let n = String.length s in
  let pos = ref pos in
  while !pos < n && s.[!pos] = ' ' do incr pos done;
  let start = !pos in
  while
    !pos < n
    &&
    match s.[!pos] with
    | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
    | _ -> false
  do
    incr pos
  done;
  float_of_string_opt (String.sub s start (!pos - start))

(* ["key": v] within s.[pos..stop), if present. *)
let key_float s ~pos ~stop key =
  let needle = Printf.sprintf "\"%s\":" key in
  match find s pos needle with
  | Some i when i < stop -> float_at s (i + String.length needle)
  | Some _ | None -> None

(* One scanned record: its name plus the requested "key": number values
   (in [keys] order), scoped to the span between this marker and the
   next. *)
let scan s ~marker ~keys =
  let rec go pos acc =
    match find s pos marker with
    | None -> List.rev acc
    | Some i -> (
      let name_start = i + String.length marker in
      match String.index_from_opt s name_start '"' with
      | None -> List.rev acc
      | Some name_end ->
        let name = String.sub s name_start (name_end - name_start) in
        let stop =
          match find s name_end marker with
          | Some j -> j
          | None -> String.length s
        in
        let values =
          List.map (fun key -> key, key_float s ~pos:name_end ~stop key) keys
        in
        go stop ((name, values) :: acc))
  in
  go 0 []

(* BENCH_sweeps.json tables: the sequential wall per table. *)
let table_rows s = scan s ~marker:"{\"table\": \"" ~keys:[ "sequential_ms" ]

(* BENCH_scale.json rows: per-row Gale-Shapley and sequential
   verification walls. *)
let scale_rows s =
  scan s ~marker:"{\"row\": \"" ~keys:[ "gs_ms"; "verify_sequential_ms" ]

(* BENCH_serve.json workloads: drain time and latency quantiles, all in
   virtual scheduler ticks (deterministic across runs and job counts). *)
let serve_rows s =
  scan s ~marker:"{\"workload\": \"" ~keys:[ "ticks"; "p50_ticks"; "p99_ticks" ]

(* BENCH_plane.json workloads: the message-plane micro-bench's three
   legs (arena encode, engine delivery pass, slice decode). *)
let plane_rows s =
  scan s ~marker:"{\"plane\": \"" ~keys:[ "encode_ms"; "deliver_ms"; "decode_ms" ]

(* BENCH_chaos.json recovery grid: rounds-to-recovery per
   (schedule#seed) row — deterministic engine rounds rather than walls,
   but growth means recovery from state corruption got slower. *)
let recovery_rows s =
  scan s ~marker:"{\"recovery_row\": \""
    ~keys:[ "max_rounds_to_recovery"; "mean_rounds_to_recovery" ]

(* The whole_run block's parallel wall, if the file has one. *)
let whole_run_parallel_ms s =
  match find s 0 "\"whole_run\":" with
  | None -> None
  | Some i ->
    let stop =
      match String.index_from_opt s i '}' with
      | Some j -> j
      | None -> String.length s
    in
    key_float s ~pos:i ~stop "parallel_ms"

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
  let old_s = read_file old_path and new_s = read_file new_path in
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
  (* One keyed-row diff for every schema: each NEW row against its OLD
     namesake, key by key, then every OLD row NEW dropped. *)
  let diff_rows ~title ~what ~unit ~label scan_rows =
    let old_rows = scan_rows old_s and new_rows = scan_rows new_s in
    if old_rows <> [] || new_rows <> [] then begin
      Printf.printf "%s:\n" title;
      List.iter
        (fun (name, new_values) ->
          match List.assoc_opt name old_rows with
          | None -> Printf.printf "  %-40s (new %s, no baseline)\n" name what
          | Some old_values ->
            List.iter
              (fun (key, nv) ->
                match List.assoc key old_values, nv with
                | Some ov, Some nv -> compare_value ~unit (label name key) ov nv
                | None, None ->
                  Printf.printf "  %-40s (no %s in either file)\n" name key
                | Some _, None ->
                  report_missing (Printf.sprintf "%s %s: %s missing from NEW" what name key)
                | None, Some _ ->
                  report_missing (Printf.sprintf "%s %s: %s missing from OLD" what name key))
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
  let keyed name key = Printf.sprintf "%s %s" name key in
  let found =
    List.filter Fun.id
      [
        diff_rows ~title:"sequential wall per table" ~what:"table" ~unit:"ms"
          ~label:(fun name _ -> name) table_rows;
        diff_rows ~title:"gs + sequential-verify wall per scale row" ~what:"row"
          ~unit:"ms" ~label:keyed scale_rows;
        diff_rows ~title:"ticks + latency quantiles per serve workload"
          ~what:"workload" ~unit:"ticks" ~label:keyed serve_rows;
        diff_rows ~title:"message-plane leg walls per workload" ~what:"workload"
          ~unit:"ms" ~label:keyed plane_rows;
        diff_rows ~title:"rounds-to-recovery per recovery-grid row"
          ~what:"recovery row" ~unit:"rounds" ~label:keyed recovery_rows;
      ]
  in
  (match whole_run_parallel_ms old_s, whole_run_parallel_ms new_s with
  | Some om, Some nm ->
    Printf.printf "whole-run parallel wall:\n";
    compare_value ~unit:"ms" "whole_run" om nm
  | None, None -> ()
  | Some _, None -> report_missing "whole_run parallel_ms missing from NEW"
  | None, Some _ -> report_missing "whole_run parallel_ms missing from OLD");
  if found = [] then report_missing "bench records (none found in either file)";
  if !missing <> [] then
    Printf.eprintf "bench_compare: missing input: %s\n"
      (String.concat "; " (List.rev !missing));
  if !regressions > 0 then
    Printf.eprintf "bench_compare: %d regression(s) beyond %.0f%%\n"
      !regressions !threshold;
  if !missing <> [] || !regressions > 0 then exit 1
  else print_endline "bench_compare: no regressions beyond threshold"
