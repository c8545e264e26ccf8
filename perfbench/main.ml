(* The repository benchmark: one command, three workloads, every
   end-to-end metric by name and unit, every output checked.

     main.exe --workload proto-mix|chaos-grid|serve-gs --seed N --seconds S
              --trace 0|1

   The last line of standard output is the result object:
   {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
   metrics are the end-to-end ones, measured untraced; with --trace 1 the
   per-layer ones, from a traced run that also writes its spans under
   perfbench/out/. Every workload runs on a pool of one lane (see "Lanes
   and clocks" in perfbench/README.md). *)

open Perfbench

(* Every per-layer metric, in print order, with its unit: a workload the
   layer does not touch reports 0, so every traced run prints the same
   names. *)
let per_layer =
  [
    "engine.run_ms", "ms";
    "engine.plane_ms", "ms";
    "engine.plane_ns_per_msg", "ns";
    "engine.rounds", "count";
    "engine.messages_sent", "count";
    "engine.messages_delivered", "count";
    "engine.bytes_delivered", "bytes";
    "engine.messages_dropped_fault", "count";
    "engine.messages_corrupted", "count";
    "engine.cells_scrambled", "count";
    "wire.send_calls", "count";
    "wire.send_ms", "ms";
    "protocol.compute_ms", "ms";
    "protocol.compute_ns_per_msg", "ns";
  ]
  @ List.map (fun c -> "protocol.compute_ms." ^ c, "ms") Mix.classes
  @ [
      "harness.case_us", "us";
      "select.plan_us", "us";
      "crypto.pki_setup_us", "us";
      "schedule.compile_us", "us";
      "problem.check_us", "us";
      "oracle.ok", "count";
      "oracle.degraded", "count";
      "oracle.violations", "count";
      "oracle.recovered", "count";
      "oracle.stuck", "count";
      "oracle.recovery_rounds_mean", "rounds";
      "flat.make_us", "us";
      "gs.ms", "ms";
      "gs.proposals", "count";
      "verify.ms", "ms";
      "frame.encode_us", "us";
      "frame.decode_us", "us";
      "frame.request_bytes", "bytes";
      "ring.full_retries", "count";
      "server.submit_us", "us";
      "server.queue_wait_ms_p50", "ms";
      "server.queue_wait_ms_p99", "ms";
      "server.tick_ms_p50", "ms";
      "server.tick_ms_p99", "ms";
      "server.batch_size", "count";
      "server.queue_rejects", "count";
      "serve.covered_share", "ratio";
      "pool.tasks", "count";
      "pool.steals", "count";
      "pool.busy_share", "ratio";
      "gc.minor_words_per_op", "words";
      "gc.major_words_per_op", "words";
      "gc.major_collections", "count";
      "failed_ratio", "ratio";
      "trace.unattributed_share", "ratio";
      "trace.overhead_share", "ratio";
    ]

let end_to_end =
  [
    "setup_s", "s";
    "ops_per_s", "1/s";
    "max_rate_rps", "1/s";
    "op_ms_p50", "ms";
    "op_ms_p99", "ms";
    "ok_ratio", "ratio";
    "peak_rss_mb", "MB";
  ]

let usage =
  "main.exe --workload proto-mix|chaos-grid|serve-gs --seed N --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline ("usage: " ^ usage);
  exit 2

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref None in
  let seconds = ref None and trace = ref None in
  let int_of name s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> die (Printf.sprintf "%s expects an integer, got %S" name s)
  in
  let spec =
    [
      "--workload", Arg.Set_string workload, "NAME";
      "--seed", Arg.String (fun s -> seed := Some (int_of "--seed" s)), "N";
      ( "--seconds",
        Arg.String
          (fun s ->
            match float_of_string_opt s with
            | Some f when f > 0. -> seconds := Some f
            | _ -> die "--seconds expects a positive number"),
        "S" );
      ( "--trace",
        Arg.String
          (function
          | "0" -> trace := Some false
          | "1" -> trace := Some true
          | _ -> die "--trace expects 0 or 1"),
        "0|1" );
    ]
  in
  Arg.parse spec (fun a -> die ("unexpected argument " ^ a)) usage;
  let seed = match !seed with Some s -> s | None -> die "--seed is required" in
  let trace = match !trace with Some t -> t | None -> die "--trace is required" in
  let stop =
    match !seconds with
    | Some s -> Closed_loop.Seconds s
    | None -> die "--seconds is required"
  in
  let lanes = 1 and setups = 5 in
  let result, profile =
    match !workload with
    | "proto-mix" -> Proto_mix.run ~seed ~lanes ~setups ~trace stop
    | "chaos-grid" -> Chaos_grid.run ~seed ~lanes ~setups ~trace stop
    | "serve-gs" -> Serve_gs.run ~seed ~lanes ~setups ~trace stop
    | "" -> die "--workload is required"
    | w -> die (Printf.sprintf "unknown workload %S" w)
  in
  List.iter print_endline result.Common.notes;
  List.iter (fun m -> print_endline ("MISMATCH " ^ m)) result.mismatches;
  Printf.printf "fingerprint %s seed=%d: %s\n" !workload seed result.fingerprint;
  if trace then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-%d.tsv" !workload seed in
    (* serve-gs stamps its spans on the main thread's processor-time
       clock, which starts with the process. *)
    let origin = if !workload = "serve-gs" then 0 else Common.process_start_ns in
    Span.write profile ~path ~origin;
    Printf.printf "spans: %d written to %s\n" profile.Span.n_kept path
  end;
  let names = if trace then per_layer else end_to_end in
  let given = if trace then result.layers else result.e2e in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match List.assoc_opt name given with Some v -> v | None -> 0.
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      names
  in
  let correct = result.failed = 0 && result.mismatches = [] in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct result.attempted result.failed (String.concat ", " metrics)
