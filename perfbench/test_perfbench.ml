(* The benchmark's own test: every workload's fingerprint of deterministic
   counts (messages, bytes, rounds, proposals, verdicts) is identical
   across two runs and across 1 and 2 pool lanes, and every op's output
   passes the benchmark's correctness gate. Runs one cycle of each
   workload, untraced and traced. *)

open Perfbench

let workloads =
  [
    "proto-mix", Proto_mix.run;
    "chaos-grid", Chaos_grid.run;
    "serve-gs", Serve_gs.run;
  ]

let () =
  let failures = ref 0 in
  List.iter
    (fun (name, run) ->
      let go ~lanes ~trace =
        let r, _ = run ~seed:7 ~lanes ~setups:1 ~trace (Closed_loop.Batches 1) in
        if r.Common.failed > 0 || r.mismatches <> [] then begin
          incr failures;
          Printf.printf "FAIL %s (lanes=%d, trace=%b): %d failed ops, mismatches: %s\n"
            name lanes trace r.failed
            (String.concat "; " r.mismatches)
        end;
        r.fingerprint
      in
      let a = go ~lanes:1 ~trace:false in
      let b = go ~lanes:1 ~trace:true in
      let c = go ~lanes:2 ~trace:false in
      if a = b && b = c then Printf.printf "ok %s fingerprint %s\n" name a
      else begin
        incr failures;
        Printf.printf
          "FAIL %s fingerprints differ:\n\
          \  1 lane: %s\n\
          \  1 lane traced: %s\n\
          \  2 lanes: %s\n"
          name a b c
      end)
    workloads;
  if !failures > 0 then exit 1
