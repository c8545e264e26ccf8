open Bsm_prelude
module Wire = Bsm_wire.Wire
module Pool = Bsm_runtime.Pool
module Engine = Bsm_runtime.Engine
module Topology = Bsm_topology.Topology
module SM = Bsm_stable_matching
module Core = Bsm_core

type params = {
  instances : int;
  seed : int;
  jobs : int;
  queue_capacity : int;
  batch : int;
  k_min : int;
  k_max : int;
  mean_gap : int;
  chaos : bool;
  max_rounds : int option;
}

let default_params =
  {
    instances = 1000;
    seed = 1;
    jobs = 1;
    queue_capacity = 256;
    batch = 64;
    k_min = 8;
    k_max = 64;
    mean_gap = 1;
    chaos = false;
    max_rounds = None;
  }

type results = {
  params : params;
  ticks : int;
  matched : int;
  failed : int;
  timed_out : int;
  violations : int;
  queue_rejects : int;
  p50_ticks : int;
  p99_ticks : int;
  max_ticks : int;
  fingerprint : int64;
  request_bytes : int;
  response_bytes : int;
  wall_ms : float;
}

(* --- deterministic load generation --------------------------------------- *)

let salt = 0x10ADL

let draw ~seed ~i ~lane ~span =
  if span <= 0 then 0
  else
    let h = Rng.mix64_absorb (Rng.mix64_absorb (Rng.mix64 salt) seed) ((i * 8) + lane) in
    Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int span))

let spec_of ~params i : Frame.spec =
  let { seed; k_min; k_max; chaos; _ } = params in
  let workload =
    if chaos then begin
      (* Small full protocol runs: FC/Auth with a spare right-side
         budget (t_right = k), so the within-budget live schedules
         (which charge at most R0) must leave the oracle at [Ok]. *)
      let k = 2 + draw ~seed ~i ~lane:1 ~span:2 in
      Frame.Bsm
        {
          k;
          topology = Topology.Fully_connected;
          auth = Core.Setting.Authenticated;
          t_left = k / 3;
          t_right = k;
          profile_seed = draw ~seed ~i ~lane:2 ~span:1_000_000;
          scenario_seed = draw ~seed ~i ~lane:3 ~span:1_000_000;
          coalition = false;
        }
    end
    else
      Frame.Gs
        {
          k = k_min + draw ~seed ~i ~lane:1 ~span:(k_max - k_min + 1);
          seed = draw ~seed ~i ~lane:2 ~span:1_000_000;
          family =
            (if draw ~seed ~i ~lane:3 ~span:2 = 0 then SM.Flat.Uniform
             else SM.Flat.Common_acceptors);
        }
  in
  { Frame.req_id = i; workload }

let arrivals ~params =
  let a = Array.make params.instances 0 in
  let t = ref 0 in
  for i = 0 to params.instances - 1 do
    t := !t + draw ~seed:params.seed ~i ~lane:0 ~span:((2 * params.mean_gap) + 1);
    a.(i) <- !t
  done;
  a

(* --- the open-loop run --------------------------------------------------- *)

let absorb_outcome h (outcome : Frame.outcome) =
  match outcome with
  | Frame.Matched { fingerprint; rounds } ->
    let h = Rng.mix64_absorb h 1 in
    let h = Rng.mix64_absorb h (Int64.to_int (Int64.logand fingerprint 0x3FFFFFFFFFFFFFFFL)) in
    Rng.mix64_absorb h rounds
  | Frame.Failed msg -> Rng.mix64_absorb (Rng.mix64_absorb h 2) (Hashtbl.hash msg)
  | Frame.Timed_out -> Rng.mix64_absorb h 3

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0 else sorted.((n - 1) * q / 100)

let run params =
  if params.instances < 1 then invalid_arg "Serve_bench.run: instances < 1";
  if params.k_min < 1 || params.k_max < params.k_min then
    invalid_arg "Serve_bench.run: bad k range";
  let pool = Pool.create ~jobs:params.jobs () in
  let t0 = Unix.gettimeofday () in
  let server =
    Server.create ~pool
      ~config:
        {
          Server.queue_capacity = params.queue_capacity;
          batch = params.batch;
          max_k = params.k_max;
          max_rounds = params.max_rounds;
          chaos = params.chaos;
          chaos_seed = params.seed;
        }
      ()
  in
  let req_ring : string Ring.t = Ring.create ~capacity:4096 () in
  let resp_ring : string Ring.t = Ring.create ~capacity:4096 () in
  let client_enc = Wire.Enc.create () in
  let server_enc = Wire.Enc.create () in
  let arrivals = arrivals ~params in
  let to_send = Queue.create () in
  let next_arrival = ref 0 in
  let completed = ref 0 in
  let matched = ref 0 and failed = ref 0 and timed_out = ref 0 in
  let queue_rejects = ref 0 and shed = ref 0 in
  let latencies = Array.make params.instances 0 in
  let fingerprint = ref (Rng.mix64 salt) in
  let request_bytes = ref 0 and response_bytes = ref 0 in
  let tick = ref 0 in
  let budget = (params.instances * 2000) + 100_000 in
  while !completed + !shed < params.instances do
    if !tick > budget then failwith "Serve_bench.run: load failed to drain";
    let t = !tick in
    (* Client: queue this tick's arrivals, pump the request ring. *)
    while !next_arrival < params.instances && arrivals.(!next_arrival) <= t do
      Queue.add (spec_of ~params !next_arrival) to_send;
      incr next_arrival
    done;
    let pumping = ref true in
    while !pumping && not (Queue.is_empty to_send) do
      let spec = Queue.peek to_send in
      let bytes = Wire.encode_into client_enc Frame.request_codec (Frame.Submit spec) in
      if Ring.try_push req_ring bytes then begin
        ignore (Queue.pop to_send);
        request_bytes := !request_bytes + String.length bytes
      end
      else pumping := false
    done;
    (* Server: decode + admit, then one scheduling quantum. *)
    let rec admit () =
      match Ring.try_pop req_ring with
      | None -> ()
      | Some bytes ->
        (match Wire.decode Frame.request_codec bytes with
        | Ok (Frame.Submit spec) ->
          let resp = Server.submit server ~tick:t spec in
          let out = Wire.encode_into server_enc Frame.response_codec resp in
          if not (Ring.try_push resp_ring out) then
            failwith "Serve_bench.run: response ring overflow";
          response_bytes := !response_bytes + String.length out
        | Ok Frame.Bye | Error _ -> ());
        admit ()
    in
    admit ();
    List.iter
      (fun resp ->
        let out = Wire.encode_into server_enc Frame.response_codec resp in
        if not (Ring.try_push resp_ring out) then
          failwith "Serve_bench.run: response ring overflow";
        response_bytes := !response_bytes + String.length out)
      (Server.tick server ~tick:t);
    (* Client: drain responses. *)
    let rec collect () =
      match Ring.try_pop resp_ring with
      | None -> ()
      | Some bytes ->
        (match Wire.decode_exn Frame.response_codec bytes with
        | Frame.Accepted _ -> ()
        | Frame.Rejected { req_id; reason = Frame.Queue_full } ->
          incr queue_rejects;
          Queue.add (spec_of ~params req_id) to_send
        | Frame.Rejected { req_id; reason } ->
          incr shed;
          fingerprint :=
            Rng.mix64_absorb
              (Rng.mix64_absorb !fingerprint req_id)
              (4 + Hashtbl.hash (Frame.reject_reason_to_string reason))
        | Frame.Done { req_id; outcome; arrival_tick; done_tick } ->
          incr completed;
          (* Client-perspective latency: from the schedule's arrival,
             so time spent retrying against a full queue counts —
             [arrival_tick] (admission) would hide the backpressure. *)
          latencies.(req_id) <- done_tick - arrivals.(req_id);
          ignore arrival_tick;
          (match outcome with
          | Frame.Matched _ -> incr matched
          | Frame.Failed _ -> incr failed
          | Frame.Timed_out -> incr timed_out);
          let h = Rng.mix64_absorb !fingerprint req_id in
          let h = absorb_outcome h outcome in
          let h = Rng.mix64_absorb h arrival_tick in
          fingerprint := Rng.mix64_absorb h done_tick);
        collect ()
    in
    collect ();
    incr tick
  done;
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Pool.shutdown pool;
  let sorted = Array.sub latencies 0 params.instances in
  Array.sort compare sorted;
  {
    params;
    ticks = !tick;
    matched = !matched;
    failed = !failed;
    timed_out = !timed_out;
    violations = Server.violations server;
    queue_rejects = !queue_rejects;
    p50_ticks = percentile sorted 50;
    p99_ticks = percentile sorted 99;
    max_ticks = percentile sorted 100;
    fingerprint = !fingerprint;
    request_bytes = !request_bytes;
    response_bytes = !response_bytes;
    wall_ms;
  }

let instances_per_sec r =
  if r.wall_ms <= 0. then 0. else float_of_int r.params.instances /. (r.wall_ms /. 1000.)

(* --- reporting ----------------------------------------------------------- *)

let workload_name params = if params.chaos then "bsm-chaos" else "gs"

let to_json ?(wall = false) r =
  let ms = Json.rounded "%.3f" in
  let est ticks = float_of_int ticks *. r.wall_ms /. float_of_int (max 1 r.ticks) in
  let workload =
    Json.Obj
      [
        "workload", Json.String (workload_name r.params);
        "instances", Json.Int r.params.instances;
        "k_min", Json.Int r.params.k_min;
        "k_max", Json.Int r.params.k_max;
        "mean_gap", Json.Int r.params.mean_gap;
        "queue_capacity", Json.Int r.params.queue_capacity;
        "batch", Json.Int r.params.batch;
        "matched", Json.Int r.matched;
        "failed", Json.Int r.failed;
        "timed_out", Json.Int r.timed_out;
        "violations", Json.Int r.violations;
        "queue_rejects", Json.Int r.queue_rejects;
        "ticks", Json.Int r.ticks;
        "p50_ticks", Json.Int r.p50_ticks;
        "p99_ticks", Json.Int r.p99_ticks;
        "max_ticks", Json.Int r.max_ticks;
        "request_bytes", Json.Int r.request_bytes;
        "response_bytes", Json.Int r.response_bytes;
        "fingerprint", Json.String (Printf.sprintf "%Lx" r.fingerprint);
      ]
  in
  Json.Obj
    ([
       ( "_comment",
         Json.String
           "serve bench: open-loop client driving the daemon over the \
            in-process ring transport. Deterministic in (params): every field \
            except the optional wall block is bit-identical across runs and \
            job counts; latencies are scheduler ticks, not wall time." );
       "jobs", Json.Int r.params.jobs;
       "seed", Json.Int r.params.seed;
       "workloads", Json.List [ workload ];
     ]
    @
    if wall then
      [
        ( "wall",
          Json.Obj
            [
              "wall_ms", ms r.wall_ms;
              "instances_per_sec", Json.rounded "%.1f" (instances_per_sec r);
              "p50_ms_est", ms (est r.p50_ticks);
              "p99_ms_est", ms (est r.p99_ticks);
            ] );
      ]
    else [])

let pp_results ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d instances in %d ticks (%.1f ms wall, %.0f inst/s)@,\
     matched %d, failed %d, timed out %d, violations %d, queue rejects %d@,\
     latency ticks: p50 %d, p99 %d, max %d@,\
     wire: %d request bytes, %d response bytes@,\
     fingerprint %Lx@]" (workload_name r.params) r.params.instances r.ticks
    r.wall_ms (instances_per_sec r) r.matched r.failed r.timed_out r.violations
    r.queue_rejects r.p50_ticks r.p99_ticks r.max_ticks r.request_bytes
    r.response_bytes r.fingerprint

(* --- live-vs-engine determinism gate ------------------------------------- *)

let live_check ~k ~seed =
  let profile = SM.Profile.random (Rng.make seed) k in
  let programs p =
    Core.Distributed_gs.program ~input:(SM.Profile.prefs profile p) ~self:p
  in
  let cfg =
    Engine.config ~k
      ~max_rounds:(Core.Distributed_gs.rounds_bound ~k + 2)
      ~trace_limit:1_000_000 ~link:(Engine.Of_topology Topology.Bipartite) ()
  in
  let engine = Engine.run cfg ~programs in
  let live = Pool.with_pool ~jobs:2 (fun pool -> Engine.run ~pool cfg ~programs) in
  let party_diff =
    List.find_opt
      (fun ((e : Engine.party_result), l) -> e <> l)
      (List.combine engine.Engine.parties live.Engine.parties)
  in
  match party_diff with
  | Some (e, _) ->
    Error
      (Format.asprintf "%a: status, output or finish round differs" Party_id.pp
         e.Engine.id)
  | None when engine.Engine.metrics <> live.Engine.metrics -> Error "metrics differ"
  | None when engine.Engine.trace <> live.Engine.trace -> Error "traces differ"
  | None -> Ok k
