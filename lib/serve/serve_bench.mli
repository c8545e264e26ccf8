(** The open-loop serving benchmark behind [bsm load] and
    [BENCH_serve.json].

    A synthetic client submits [instances] workloads on a deterministic
    arrival schedule (inter-arrival gaps are stateless splitmix64 draws
    from [seed]), through the real wire path: requests are encoded with
    a reused {!Bsm_wire.Wire.Enc} into a bounded {!Ring}, decoded and
    admitted by the {!Server}, and answered over a response ring — the
    in-process twin of the socket transport. A [Queue_full] reject is
    retried next tick, so the measured latencies include genuine
    queueing delay under backpressure.

    Time is virtual (scheduler ticks), which is what makes the whole
    run — and the default JSON — bit-identical across repetitions
    {e and job counts}: executions are pure, [Pool.map] preserves
    order, and the schedule depends only on [seed]. Wall-clock numbers
    (instances/sec, millisecond latencies) are printed, and included in
    the JSON only under [~wall:true], clearly fenced as
    environment-dependent. *)

type params = {
  instances : int;
  seed : int;
  jobs : int;  (** pool lanes; 1 = inline sequential *)
  queue_capacity : int;
  batch : int;
  k_min : int;  (** GS instance size range (inclusive) *)
  k_max : int;
  mean_gap : int;  (** mean inter-arrival gap in ticks (0 = all at once) *)
  chaos : bool;
      (** submit bSM workloads and run each under a within-budget
          fault/mutation schedule, oracle-judged *)
  max_rounds : int option;
}

(** 1000 GS instances, k ∈ [8, 64], mean gap 1 tick, queue 256,
    batch 64, jobs 1, seed 1. *)
val default_params : params

type results = {
  params : params;
  ticks : int;  (** virtual ticks to drain the load *)
  matched : int;
  failed : int;
  timed_out : int;
  violations : int;  (** oracle violations (chaos mode) *)
  queue_rejects : int;  (** [Queue_full] answers (each retried) *)
  p50_ticks : int;
  p99_ticks : int;
  max_ticks : int;
  fingerprint : int64;  (** digest of every Done response, in req order *)
  request_bytes : int;  (** encoded request traffic *)
  response_bytes : int;
  wall_ms : float;  (** whole-run wall clock (not in default JSON) *)
}

(** [spec_of ~params i] — the deterministic i-th workload of the load
    schedule (what [bsm load --connect] replays against a remote
    daemon). *)
val spec_of : params:params -> int -> Frame.spec

val run : params -> results

(** [to_json ?wall results] — the [BENCH_serve] report, deterministic
    by default; [~wall:true] appends the environment-dependent wall
    block. *)
val to_json : ?wall:bool -> results -> Bsm_prelude.Json.t

val pp_results : Format.formatter -> results -> unit

(** [live_check ~k ~seed] — run fault-free distributed Gale–Shapley
    twice through {!Bsm_runtime.Engine.run}, traced: once on the calling
    domain and once with each round's parties resumed on a fresh 2-lane
    {!Bsm_runtime.Pool}, and compare the whole results (every party's
    status, output and finish round, the metrics, the trace). [Ok k] on
    agreement, [Error] naming the first divergence. The live == engine
    gate that [bsm load --live-check] and the tests call. *)
val live_check : k:int -> seed:int -> (int, string) result
