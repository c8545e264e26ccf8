(* The closed loop shared by proto-mix and chaos-grid.

   The callers are the lanes of one [Pool]: each batch is one full cycle
   of the workload's mix, handed to [Pool.map], and the next batch starts
   when the previous one has drained. A whole cycle per batch keeps the
   op mix of every run the same whatever the seed, so runs on different
   seeds measure the same thing. Op [i]'s input is a pure function of
   (seed, i), so a run's ops do not depend on timing or lane count. *)

module Pool = Bsm_runtime.Pool
module Engine = Bsm_runtime.Engine

type ('i, 'o) workload = {
  cycle : int;  (** ops per batch: one of each class of the mix *)
  input : seed:int -> int -> 'i;  (** op [i]'s input; negative [i] for warm-up *)
  run : 'i -> 'o;  (** the untraced op: one public call *)
  run_traced : Span.t -> 'i -> 'o;  (** the same op, re-assembled with spans *)
}

type ('i, 'o) op = {
  index : int;
  input : 'i;
  out : 'o;
  wall_ns : int;  (** the untraced op, on its lane *)
  cpu_ns : int;  (** the untraced op's processor time on its lane's thread *)
  gc : Common.gc;  (** domain-local deltas around the untraced op (traced runs) *)
  traced : ('o * Span.t * int) option;  (** traced output, spans, traced wall *)
}

type ('i, 'o) run = {
  lanes : int;
  setups_s : float list;
  wall_ns : int;  (** measured window, first batch start to last batch end *)
  batch_ns : int list;  (** wall of each batch *)
  batch_cpu_ns : int list;  (** processor time of the whole process in each batch *)
  ops : ('i, 'o) op list;  (** in op-index order *)
  tasks : int;  (** pool deltas over the measured window *)
  steals : int;
  major_collections : int;  (** GC major cycles over the measured window *)
  calib : Calib.t;  (** host-speed samples taken between batches *)
}

type stop =
  | Seconds of float
  | Batches of int

(* A timed run also keeps going until this many ops have completed, so
   its percentiles rest on enough samples however slow the machine. *)
let min_ops = 1000

(* One untraced op; in a traced run also the traced re-assembly, with the
   two orders alternating by op index so neither side always runs on
   warmer caches. *)
let exec w ~trace (index, input) =
  let untraced () =
    let g0 = if trace then Common.gc_sample () else Common.gc_zero in
    let c0 = Common.thread_cpu_ns () in
    let t0 = Common.now_ns () in
    let out = w.run input in
    let wall_ns = Common.now_ns () - t0 in
    let cpu_ns = Common.thread_cpu_ns () - c0 in
    let gc =
      if trace then Common.gc_delta g0 (Common.gc_sample ()) else Common.gc_zero
    in
    out, wall_ns, cpu_ns, gc
  in
  let traced () =
    let sp = Span.create ~op:index in
    let t0 = Common.now_ns () in
    Span.enter_at sp Span.Op ~start:t0;
    let out = w.run_traced sp input in
    let t1 = Common.now_ns () in
    Span.leave_at sp ~stop:t1;
    out, sp, t1 - t0
  in
  if not trace then
    let out, wall_ns, cpu_ns, gc = untraced () in
    { index; input; out; wall_ns; cpu_ns; gc; traced = None }
  else if index land 1 = 0 then
    let out, wall_ns, cpu_ns, gc = untraced () in
    { index; input; out; wall_ns; cpu_ns; gc; traced = Some (traced ()) }
  else
    let t = traced () in
    let out, wall_ns, cpu_ns, gc = untraced () in
    { index; input; out; wall_ns; cpu_ns; gc; traced = Some t }

let batch w ~seed ~first =
  List.init w.cycle (fun j ->
      let i = if first < 0 then first - j else first + j in
      i, w.input ~seed i)

(* Set-up: pool spawn and one warm-up cycle, repeated [setups] times in
   fresh pools, each timed in processor time of the whole process; the
   first repetition counts from process start. The warm-up inputs come from
   a fixed seed, so every run sets up the same work. The last pool is the
   one measured. *)
let warmup_seed = 0

let setup w ~lanes ~setups =
  let rec go n acc prev =
    let c0 = if acc = [] then 0 else Common.process_cpu_ns () in
    Option.iter Pool.shutdown prev;
    let pool = Pool.create ~jobs:lanes () in
    ignore (Pool.map pool (exec w ~trace:false) (batch w ~seed:warmup_seed ~first:(-1)));
    let acc = Common.ms (Common.process_cpu_ns () - c0) /. 1e3 :: acc in
    if n <= 1 then pool, List.rev acc else go (n - 1) acc (Some pool)
  in
  go setups [] None

let run w ~seed ~lanes ~setups ~trace stop =
  let pool, setups_s = setup w ~lanes ~setups in
  let s0 = Pool.stats pool in
  let g0 = Gc.quick_stat () in
  let t0 = Common.now_ns () in
  let deadline =
    match stop with Seconds s -> t0 + int_of_float (s *. 1e9) | Batches _ -> max_int
  in
  let calib = Calib.create () in
  let rec loop b acc walls cpus =
    let more =
      match stop with
      | Seconds _ -> Common.now_ns () < deadline || b * w.cycle < min_ops
      | Batches n -> b < n
    in
    if not more then acc, walls, cpus
    else begin
      Calib.maybe calib;
      let b0 = Common.now_ns () and c0 = Common.process_cpu_ns () in
      let outs = Pool.map pool (exec w ~trace) (batch w ~seed ~first:(b * w.cycle)) in
      loop (b + 1) (List.rev_append outs acc)
        ((Common.now_ns () - b0) :: walls)
        ((Common.process_cpu_ns () - c0) :: cpus)
    end
  in
  let ops, walls, cpus = loop 0 [] [] [] in
  Calib.sample calib;
  let ops = List.rev ops in
  let wall_ns = Common.now_ns () - t0 in
  let s1 = Pool.stats pool in
  let g1 = Gc.quick_stat () in
  Pool.shutdown pool;
  {
    lanes;
    setups_s;
    wall_ns;
    batch_ns = List.rev walls;
    batch_cpu_ns = List.rev cpus;
    ops;
    tasks = s1.Pool.tasks - s0.Pool.tasks;
    steals = s1.Pool.steals - s0.Pool.steals;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    calib;
  }

(* --- metrics shared by both closed loops ---------------------------------- *)

let e2e (r : _ run) ~failed =
  let n = List.length r.ops in
  let sorted f = Common.sorted_of_list (List.map (fun (o : _ op) -> Common.ms (f o)) r.ops) in
  let lat = sorted (fun o -> o.cpu_ns) and wall = sorted (fun o -> o.wall_ns) in
  (* The median batch rate over the lanes' processor time: a stretch of
     the run slowed by something outside the benchmark moves it only if
     it covers half the batches. *)
  let per_batch = float_of_int (n / List.length r.batch_ns) in
  let rate ns = per_batch /. (Common.ms ns /. 1e3) in
  let lanes = float_of_int r.lanes in
  let cpu_rate = Common.median (List.map (fun ns -> lanes *. rate ns) r.batch_cpu_ns) in
  let wall_rate = Common.median (List.map rate r.batch_ns) in
  let p50 = Common.smooth_percentile lat 50. and p99 = Common.smooth_percentile lat 99. in
  let setup = Common.median r.setups_s in
  let slow = Calib.slowdown r.calib in
  let ops_per_s = cpu_rate *. slow in
  ( [
      "setup_s", setup /. slow;
      "ops_per_s", ops_per_s;
      (* A closed loop queues nothing, so the rate it sustains is the
         completed rate. *)
      "max_rate_rps", ops_per_s;
      "op_ms_p50", p50 /. slow;
      "op_ms_p99", p99 /. slow;
      "ok_ratio", 1. -. Common.ratio (float_of_int failed) (float_of_int n);
      "peak_rss_mb", Common.peak_rss_mb ();
    ],
    [
      Printf.sprintf
        "ops: %d in %d batches, %.3f s on %d lane(s): %.1f ops/s (median batch, \
         processor time), %.1f ops/s (median batch, wall)"
        n
        (List.length r.batch_ns) (Common.ms r.wall_ns /. 1e3) r.lanes cpu_rate wall_rate;
      Printf.sprintf
        "op latency: processor time p50 %.3f ms, p99 %.3f ms; wall p50 %.3f ms, p99 \
         %.3f ms (n=%d)"
        p50 p99 (Common.percentile wall 50.) (Common.percentile wall 99.) n;
      Printf.sprintf "setup: %s s processor time (median %.3f s)"
        (String.concat ", " (List.map (Printf.sprintf "%.3f") r.setups_s))
        setup;
      Calib.note r.calib;
    ] )

(* The per-layer split of a traced closed-loop run. [metrics] reads an
   op's engine counts, [setting] an input's (topology, auth) class. *)
let layers (r : _ run) ~metrics ~setting =
  let p = Span.profile () in
  let n = float_of_int (max 1 (List.length r.ops)) in
  let sum f = List.fold_left (fun acc o -> acc +. f o) 0. r.ops in
  let per_op f = sum f /. n in
  let traced = List.filter_map (fun o -> Option.map (fun t -> o, t) o.traced) r.ops in
  List.iter (fun (_, (_, sp, _)) -> Span.absorb p sp) traced;
  let count f = per_op (fun o -> float_of_int (f (metrics o.out : Engine.metrics))) in
  let sent = sum (fun o -> float_of_int (metrics o.out).Engine.messages_sent) in
  let self l = float_of_int (Span.total_self p l) in
  let calls l = float_of_int (Span.total_calls p l) in
  let mean_us l = Common.ratio (self l /. 1e3) (calls l) in
  let engine_ns = self Span.Engine_run in
  let compute_ns = self Span.Compute +. self Span.Send in
  (* Compute segments are engine.run's only children. *)
  let run_ns = engine_ns +. compute_ns in
  let per_class cls =
    let mine = List.filter (fun (o, _) -> setting o.input = cls) traced in
    let ns =
      List.fold_left
        (fun acc (_, (_, sp, _)) ->
          acc + Span.self_ns sp Span.Compute + Span.self_ns sp Span.Send)
        0 mine
    in
    Common.ratio (float_of_int ns /. 1e6) (float_of_int (List.length mine))
  in
  let untraced_ns = sum (fun (o : _ op) -> float_of_int o.wall_ns) in
  let traced_ns =
    sum (fun o -> match o.traced with Some (_, _, w) -> float_of_int w | None -> 0.)
  in
  let gc = List.fold_left (fun acc o -> Common.gc_add acc o.gc) Common.gc_zero r.ops in
  let wall_s = Common.ms r.wall_ns /. 1e3 in
  ( [
      "engine.run_ms", run_ns /. 1e6 /. n;
      "engine.plane_ms", engine_ns /. 1e6 /. n;
      "engine.plane_ns_per_msg", Common.ratio engine_ns sent;
      "engine.rounds", count (fun m -> m.rounds_used);
      "engine.messages_sent", count (fun m -> m.messages_sent);
      "engine.messages_delivered", count (fun m -> m.messages_delivered);
      "engine.bytes_delivered", count (fun m -> m.bytes_delivered);
      "engine.messages_dropped_fault", count (fun m -> m.messages_dropped_fault);
      "engine.messages_corrupted", count (fun m -> m.messages_corrupted);
      "engine.cells_scrambled", count (fun m -> m.cells_scrambled);
      "wire.send_calls", calls Span.Send /. n;
      "wire.send_ms", self Span.Send /. 1e6 /. n;
      "protocol.compute_ms", compute_ns /. 1e6 /. n;
      "protocol.compute_ns_per_msg", Common.ratio compute_ns sent;
    ]
    @ List.map (fun cls -> "protocol.compute_ms." ^ cls, per_class cls) Mix.classes
    @ [
        "harness.case_us", mean_us Span.Harness_case;
        "select.plan_us", mean_us Span.Select_plan;
        "crypto.pki_setup_us", mean_us Span.Pki_setup;
        "schedule.compile_us", mean_us Span.Schedule_compile;
        "problem.check_us", mean_us Span.Check;
        "pool.tasks", float_of_int r.tasks;
        "pool.steals", float_of_int r.steals;
        (* Lane occupancy: both the untraced and the traced op ran. *)
        ( "pool.busy_share",
          (untraced_ns +. traced_ns) /. 1e9 /. (wall_s *. float_of_int r.lanes) );
        "gc.minor_words_per_op", gc.Common.minor_words /. n;
        "gc.major_words_per_op", gc.Common.major_words /. n;
        "gc.major_collections", float_of_int r.major_collections;
        ( "trace.unattributed_share",
          Common.ratio (self Span.Op) (float_of_int p.Span.op_wall_ns) );
        "trace.overhead_share", Common.ratio traced_ns untraced_ns -. 1.;
      ],
    p )

(* Everything a closed-loop workload reports. An op fails when [failed]
   holds of its output; in a traced run the traced output must be [same]
   as the untraced one from [what]. [extra] adds workload layers and
   notes. *)
let result (r : _ run) ~trace ~failed ~same ~what ~metrics ~setting ~fingerprint
    ~extra =
  let n = List.length r.ops in
  let failed = List.length (List.filter (fun (o : _ op) -> failed o.out) r.ops) in
  let mismatches =
    List.filter_map
      (fun (o : _ op) ->
        match o.traced with
        | Some (t, _, _) when not (same o.out t) ->
          Some (Printf.sprintf "op %d: traced run diverged from %s" o.index what)
        | _ -> None)
      r.ops
  in
  let e2e, notes = e2e r ~failed in
  let layers, profile =
    if trace then layers r ~metrics ~setting else [], Span.profile ()
  in
  let extra_layers, extra_notes = extra r in
  ( {
      Common.attempted = n;
      failed;
      mismatches;
      e2e;
      layers =
        layers @ extra_layers
        @ [ "failed_ratio", Common.ratio (float_of_int failed) (float_of_int n) ];
      fingerprint = Common.render_fingerprint (fingerprint r);
      notes = notes @ extra_notes @ if trace then Span.split_lines profile else [];
    },
    profile )
