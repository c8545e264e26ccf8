(* serve-gs: Gale–Shapley requests through the daemon core, over the real
   in-process wire path: client [Frame] encode, [Ring] push, server
   decode, [Server.submit], a [Server.tick] loop on the pool, response
   encode and client decode. Requests are [Frame.Gs] instances with k
   log-uniform in [64, 4096], split over the two [Flat] families by a
   seeded draw.

   A closed loop: [clients] callers, each sending its next request when
   the previous one is answered. Two clients keep a second request waiting
   behind every one the tick serves, so a straggler still holds up another
   request, while the ticks stay small enough that a run's p99 rests on
   dozens of ticks rather than a handful. Client and server share the
   calling domain, and with one pool lane every step of a request runs on
   it, so the loop stamps requests with that thread's processor-time
   clock: a request's latency is what it would take on a core of its own. *)

module SM = Bsm_stable_matching
module Pool = Bsm_runtime.Pool
module Frame = Bsm_serve.Frame
module Server = Bsm_serve.Server
module Ring = Bsm_serve.Ring
module Wire = Bsm_wire.Wire

let clients = 2
let k_min = 64
let k_max = 4096

let spec_of ~seed i =
  let u = Common.draw_float ~seed ~i ~lane:1 in
  let k =
    int_of_float
      (Float.round
         (float_of_int k_min *. ((float_of_int k_max /. float_of_int k_min) ** u)))
  in
  let k = max k_min (min k_max k) in
  {
    Frame.req_id = i;
    workload =
      Frame.Gs
        {
          k;
          seed = Common.draw ~seed ~i ~lane:2 1_000_000_000;
          family =
            (if Common.draw ~seed ~i ~lane:3 2 = 0 then SM.Flat.Uniform
             else SM.Flat.Common_acceptors);
        };
  }

(* Per-request timestamps (the loop's processor-time ns), filled in by the
   loop. *)
type stamps = {
  mutable enc_start : int;
  mutable enc_stop : int;
  mutable pushed : int;
  mutable dec_start : int;
  mutable dec_stop : int;
  mutable submitted : int;
  mutable admitted : int;
  mutable tick_start : int;
  mutable tick_stop : int;
  mutable done_at : int;  (** client decoded the answer; 0 = not yet *)
  mutable bytes : int;
  mutable outcome : Frame.outcome option;
}

let fresh () =
  {
    enc_start = 0; enc_stop = 0; pushed = 0; dec_start = 0; dec_stop = 0;
    submitted = 0; admitted = 0; tick_start = 0; tick_stop = 0; done_at = 0; bytes = 0;
    outcome = None;
  }

type tick = {
  t_start : int;
  t_stop : int;
  size : int;
}

type loop = {
  origin : int;  (** processor-time ns when the loop starts *)
  stamps : stamps array;  (** one per request sent, by request id *)
  specs : Frame.spec array;
  ticks : tick list;
  full_retries : int;
  queue_rejects : int;
  end_ns : int;
  calib : Calib.t;  (** host-speed samples taken between ticks *)
}

let config =
  { Server.default_config with Server.queue_capacity = 8192; max_k = k_max }

(* Send requests [spec_of ~seed i] for i = 0, 1, ... through a fresh
   server on [pool], keeping [clients] outstanding, until [seconds] of
   wall time have passed and at least [min_ops] were sent; then drain. *)
let loop ~pool ~seed ~seconds ~min_ops =
  (* The loop's processor time, less the host-speed samples it takes. *)
  let calib = Calib.create () in
  let clock () = Common.thread_cpu_ns () - calib.Calib.spent_ns in
  let server = Server.create ~pool ~config () in
  let req_ring : string Ring.t = Ring.create ~capacity:8192 () in
  let resp_ring : string Ring.t = Ring.create ~capacity:8192 () in
  let client_enc = Wire.Enc.create () and server_enc = Wire.Enc.create () in
  let stamps = ref [||] in
  let ticks = ref [] and tick_no = ref 0 in
  let full_retries = ref 0 and queue_rejects = ref 0 in
  let sent = ref 0 and answered = ref 0 in
  let origin = clock () in
  let deadline = Common.now_ns () + int_of_float (seconds *. 1e9) in
  let sending () = Common.now_ns () < deadline || !sent < min_ops in
  let stamp i =
    if i >= Array.length !stamps then begin
      let old = !stamps in
      stamps :=
        Array.init (max 1024 (2 * i)) (fun j ->
            if j < Array.length old then old.(j) else fresh ())
    end;
    !stamps.(i)
  in
  let respond resp =
    let out = Wire.encode_into server_enc Frame.response_codec resp in
    if not (Ring.try_push resp_ring out) then
      failwith "serve-gs: response ring overflow"
  in
  let send i =
    let st = stamp i in
    st.enc_start <- clock ();
    let bytes =
      Wire.encode_into client_enc Frame.request_codec (Frame.Submit (spec_of ~seed i))
    in
    st.enc_stop <- clock ();
    if Ring.try_push req_ring bytes then begin
      st.pushed <- clock ();
      st.bytes <- String.length bytes;
      incr sent;
      true
    end
    else begin
      incr full_retries;
      false
    end
  in
  while !answered < !sent || sending () do
    (* Client: every free client sends. *)
    while !sent - !answered < clients && sending () && send !sent do () done;
    (* Server: decode and admit. *)
    let rec admit () =
      match Ring.try_pop req_ring with
      | None -> ()
      | Some bytes ->
        let t0 = clock () in
        (match Wire.decode Frame.request_codec bytes with
        | Ok (Frame.Submit spec) ->
          let st = stamp spec.Frame.req_id in
          st.dec_start <- t0;
          st.dec_stop <- clock ();
          let resp = Server.submit server ~tick:!tick_no spec in
          st.submitted <- clock ();
          respond resp;
          st.admitted <- clock ()
        | Ok Frame.Bye | Error _ -> failwith "serve-gs: undecodable request");
        admit ()
    in
    admit ();
    let worked = Server.pending server > 0 in
    if worked then begin
      let t_start = clock () in
      let dones = Server.tick server ~tick:!tick_no in
      let t_stop = clock () in
      incr tick_no;
      ticks := { t_start; t_stop; size = List.length dones } :: !ticks;
      List.iter
        (fun resp ->
          (match resp with
          | Frame.Done { req_id; _ } ->
            !stamps.(req_id).tick_start <- t_start;
            !stamps.(req_id).tick_stop <- t_stop
          | _ -> ());
          respond resp)
        dones
    end;
    (* Client: collect answers. A reject is an answer, and a failed op. *)
    let rec collect () =
      match Ring.try_pop resp_ring with
      | None -> ()
      | Some bytes ->
        (match Wire.decode_exn Frame.response_codec bytes with
        | Frame.Accepted _ -> ()
        | Frame.Rejected { req_id; reason } ->
          if reason = Frame.Queue_full then incr queue_rejects;
          !stamps.(req_id).done_at <- clock ();
          incr answered
        | Frame.Done { req_id; outcome; _ } ->
          !stamps.(req_id).outcome <- Some outcome;
          !stamps.(req_id).done_at <- clock ();
          incr answered);
        collect ()
    in
    collect ();
    Calib.maybe calib
  done;
  Calib.sample calib;
  {
    origin;
    stamps = Array.sub !stamps 0 !sent;
    specs = Array.init !sent (spec_of ~seed);
    ticks = List.rev !ticks;
    full_retries = !full_retries;
    queue_rejects = !queue_rejects;
    end_ns = clock ();
    calib;
  }

(* --- analysis ---------------------------------------------------------------- *)

let latency_ms l i = Common.ms (l.stamps.(i).done_at - l.stamps.(i).enc_start)
let all l = List.init (Array.length l.stamps) Fun.id

(* The stable-matching layer of one request, re-assembled from the public
   calls [Server.execute] makes, timed in processor time, with
   domain-local GC deltas. *)
type gs_parts = {
  make_ns : int;
  gs_ns : int;
  verify_ns : int;
  proposals : int;
  rounds : int;
  stable : bool;
  gc : Common.gc;
}

let gs_parts (spec : Frame.spec) =
  match spec.Frame.workload with
  | Frame.Bsm _ -> invalid_arg "serve-gs: not a GS request"
  | Frame.Gs { k; seed; family } ->
    let g0 = Common.gc_sample () in
    let t0 = Common.thread_cpu_ns () in
    let flat = SM.Flat.make ~family ~seed ~k in
    let t1 = Common.thread_cpu_ns () in
    let l2r, stats = SM.Flat.gale_shapley flat in
    let t2 = Common.thread_cpu_ns () in
    let blocking = SM.Verify.exists_blocking (SM.Flat.verify_view flat ~l2r) in
    let t3 = Common.thread_cpu_ns () in
    {
      make_ns = t1 - t0;
      gs_ns = t2 - t1;
      verify_ns = t3 - t2;
      proposals = stats.SM.Gale_shapley.proposals;
      rounds = stats.SM.Gale_shapley.rounds;
      stable = not blocking;
      gc = Common.gc_delta g0 (Common.gc_sample ());
    }

(* The span tree of one answered request: a root from send to client
   decode, with the path's steps as consecutive children. *)
let request_spans l i =
  let st = l.stamps.(i) in
  let sp = Span.create ~op:i in
  Span.enter_at sp Span.Op ~start:st.enc_start;
  let iv layer a b = Span.interval sp layer ~start:a ~stop:b in
  iv Span.Encode st.enc_start st.enc_stop;
  iv Span.Ring_push st.enc_stop st.pushed;
  iv Span.Decode st.dec_start st.dec_stop;
  iv Span.Submit st.dec_stop st.submitted;
  iv Span.Respond st.submitted st.admitted;
  iv Span.Queue_wait st.admitted st.tick_start;
  iv Span.Tick st.tick_start st.tick_stop;
  iv Span.Respond st.tick_stop st.done_at;
  Span.leave_at sp ~stop:st.done_at;
  sp

let warmup_requests = 150

let run ~seed ~lanes ~setups ~trace stop =
  let seconds, min_ops =
    match stop with
    | Closed_loop.Seconds s -> s, Closed_loop.min_ops
    | Closed_loop.Batches b -> 0., 100 * b
  in
  (* Set-up: the pool and warm-up requests through a throwaway server (heap
     growth), in fresh pools [setups] times, each timed in processor time
     of the whole process; the first counts from process start. The
     warm-up requests come from a fixed seed. *)
  let setup first prev =
    let c0 = if first then 0 else Common.process_cpu_ns () in
    Option.iter Pool.shutdown prev;
    let pool = Pool.create ~jobs:lanes () in
    ignore
      (loop ~pool ~seed:Closed_loop.warmup_seed ~seconds:0.
         ~min_ops:warmup_requests);
    pool, Common.ms (Common.process_cpu_ns () - c0) /. 1e3
  in
  let rec setup_all n acc prev =
    let pool, s = setup (acc = []) prev in
    if n <= 1 then pool, List.rev (s :: acc) else setup_all (n - 1) (s :: acc) (Some pool)
  in
  let pool, setups_s = setup_all setups [] None in
  let s0 = Pool.stats pool and g0 = Gc.quick_stat () in
  let l = loop ~pool ~seed ~seconds ~min_ops in
  let s1 = Pool.stats pool and g1 = Gc.quick_stat () in
  let ids = all l in
  let n_sent = Array.length l.stamps in
  let failed =
    List.length
      (List.filter
         (fun i ->
           match l.stamps.(i).outcome with Some (Frame.Matched _) -> false | _ -> true)
         ids)
  in
  (* Correctness: every Done outcome equals [Server.execute] on its spec. *)
  let expected =
    Pool.map pool
      (fun i ->
        let spec = l.specs.(i) in
        fst (Server.execute ~chaos:false ~chaos_seed:0 ~max_rounds:None spec))
      ids
  in
  let mismatches =
    List.filter_map
      (fun (i, e) ->
        match l.stamps.(i).outcome with
        | Some o when o <> e ->
          Some (Printf.sprintf "request %d: Done outcome differs from Server.execute" i)
        | _ -> None)
      (List.combine ids expected)
  in
  (* The fingerprint's prefix and, in a traced run, every request,
     re-assembled for the stable-matching layer. *)
  let prefix = List.filter (fun i -> i < 100) ids in
  let parts =
    Pool.map pool (fun i -> i, gs_parts l.specs.(i)) (if trace then ids else prefix)
  in
  Pool.shutdown pool;
  let mismatches =
    mismatches
    @ List.filter_map
        (fun (i, p) ->
          match l.stamps.(i).outcome with
          | Some (Frame.Matched { rounds; _ }) when p.rounds = rounds && p.stable ->
            None
          | Some (Frame.Matched _) ->
            Some (Printf.sprintf "request %d: re-assembled GS differs from Done" i)
          | _ -> None)
        parts
  in
  let fp = Common.fingerprint () in
  List.iter
    (fun (i, p) ->
      if i < 100 then begin
        (match l.stamps.(i).outcome with
        | Some (Frame.Matched { fingerprint; rounds }) ->
          Common.absorb fp (Int64.to_int fingerprint);
          Common.count fp "rounds" rounds
        | _ -> Common.count fp "unmatched" 1);
        Common.count fp "proposals" p.proposals
      end)
    parts;
  let e2e, notes =
    (* Completed requests per second of the loop's processor time, which
       neither the host's other work nor the calibration samples reach. *)
    let window_s = Common.ms (l.end_ns - l.origin) /. 1e3 in
    let ops_per_s = float_of_int n_sent /. window_s in
    let lat = Common.sorted_of_list (List.map (latency_ms l) ids) in
    let p50 = Common.smooth_percentile lat 50. and p99 = Common.smooth_percentile lat 99. in
    let setup = Common.median setups_s in
    let slow = Calib.slowdown l.calib in
    ( [
        "setup_s", setup /. slow;
        "ops_per_s", ops_per_s *. slow;
        (* A closed loop queues nothing, so the rate it sustains is the
           completed rate. *)
        "max_rate_rps", ops_per_s *. slow;
        "op_ms_p50", p50 /. slow;
        "op_ms_p99", p99 /. slow;
        "ok_ratio", 1. -. Common.ratio (float_of_int failed) (float_of_int n_sent);
        "peak_rss_mb", Common.peak_rss_mb ();
      ],
      [
        Printf.sprintf
          "closed loop: %d clients, %d requests in %.3f s processor time (%.1f/s), \
           %d ticks"
          clients n_sent window_s ops_per_s (List.length l.ticks);
        Printf.sprintf
          "request latency, processor time: p50 %.3f ms, p99 %.3f ms (n=%d)" p50 p99
          n_sent;
        Printf.sprintf "setup: %s s processor time (median %.3f s)"
          (String.concat ", " (List.map (Printf.sprintf "%.3f") setups_s))
          setup;
        Calib.note l.calib;
      ] )
  in
  let profile = Span.profile () in
  let layers =
    if not trace then []
    else begin
      List.iter
        (fun i ->
          if l.stamps.(i).outcome <> None then Span.absorb profile (request_spans l i))
        ids;
      let mean f xs = Common.mean (List.map f xs) in
      let st i = l.stamps.(i) in
      let mean_us span = mean (fun i -> Common.us (span (st i))) ids in
      let ticks = List.filter (fun t -> t.size > 0) l.ticks in
      let sorted f xs = Common.sorted_of_list (List.map f xs) in
      let qwait =
        sorted (fun i -> Common.ms ((st i).tick_start - (st i).admitted)) ids
      in
      let tick_ms = sorted (fun t -> Common.ms (t.t_stop - t.t_start)) ticks in
      let ps = List.map snd parts in
      let gc = List.fold_left (fun acc p -> Common.gc_add acc p.gc) Common.gc_zero ps in
      let n = float_of_int (max 1 (List.length ps)) in
      let busy =
        List.fold_left (fun acc p -> acc + p.make_ns + p.gs_ns + p.verify_ns) 0 ps
      in
      let window_s = Common.ms (l.end_ns - l.origin) /. 1e3 in
      let unattributed =
        Common.ratio
          (float_of_int (Span.total_self profile Span.Op))
          (float_of_int profile.Span.op_wall_ns)
      in
      [
        "flat.make_us", mean (fun p -> Common.us p.make_ns) ps;
        "gs.ms", mean (fun p -> Common.ms p.gs_ns) ps;
        "gs.proposals", mean (fun p -> float_of_int p.proposals) ps;
        "verify.ms", mean (fun p -> Common.ms p.verify_ns) ps;
        "frame.encode_us", mean_us (fun s -> s.enc_stop - s.enc_start);
        "frame.decode_us", mean_us (fun s -> s.dec_stop - s.dec_start);
        "frame.request_bytes", mean (fun i -> float_of_int (st i).bytes) ids;
        "ring.full_retries", float_of_int l.full_retries;
        "server.submit_us", mean_us (fun s -> s.submitted - s.dec_stop);
        "server.queue_wait_ms_p50", Common.percentile qwait 50.;
        "server.queue_wait_ms_p99", Common.percentile qwait 99.;
        "server.tick_ms_p50", Common.percentile tick_ms 50.;
        "server.tick_ms_p99", Common.percentile tick_ms 99.;
        "server.batch_size", mean (fun t -> float_of_int t.size) ticks;
        "server.queue_rejects", float_of_int l.queue_rejects;
        "serve.covered_share", 1. -. unattributed;
        "pool.tasks", float_of_int (s1.Pool.tasks - s0.Pool.tasks);
        "pool.steals", float_of_int (s1.Pool.steals - s0.Pool.steals);
        "pool.busy_share", float_of_int busy /. 1e9 /. (window_s *. float_of_int lanes);
        "gc.minor_words_per_op", gc.Common.minor_words /. n;
        "gc.major_words_per_op", gc.Common.major_words /. n;
        ( "gc.major_collections",
          float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
        "trace.unattributed_share", unattributed;
        (* Spans are built after the loop from timestamps both modes take,
           so the traced run measures the same loop. *)
        "trace.overhead_share", 0.;
      ]
    end
  in
  ( {
      Common.attempted = n_sent;
      failed;
      mismatches;
      e2e;
      layers =
        layers
        @ [ "failed_ratio", Common.ratio (float_of_int failed) (float_of_int n_sent) ];
      fingerprint = Common.render_fingerprint fp;
      notes = (notes @ if trace then Span.split_lines profile else []);
    },
    profile )
