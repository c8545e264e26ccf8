(* Tests for the serve layer: SPSC ring ordering under real concurrency,
   admission/backpressure, instance-table lifecycle, seq==par (and
   run-to-run) determinism of the open-loop load bench, bit-identity of
   pooled engine runs against the sequential loop (every fault kind), the socket
   transport end to end, and the Pool.shutdown regression for
   long-running serve loops. *)

open Bsm_prelude
module Serve = Bsm_serve
module Ring = Serve.Ring
module Frame = Serve.Frame
module Instances = Serve.Instances
module Server = Serve.Server
module Engine = Bsm_runtime.Engine
module Pool = Bsm_runtime.Pool
module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire
module SM = Bsm_stable_matching
module Core = Bsm_core
module Schedule = Bsm_chaos.Schedule

(* --- ring ---------------------------------------------------------------- *)

let test_ring_spsc_ordering () =
  (* A real producer/consumer pair across domains, with a ring small
     enough to wrap many times and turn both sides away (full, empty).
     A side that is turned away yields its CPU rather than spinning, so
     the test stays fast when the two domains share one CPU. *)
  let n = 10_000 in
  let ring = Ring.create ~capacity:8 () in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          while not (Ring.try_push ring i) do
            Unix.sleepf 0.
          done
        done)
  in
  let received = ref [] in
  let rec consume got =
    if got < n then
      match Ring.try_pop ring with
      | Some v ->
        received := v :: !received;
        consume (got + 1)
      | None ->
        Unix.sleepf 0.;
        consume got
  in
  consume 0;
  Domain.join producer;
  Alcotest.(check int) "all received" n (List.length !received);
  Alcotest.(check (list int)) "FIFO order" (List.init n Fun.id) (List.rev !received)

let test_ring_try_ops_and_close () =
  let ring = Ring.create ~capacity:3 () in
  Alcotest.(check int) "capacity rounds up" 4 (Ring.capacity ring);
  for i = 0 to 3 do
    Alcotest.(check bool) "push fits" true (Ring.try_push ring i)
  done;
  Alcotest.(check bool) "full" false (Ring.try_push ring 99);
  Alcotest.(check int) "length" 4 (Ring.length ring);
  Alcotest.(check (option int)) "pop" (Some 0) (Ring.try_pop ring);
  Alcotest.(check bool) "space again" true (Ring.try_push ring 4)

(* --- admission / backpressure -------------------------------------------- *)

let gs_spec ?(k = 4) req_id =
  { Frame.req_id; workload = Frame.Gs { k; seed = req_id; family = SM.Flat.Uniform } }

let server ?(queue_capacity = 4) ?(batch = 64) ?(chaos = false) () =
  Server.create
    ~pool:(Pool.create ~jobs:1 ())
    ~config:
      { Server.default_config with queue_capacity; batch; max_k = 64; chaos }
    ()

let test_backpressure_reject () =
  let s = server ~queue_capacity:4 () in
  let answers = List.init 6 (fun i -> Server.submit s ~tick:0 (gs_spec i)) in
  let accepted =
    List.filter (function Frame.Accepted _ -> true | _ -> false) answers
  in
  let full =
    List.filter
      (function Frame.Rejected { reason = Frame.Queue_full; _ } -> true | _ -> false)
      answers
  in
  Alcotest.(check int) "queue capacity admitted" 4 (List.length accepted);
  Alcotest.(check int) "overflow shed with Queue_full" 2 (List.length full);
  (* Retiring the queue reopens admission. *)
  let dones = Server.tick s ~tick:1 in
  Alcotest.(check int) "batch retired" 4 (List.length dones);
  (match Server.submit s ~tick:2 (gs_spec 10) with
  | Frame.Accepted _ -> ()
  | r -> Alcotest.failf "expected acceptance, got %a" Frame.pp_response r);
  (* Typed rejects for the other admission failures. *)
  (match Server.submit s ~tick:2 (gs_spec ~k:1000 11) with
  | Frame.Rejected { reason = Frame.Too_large; _ } -> ()
  | r -> Alcotest.failf "expected Too_large, got %a" Frame.pp_response r);
  (match Server.submit s ~tick:2 (gs_spec 10) with
  | Frame.Rejected { reason = Frame.Unsolvable; _ } -> ()
  | r -> Alcotest.failf "expected duplicate reject, got %a" Frame.pp_response r);
  Server.close s;
  match Server.submit s ~tick:3 (gs_spec 12) with
  | Frame.Rejected { reason = Frame.Shutting_down; _ } -> ()
  | r -> Alcotest.failf "expected Shutting_down, got %a" Frame.pp_response r

let test_lifecycle_transitions () =
  let t = Instances.create () in
  let r = Instances.add t ~tick:0 (gs_spec 1) in
  Alcotest.(check int) "submitted" 1 (Instances.count t Instances.Submitted);
  Instances.transition t r Instances.Running;
  Alcotest.(check int) "running" 1 (Instances.count t Instances.Running);
  Instances.finish t r ~tick:3 (Frame.Matched { fingerprint = 7L; rounds = 2 });
  Alcotest.(check int) "matched" 1 (Instances.count t Instances.Matched);
  Alcotest.(check int) "nothing pending" 0 (Instances.pending t);
  (* Illegal moves raise: finality is absorbing, Submitted can't skip
     Running, duplicates are refused. *)
  Alcotest.check_raises "finished records are frozen"
    (Invalid_argument "Instances.transition: matched -> running (req #1)")
    (fun () -> Instances.transition t r Instances.Running);
  let r2 = Instances.add t ~tick:4 (gs_spec 2) in
  Alcotest.check_raises "no skipping Running"
    (Invalid_argument "Instances.transition: submitted -> matched (req #2)")
    (fun () -> Instances.transition t r2 Instances.Matched);
  Alcotest.check_raises "duplicate live req_id"
    (Invalid_argument "Instances.add: duplicate req_id 2") (fun () ->
      ignore (Instances.add t ~tick:5 (gs_spec 2)));
  (* The Timed_out leg. *)
  Instances.transition t r2 Instances.Running;
  Instances.finish t r2 ~tick:9 Frame.Timed_out;
  Alcotest.(check int) "timed out" 1 (Instances.count t Instances.Timed_out);
  Alcotest.(check int) "total admitted" 2 (Instances.total t)

let test_instance_table_bounded () =
  let s = server ~queue_capacity:4 () in
  let n = 1_000 in
  for i = 0 to n - 1 do
    (match Server.submit s ~tick:i (gs_spec i) with
    | Frame.Accepted _ -> ()
    | r -> Alcotest.failf "request %d: %a" i Frame.pp_response r);
    match Server.tick s ~tick:i with
    | [ Frame.Done { req_id; outcome = Frame.Matched _; _ } ] when req_id = i -> ()
    | _ -> Alcotest.failf "request %d: expected one Matched Done" i
  done;
  let t = Server.instances s in
  for i = 0 to n - 1 do
    if Instances.find t i <> None then Alcotest.failf "finished %d still in the table" i
  done;
  let states =
    Instances.[ Submitted; Running; Matched; Failed; Timed_out ]
  in
  Alcotest.(check int) "counts sum to total" (Instances.total t)
    (List.fold_left (fun acc st -> acc + Instances.count t st) 0 states);
  Alcotest.(check int) "every request counted" n (Instances.total t);
  Alcotest.(check int) "all matched" n (Instances.count t Instances.Matched);
  (* Only a duplicate live id is refused: a finished one is new again. *)
  match Server.submit s ~tick:n (gs_spec 0) with
  | Frame.Accepted { req_id = 0 } -> ()
  | r -> Alcotest.failf "finished req_id resubmitted: %a" Frame.pp_response r

(* (family, k, (rounds, fingerprint)) of the GS request at seed 1, as
   computed by the permutation-per-probe implementation. *)
let pinned_gs_answers =
  SM.Flat.
    [
      Uniform, 64, (43, 0x490e4239ca70916dL);
      Uniform, 1000, (2480, 0xaf1cdf2112b648cbL);
      Uniform, 4096, (5375, 0x57f2ca2f3caf4c11L);
      Common_acceptors, 64, (54, 0x721946bf63ea4b31L);
      Common_acceptors, 1000, (772, 0xd820768d5723412cL);
      Common_acceptors, 4096, (1722, 0xdb947121fcfe3305L);
    ]

let execute = Server.execute ~chaos:false ~chaos_seed:0 ~max_rounds:None

let test_gs_answers_pinned () =
  List.iter
    (fun (family, k, (rounds, fingerprint)) ->
      let spec = { Frame.req_id = 0; workload = Frame.Gs { k; seed = 1; family } } in
      let name = Printf.sprintf "%s k=%d" (SM.Flat.family_to_string family) k in
      match execute spec with
      | Frame.Matched m, false ->
        Alcotest.(check int) (name ^ " rounds") rounds m.rounds;
        Alcotest.(check int64) (name ^ " fingerprint") fingerprint m.fingerprint
      | _ -> Alcotest.failf "%s: expected a Matched answer" name)
    pinned_gs_answers

(* On OCaml 5.1 an array above 256 words goes straight to the major heap,
   so [major_words - promoted_words] counts every O(k) block a call
   makes. *)
let test_warm_gs_request_allocates_no_block () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun family ->
        let spec =
          { Frame.req_id = 0; workload = Frame.Gs { k = 4096; seed = 9; family } }
        in
        let first = execute spec in
        let _, promoted0, major0 = Gc.counters () in
        let second = execute spec in
        let _, promoted1, major1 = Gc.counters () in
        Alcotest.(check bool) "same answer" true (first = second);
        Alcotest.(check (float 0.)) "no direct major allocation" 0.
          (major1 -. major0 -. (promoted1 -. promoted0)))
      [ SM.Flat.Uniform; SM.Flat.Common_acceptors ]

(* --- determinism --------------------------------------------------------- *)

let bench_params ~jobs ~chaos =
  {
    Serve.Serve_bench.default_params with
    instances = 120;
    seed = 5;
    jobs;
    queue_capacity = 16;
    batch = 8;
    k_min = 4;
    k_max = 12;
    mean_gap = 0;
    chaos;
  }

let check_same_results (a : Serve.Serve_bench.results) (b : Serve.Serve_bench.results)
    =
  Alcotest.(check int) "ticks" a.ticks b.ticks;
  Alcotest.(check int) "matched" a.matched b.matched;
  Alcotest.(check int) "failed" a.failed b.failed;
  Alcotest.(check int) "queue rejects" a.queue_rejects b.queue_rejects;
  Alcotest.(check int) "p50" a.p50_ticks b.p50_ticks;
  Alcotest.(check int) "p99" a.p99_ticks b.p99_ticks;
  Alcotest.(check string) "fingerprint" (Int64.to_string a.fingerprint)
    (Int64.to_string b.fingerprint);
  Alcotest.(check int) "request bytes" a.request_bytes b.request_bytes;
  Alcotest.(check int) "response bytes" a.response_bytes b.response_bytes

let test_load_seq_equals_par () =
  let seq = Serve.Serve_bench.run (bench_params ~jobs:1 ~chaos:false) in
  let par = Serve.Serve_bench.run (bench_params ~jobs:3 ~chaos:false) in
  Alcotest.(check int) "all matched" 120 seq.matched;
  check_same_results seq par;
  (* And bit-identical JSON across two runs at the same jobs. *)
  let again = Serve.Serve_bench.run (bench_params ~jobs:1 ~chaos:false) in
  Alcotest.(check string) "replayable JSON"
    (Json.to_string (Serve.Serve_bench.to_json seq))
    (Json.to_string (Serve.Serve_bench.to_json again))

let test_chaos_on_live_within_budget () =
  let r = Serve.Serve_bench.run { (bench_params ~jobs:2 ~chaos:true) with instances = 40 } in
  Alcotest.(check int) "no oracle violations" 0 r.violations;
  Alcotest.(check int) "all matched under within-budget chaos" 40 r.matched

(* --- live: pooled resumes vs the sequential loop ------------------------- *)

(* The five feasibility mechanisms, each pinned to a setting whose plan
   selects it. *)
let mechanism_settings ~k =
  let third = (k - 1) / 3 and half = (k - 1) / 2 in
  let make topology auth ~tl ~tr =
    Core.Setting.make_exn ~k ~topology ~auth ~t_left:tl ~t_right:tr
  in
  let unauth = Core.Setting.Unauthenticated and auth = Core.Setting.Authenticated in
  [
    "phase king", make Topology.Fully_connected unauth ~tl:third ~tr:k;
    "Dolev-Strong", make Topology.Fully_connected auth ~tl:k ~tr:k;
    "Pi_bSM", make Topology.Bipartite auth ~tl:third ~tr:k;
    "majority proxy", make Topology.One_sided unauth ~tl:0 ~tr:half;
    "signature proxy", make Topology.One_sided auth ~tl:third ~tr:(k - 1);
  ]

(* One schedule per fault kind, aimed at R0, each compiled with a seed of
   its own name. *)
let fault_kinds kinds =
  List.map (fun (name, s) -> name, Schedule.compile ~seed:(Hashtbl.hash name) s) kinds

let r0 = Party_id.right 0

(* Omissions and in-flight corruption. *)
let message_faults =
  let corrupt kind = Schedule.corrupt ~rate:0.3 ~kind r0 in
  fault_kinds
    [
      "send omission", Schedule.send_omission ~rate:0.4 r0;
      "receive omission", Schedule.receive_omission ~rate:0.4 r0;
      "crash", Schedule.crash r0 ~at_round:1;
      "bit flip", corrupt Bsm_chaos.Mutation.Bit_flip;
      ( "replay + truncate",
        Schedule.all
          [
            Schedule.corrupt ~rate:0.25 ~kind:Bsm_chaos.Mutation.Replay r0;
            Schedule.corrupt ~rate:0.25 ~kind:Bsm_chaos.Mutation.Truncate r0;
          ] );
      "forge sender", corrupt Bsm_chaos.Mutation.Forge_sender;
    ]

let state_faults =
  fault_kinds
    [
      "corrupt state 1.0", Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1;
      "corrupt state 0.6", Schedule.corrupt_state ~rate:0.6 r0 ~at_round:2;
    ]

(* One case: the whole traced result of the sequential loop and of the
   pool batches must agree, and the pool must have run exactly one task
   per fiber start or resume. Returns the sequential result. *)
let check_pooled pool name ~k ~link ~max_rounds ~faults programs =
  let cfg = Engine.config ~k ~link ~max_rounds ~faults ~trace_limit:1_000_000 () in
  let seq = Engine.run cfg ~programs in
  let resumes = Atomic.make 0 in
  let counted p env =
    programs p
      {
        env with
        Engine.next_round =
          (fun () ->
            let inbox = env.Engine.next_round () in
            Atomic.incr resumes;
            inbox);
      }
  in
  let before = (Pool.stats pool).Pool.tasks in
  let par = Engine.run ~pool cfg ~programs:counted in
  Alcotest.(check int)
    (name ^ ": one task per start or resume")
    ((2 * k) + Atomic.get resumes)
    ((Pool.stats pool).Pool.tasks - before);
  let same what field =
    Alcotest.(check bool) (name ^ ": " ^ what) true (field seq = field par)
  in
  same "parties" (fun r -> r.Engine.parties);
  same "metrics" (fun r -> r.Engine.metrics);
  same "trace" (fun r -> r.Engine.trace);
  seq

let gs_program profile p =
  Core.Distributed_gs.program ~input:(SM.Profile.prefs profile p) ~self:p

let table_profile k = SM.Profile.random (Rng.make (17 * k)) k
let bipartite = Engine.Of_topology Topology.Bipartite

(* Every mechanism at k = 4 and distributed GS at k = 2, 3 under each
   schedule of [kinds]; returns the metrics of every case. *)
let check_table pool kinds =
  List.concat_map
    (fun (kind, faults) ->
      List.map
        (fun (mechanism, setting) ->
          let k = setting.Core.Setting.k in
          let plan = Core.Select.plan_exn setting in
          let pki = Bsm_crypto.Crypto.Pki.setup ~k ~seed:k in
          let input p = SM.Profile.prefs (table_profile k) p in
          check_pooled pool (mechanism ^ ", " ^ kind) ~k
            ~link:(Engine.Of_topology setting.Core.Setting.topology)
            ~max_rounds:2000 ~faults
            (fun p -> plan.Core.Select.program ~pki ~input:(input p) ~self:p))
        (mechanism_settings ~k:4)
      @ List.map
          (fun k ->
            check_pooled pool (Printf.sprintf "GS k=%d, %s" k kind) ~k ~link:bipartite
              ~max_rounds:(Core.Distributed_gs.rounds_bound ~k + 2)
              ~faults
              (gs_program (table_profile k)))
          [ 2; 3 ])
    kinds
  |> List.map (fun r -> r.Engine.metrics)

(* The cases must reach the fate the schedules aim at. *)
let check_seen metrics what f =
  Alcotest.(check bool) (what ^ " seen") true (List.exists (fun m -> f m > 0) metrics)

let test_live_equals_engine () =
  (match Serve.Serve_bench.live_check ~k:3 ~seed:11 with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "live check diverged: %s" msg);
  Pool.with_pool ~jobs:2 @@ fun pool ->
  ignore (check_table pool [ "honest", Engine.no_faults ]);
  let gs2 = gs_program (table_profile 2) in
  (* A program that raises mid-run crashes with the same text on a lane. *)
  let raising p env =
    if Party_id.equal p (Party_id.left 1) then begin
      ignore (env.Engine.next_round ());
      env.Engine.send (Party_id.right 0) "last words";
      failwith "boom in round 1"
    end
    else gs2 p env
  in
  let r =
    check_pooled pool "raises mid-run" ~k:2 ~link:bipartite ~max_rounds:20
      ~faults:Engine.no_faults raising
  in
  Alcotest.(check bool) "crashed" true
    ((Engine.find_result r (Party_id.left 1)).Engine.status
    = Engine.Crashed (Printexc.to_string (Failure "boom in round 1")));
  (* A program that outlives the round budget is still waiting at the cap. *)
  let forever p env =
    if Party_id.equal p (Party_id.right 1) then
      while true do
        env.Engine.send (Party_id.left 0) "tick";
        ignore (env.Engine.next_round ())
      done
    else gs2 p env
  in
  let r =
    check_pooled pool "outlives max_rounds" ~k:2 ~link:bipartite ~max_rounds:7
      ~faults:Engine.no_faults forever
  in
  Alcotest.(check bool) "out of rounds" true
    ((Engine.find_result r (Party_id.right 1)).Engine.status = Engine.Out_of_rounds)

let test_live_equals_engine_under_faults () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let metrics = check_table pool message_faults in
  (* Send omission at R0 plus a bit flip at L1 limited to rounds 1..3. *)
  let windowed =
    Schedule.all
      [
        Schedule.send_omission ~rate:0.3 r0;
        Schedule.during ~from_round:1 ~until_round:3
          (Schedule.corrupt ~rate:0.5 ~kind:Bsm_chaos.Mutation.Bit_flip
             (Party_id.left 1));
      ]
  in
  let r =
    check_pooled pool "GS k=2, omission + windowed bit flip" ~k:2 ~link:bipartite
      ~max_rounds:40
      ~faults:(Schedule.compile ~seed:9 windowed)
      (gs_program (SM.Profile.random (Rng.make 3) 2))
  in
  let metrics = r.Engine.metrics :: metrics in
  check_seen metrics "omissions" (fun m -> m.Engine.messages_dropped_fault);
  check_seen metrics "corruptions" (fun m -> m.Engine.messages_corrupted)

let test_live_equals_engine_under_state_corruption () =
  Pool.with_pool ~jobs:2 @@ fun pool ->
  let metrics = check_table pool state_faults in
  (* Two parties scrambled from different rounds: the fibers must register
     the same cells in the same order on the lanes as on the calling
     domain, so the scramble draws the same hashes. *)
  let two_parties =
    Schedule.all
      [
        Schedule.corrupt_state ~rate:1.0 r0 ~at_round:1;
        Schedule.corrupt_state ~rate:0.7 (Party_id.left 0) ~at_round:2;
      ]
  in
  let r =
    check_pooled pool "GS k=2, corrupt state at R0 and L0" ~k:2 ~link:bipartite
      ~max_rounds:60
      ~faults:(Schedule.compile ~seed:4 two_parties)
      (gs_program (SM.Profile.random (Rng.make 5) 2))
  in
  check_seen (r.Engine.metrics :: metrics) "scrambles" (fun m -> m.Engine.cells_scrambled)

(* --- socket transport ---------------------------------------------------- *)

let test_uds_end_to_end () =
  let path = Filename.temp_file "bsm-serve" ".sock" in
  Sys.remove path;
  let listener = Serve.Uds.listen ~path in
  let n = 5 in
  let client =
    Domain.spawn (fun () ->
        let c = Serve.Uds.connect ~path in
        for i = 0 to n - 1 do
          Serve.Uds.send c (Frame.Submit (gs_spec i))
        done;
        let dones = ref 0 and matched = ref 0 in
        while !dones < n do
          match Serve.Uds.recv c with
          | Some (Frame.Done { outcome = Frame.Matched _; _ }) ->
            incr dones;
            incr matched
          | Some (Frame.Done _) -> incr dones
          | Some (Frame.Accepted _) -> ()
          | Some (Frame.Rejected _) -> incr dones
          | None -> failwith "server closed early"
        done;
        Serve.Uds.send c Frame.Bye;
        Serve.Uds.close c;
        !matched)
  in
  let s = server ~queue_capacity:16 () in
  let routes = Hashtbl.create 8 in
  let served = ref 0 in
  let tick = ref 0 in
  while !served < n do
    incr tick;
    if !tick > 10_000 then failwith "uds test: no progress";
    List.iter
      (fun event ->
        match event with
        | Serve.Uds.Request (conn, Frame.Submit spec) ->
          let resp = Server.submit s ~tick:!tick spec in
          (match resp with
          | Frame.Accepted _ -> Hashtbl.replace routes spec.Frame.req_id conn
          | _ -> ());
          Serve.Uds.respond listener conn resp
        | Serve.Uds.Request (conn, Frame.Bye) -> Serve.Uds.drop listener conn
        | Serve.Uds.Bad_frame (_, reason) -> Alcotest.failf "bad frame: %s" reason
        | Serve.Uds.Connect _ | Serve.Uds.Disconnect _ -> ())
      (Serve.Uds.poll listener ~timeout_s:0.01);
    List.iter
      (fun resp ->
        match resp with
        | Frame.Done { req_id; _ } ->
          incr served;
          (match Hashtbl.find_opt routes req_id with
          | Some conn -> Serve.Uds.respond listener conn resp
          | None -> ())
        | _ -> ())
      (Server.tick s ~tick:!tick)
  done;
  let matched = Domain.join client in
  Serve.Uds.shutdown listener;
  Alcotest.(check int) "all matched over the socket" n matched

let test_uds_rejects_bad_frames () =
  (* A byzantine client: a giant length prefix, or one that [Wire.uint]
     rejects because it overflows the word, must be a Bad_frame event,
     not an allocation, a crash or a request. A valid request written one
     byte per [write] must still arrive as one request. *)
  let path = Filename.temp_file "bsm-serve" ".sock" in
  Sys.remove path;
  let listener = Serve.Uds.listen ~path in
  let first_event ?(bytewise = false) bytes =
    let writer =
      Domain.spawn (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX path);
          let b = Bytes.of_string bytes in
          if bytewise then
            Bytes.iteri
              (fun i _ ->
                ignore (Unix.write fd b i 1);
                Unix.sleepf 0.002)
              b
          else ignore (Unix.write fd b 0 (Bytes.length b));
          fd)
    in
    let deadline = Unix.gettimeofday () +. 5. in
    let rec wait () =
      if Unix.gettimeofday () > deadline then Alcotest.fail "no Request or Bad_frame event"
      else
        match
          List.find_opt
            (function
              | Serve.Uds.Bad_frame _ | Serve.Uds.Request _ -> true
              | Serve.Uds.Connect _ | Serve.Uds.Disconnect _ -> false)
            (Serve.Uds.poll listener ~timeout_s:0.05)
        with
        | Some event -> event
        | None -> wait ()
    in
    let event = wait () in
    Unix.close (Domain.join writer);
    event
  in
  let bad name bytes =
    match first_event bytes with
    | Serve.Uds.Bad_frame _ -> ()
    | _ -> Alcotest.failf "%s: expected a Bad_frame event" name
  in
  bad "giant prefix" "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f";
  bad "prefix overflowing the word"
    ("\x81\x80\x80\x80\x80\x80\x80\x80\x80\x02" ^ Wire.encode Frame.request_codec Frame.Bye);
  let spec = gs_spec 7 in
  let request = Wire.encode Frame.request_codec (Frame.Submit spec) in
  (match first_event ~bytewise:true (Wire.encode Wire.string request) with
  | Serve.Uds.Request (_, Frame.Submit got) ->
    Alcotest.(check bool) "the request arrives whole" true (got = spec)
  | _ -> Alcotest.fail "a request written byte by byte did not arrive");
  Serve.Uds.shutdown listener

(* --- frame codecs -------------------------------------------------------- *)

let test_frame_codecs_roundtrip () =
  let rng = Rng.make 21 in
  for _ = 1 to 200 do
    let w = Frame.gen_workload rng in
    Alcotest.(check bool) "workload" true
      (Wire.decode_exn Frame.workload_codec (Wire.encode Frame.workload_codec w) = w);
    let q = Frame.gen_request rng in
    Alcotest.(check bool) "request" true
      (Wire.decode_exn Frame.request_codec (Wire.encode Frame.request_codec q) = q);
    let r = Frame.gen_response rng in
    Alcotest.(check bool) "response" true
      (Wire.decode_exn Frame.response_codec (Wire.encode Frame.response_codec r) = r)
  done;
  (* Hardened decode: truncation and budget violations are Errors. *)
  let bytes = Wire.encode Frame.workload_codec (gs_spec 0).Frame.workload in
  Alcotest.(check bool) "truncated rejected" true
    (Result.is_error
       (Wire.decode Frame.workload_codec (String.sub bytes 0 (String.length bytes - 1))));
  let invalid =
    (* Bsm with t_left > k must not decode. *)
    let buf = Wire.Enc.create () in
    Wire.Enc.tag buf 1;
    Wire.Enc.uint buf 2 (* k *);
    Wire.Enc.uint buf 0 (* topology *);
    Wire.Enc.uint buf 1 (* auth *);
    Wire.Enc.uint buf 3 (* t_left > k *);
    Wire.Enc.uint buf 0;
    Wire.Enc.int buf 0;
    Wire.Enc.int buf 0;
    Wire.Enc.bool buf false;
    Wire.Enc.to_string buf
  in
  Alcotest.(check bool) "over-budget setting rejected" true
    (Result.is_error (Wire.decode Frame.workload_codec invalid))

(* Every frame shape's bytes, pinned as hex: each value must encode to
   its pinned bytes and decode back from them. The bSM submissions come
   from the fuzz generator, whose draws are fixed by its seed. *)
let check_pinned_hex name codec pins =
  List.iteri
    (fun i (v, hex) ->
      let what = Printf.sprintf "%s %d" name i in
      Alcotest.(check string) what hex (Wire.to_hex (Wire.encode codec v));
      Alcotest.(check bool) (what ^ " decodes") true
        (Wire.decode_exn codec (Wire.of_hex hex) = v))
    pins

let pinned_bsm_submits =
  let rng = Rng.make 3 in
  List.init 24 (fun _ -> Frame.gen_workload rng)
  |> List.filter (function Frame.Bsm _ -> true | Frame.Gs _ -> false)
  |> List.mapi (fun i workload -> Frame.Submit { req_id = 10 + i; workload })

let pinned_bsm_hex =
  [
    "000a010201010202cc4bd63d00";
    "000b010601010301aa7ade2f00";
    "000c0104020004029c03be0100";
    "000d010201000102b67ed46301";
    "000e010302010302ba098c6901";
    "000f010502010300e442c88d0100";
    "0010010102000101ec9101e66d01";
    "0011010501000403f28301ac6900";
    "0012010202010100bc29c8960101";
    "0013010400010304c29601d63a00";
    "00140101000100019270a21700";
    "00150103020000039a35981901";
    "0016010300000003f63bc83300";
    "0017010501000500ec9a01e42a00";
    "0018010600010501d02b842800";
  ]

let test_frame_bytes_pinned () =
  let gs family =
    Frame.Submit { req_id = 130; workload = Frame.Gs { k = 300; seed = -5; family } }
  in
  check_pinned_hex "request" Frame.request_codec
    [
      gs SM.Flat.Uniform, "00820100ac020900";
      gs SM.Flat.Common_acceptors, "00820100ac020901";
      Frame.Bye, "01";
    ];
  check_pinned_hex "bsm submit" Frame.request_codec
    (List.combine pinned_bsm_submits pinned_bsm_hex);
  (* The submissions cover every topology and every auth: bytes 4 and 5
     of a bSM submission (tag, one-byte id, tag, k) are their tags. *)
  let tags =
    List.sort_uniq compare
      (List.map (fun h -> String.sub h 8 2, String.sub h 10 2) pinned_bsm_hex)
  in
  Alcotest.(check int) "topology x auth covered" 6 (List.length tags);
  let done_ outcome = Frame.Done { req_id = 77; outcome; arrival_tick = 3; done_tick = 900 } in
  check_pinned_hex "response" Frame.response_codec
    [
      Frame.Accepted { req_id = 129 }, "008101";
      Frame.Rejected { req_id = 5; reason = Frame.Queue_full }, "010500";
      Frame.Rejected { req_id = 5; reason = Frame.Too_large }, "010501";
      Frame.Rejected { req_id = 5; reason = Frame.Unsolvable }, "010502";
      Frame.Rejected { req_id = 5; reason = Frame.Shutting_down }, "010503";
      done_ (Frame.Matched { fingerprint = 0x8123_4567_89ab_cdefL; rounds = 12 }),
      "024d00ef9bafcd08e78a8d89080c038407";
      done_ (Frame.Matched { fingerprint = 7L; rounds = 0 }), "024d00070000038407";
      done_ (Frame.Failed "unstable matching"),
      "024d0111756e737461626c65206d61746368696e67038407";
      done_ Frame.Timed_out, "024d02038407";
    ]

(* --- pool shutdown regression -------------------------------------------- *)

let test_shutdown_waits_for_inflight_map () =
  (* The serve-loop scenario: one domain is mid-[map] on the pool when
     another calls [shutdown]. Shutdown must wait for the batch (the
     map completes, results intact), stay idempotent, and leave later
     maps rejected. *)
  let pool = Pool.create ~jobs:2 () in
  let started = Atomic.make false in
  let mapper =
    Domain.spawn (fun () ->
        Pool.map pool
          (fun i ->
            Atomic.set started true;
            Unix.sleepf 0.002;
            i * i)
          (List.init 200 Fun.id))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  let results = Domain.join mapper in
  Alcotest.(check (list int))
    "in-flight map completed under shutdown"
    (List.init 200 (fun i -> i * i))
    results;
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Pool.map: pool is shut down") (fun () ->
      ignore (Pool.map pool Fun.id [ 1 ]))

(* --- readiness (poll-based) --------------------------------------------- *)

let test_readiness_pipe () =
  (* A pipe with nothing written is not readable; after a write it is;
     after the write end closes, the hangup must read as ready (the
     read path observes EOF), exactly like select. *)
  let r, w = Unix.pipe () in
  let ready () = Serve.Readiness.readable [| r |] ~timeout_s:0. in
  Alcotest.(check (array bool)) "empty pipe not ready" [| false |] (ready ());
  let n = Unix.write w (Bytes.of_string "x") 0 1 in
  Alcotest.(check int) "wrote one byte" 1 n;
  Alcotest.(check (array bool)) "pending byte ready" [| true |] (ready ());
  let b = Bytes.create 1 in
  ignore (Unix.read r b 0 1);
  Alcotest.(check (array bool)) "drained pipe not ready" [| false |] (ready ());
  Unix.close w;
  Alcotest.(check (array bool)) "closed writer reads as ready (EOF)" [| true |]
    (ready ());
  Unix.close r

let test_readiness_many_fds () =
  (* One readable descriptor among many idle ones: exactly its slot
     flips, at the right index. *)
  let pipes = Array.init 16 (fun _ -> Unix.pipe ()) in
  let hot = 11 in
  ignore (Unix.write (snd pipes.(hot)) (Bytes.of_string "!") 0 1);
  let fds = Array.map fst pipes in
  let ready = Serve.Readiness.readable fds ~timeout_s:0. in
  Array.iteri
    (fun i r -> Alcotest.(check bool) (Printf.sprintf "slot %d" i) (i = hot) r)
    ready;
  Array.iter
    (fun (r, w) ->
      Unix.close r;
      Unix.close w)
    pipes

let test_readiness_timeout_waits () =
  (* A positive timeout on an idle fd returns not-ready (and does not
     hang forever — reaching the assertion is the test). *)
  let r, w = Unix.pipe () in
  let ready = Serve.Readiness.readable [| r |] ~timeout_s:0.01 in
  Alcotest.(check (array bool)) "timed out, nothing ready" [| false |] ready;
  Unix.close r;
  Unix.close w

let () =
  Alcotest.run "serve"
    [
      ( "ring",
        [
          Alcotest.test_case "spsc ordering across domains" `Quick
            test_ring_spsc_ordering;
          Alcotest.test_case "try ops and close" `Quick test_ring_try_ops_and_close;
        ] );
      ( "server",
        [
          Alcotest.test_case "backpressure and typed rejects" `Quick
            test_backpressure_reject;
          Alcotest.test_case "instance lifecycle" `Quick test_lifecycle_transitions;
          Alcotest.test_case "instance table holds live requests only" `Quick
            test_instance_table_bounded;
          Alcotest.test_case "GS answers pinned" `Quick test_gs_answers_pinned;
          Alcotest.test_case "warm GS request allocates no O(k) block" `Quick
            test_warm_gs_request_allocates_no_block;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "load bench seq == par" `Quick test_load_seq_equals_par;
          Alcotest.test_case "chaos-on-live within budget" `Quick
            test_chaos_on_live_within_budget;
        ] );
      ( "live",
        [
          Alcotest.test_case "live == engine (fault-free)" `Quick
            test_live_equals_engine;
          Alcotest.test_case "live == engine (faults + corruption)" `Quick
            test_live_equals_engine_under_faults;
          Alcotest.test_case "live == engine (state corruption)" `Quick
            test_live_equals_engine_under_state_corruption;
        ] );
      ( "readiness",
        [
          Alcotest.test_case "pipe readiness and EOF hangup" `Quick
            test_readiness_pipe;
          Alcotest.test_case "one hot fd among many" `Quick test_readiness_many_fds;
          Alcotest.test_case "timeout returns not-ready" `Quick
            test_readiness_timeout_waits;
        ] );
      ( "uds",
        [
          Alcotest.test_case "end to end over a socket" `Quick test_uds_end_to_end;
          Alcotest.test_case "bad frames drop the connection" `Quick
            test_uds_rejects_bad_frames;
        ] );
      ( "frames",
        [
          Alcotest.test_case "codec roundtrips and hardening" `Quick
            test_frame_codecs_roundtrip;
          Alcotest.test_case "frame bytes pinned" `Quick test_frame_bytes_pinned;
        ] );
      ( "pool-shutdown",
        [
          Alcotest.test_case "waits for in-flight map" `Quick
            test_shutdown_waits_for_inflight_map;
        ] );
    ]
