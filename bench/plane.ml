(* Message-plane micro-bench: the three legs of the batched delivery
   path, timed separately.

   - encode: in-place arena encodes through a reused [Wire.Enc.t], frame
     spans carved from the running length (exactly what the engine's
     send handlers do);
   - deliver: a full [Engine.run] where every party broadcasts each
     round — the engine's own arena freeze + single delivery pass;
   - decode: [Wire.decode_slice] straight out of frozen arenas, no copy.

   Writes BENCH_plane.json. Every field except the [*_ms] walls is
   deterministic (counters and the fingerprint depend only on the
   workload parameters), so diffs of the file are meaningful and
   [tools/bench_compare] can gate the walls at 20% + 1 ms. *)

open Bsm_prelude
module Wire = Bsm_wire.Wire
module Engine = Bsm_runtime.Engine
module Topology = Bsm_topology.Topology
module Sweep = Bsm_harness.Sweep

type workload = {
  name : string;
  k : int;  (** parties per side for the deliver leg; [n = 2k] *)
  rounds : int;
  payload_bytes : int;
  arena_frames : int;  (** frames per arena in the encode/decode legs *)
  arenas : int;
}

let workloads =
  [
    {
      name = "small-frames";
      k = 8;
      rounds = 40;
      payload_bytes = 16;
      arena_frames = 4096;
      arenas = 64;
    };
    {
      name = "medium-frames";
      k = 16;
      rounds = 24;
      payload_bytes = 256;
      arena_frames = 1024;
      arenas = 64;
    };
  ]

let payload_for w =
  String.init w.payload_bytes (fun i -> Char.chr (((i * 31) + w.payload_bytes) land 0xff))

(* --- encode leg ---------------------------------------------------------- *)

(* One reused encoder; each "round" writes [arena_frames] frames through
   the string codec's writer (no reset between frames — the arena
   grows), carves the spans from the running length, freezes, resets.
   Returns the frozen arenas so the decode leg reads real output. *)
let run_encode w =
  let payload = payload_for w in
  let enc = Wire.Enc.create () in
  let frozen = ref [] in
  for _ = 1 to w.arenas do
    let ends = Array.make w.arena_frames 0 in
    for i = 0 to w.arena_frames - 1 do
      Wire.string.Wire.write enc payload;
      ends.(i) <- Wire.Enc.length enc
    done;
    frozen := (Wire.Enc.to_string enc, ends) :: !frozen;
    Wire.Enc.reset enc
  done;
  List.rev !frozen

(* --- decode leg ---------------------------------------------------------- *)

let run_decode w arenas =
  let h = ref (Rng.mix64 0x914EL) in
  List.iter
    (fun (base, ends) ->
      Array.iteri
        (fun i stop ->
          let off = if i = 0 then 0 else ends.(i - 1) in
          let span = Wire.Slice.make base ~off ~len:(stop - off) in
          let v = Wire.decode_slice_exn Wire.string span in
          h := Rng.mix64_absorb !h (String.length v))
        ends)
    arenas;
  ignore w;
  !h

(* --- deliver leg --------------------------------------------------------- *)

let run_deliver w =
  let payload = payload_for w in
  let roster k =
    List.init (2 * k) (fun i ->
        if i < k then Party_id.left i else Party_id.right (i - k))
  in
  let targets = roster w.k in
  let received = Atomic.make 0 in
  let programs _id (env : Engine.env) =
    for _ = 1 to w.rounds do
      Engine.broadcast_w env Wire.string targets payload;
      let inbox = env.Engine.next_round () in
      (* Touch every span without materializing: the receiver-side cost
         of the zero-copy path alone. *)
      List.iter
        (fun e ->
          Atomic.set received (Atomic.get received + Wire.Slice.length e.Engine.data))
        inbox
    done
  in
  let cfg =
    Engine.config ~k:w.k ~max_rounds:(w.rounds + 2)
      ~link:(Engine.Of_topology Topology.Fully_connected) ()
  in
  let res = Engine.run cfg ~programs in
  res.Engine.metrics, Atomic.get received

(* --- driver -------------------------------------------------------------- *)

type row = {
  w : workload;
  encode_ms : float;
  decode_ms : float;
  deliver_ms : float;
  encode_frames : int;
  encode_bytes : int;
  metrics : Engine.metrics;
  fingerprint : int64;
}

let run_workload w =
  let arenas, enc_m = Sweep.measure (fun () -> run_encode w) in
  let decode_h, dec_m = Sweep.measure (fun () -> run_decode w arenas) in
  let (metrics, received), del_m = Sweep.measure (fun () -> run_deliver w) in
  let encode_frames = w.arenas * w.arena_frames in
  let encode_bytes =
    List.fold_left (fun acc (base, _) -> acc + String.length base) 0 arenas
  in
  let fingerprint =
    let h = Rng.mix64_absorb decode_h encode_bytes in
    let h = Rng.mix64_absorb h metrics.Engine.messages_delivered in
    let h = Rng.mix64_absorb h metrics.Engine.bytes_sent in
    let h = Rng.mix64_absorb h metrics.Engine.bytes_delivered in
    Rng.mix64_absorb h received
  in
  {
    w;
    encode_ms = enc_m.Sweep.wall_ms;
    decode_ms = dec_m.Sweep.wall_ms;
    deliver_ms = del_m.Sweep.wall_ms;
    encode_frames;
    encode_bytes;
    metrics;
    fingerprint;
  }

let json_of_row r =
  let m = r.metrics in
  let ms = Json.rounded "%.3f" in
  Json.Obj
    [
      "plane", Json.String r.w.name;
      "k", Json.Int r.w.k;
      "rounds", Json.Int r.w.rounds;
      "payload_bytes", Json.Int r.w.payload_bytes;
      "encode_frames", Json.Int r.encode_frames;
      "encode_bytes", Json.Int r.encode_bytes;
      "deliver_sent", Json.Int m.Engine.messages_sent;
      "deliver_delivered", Json.Int m.Engine.messages_delivered;
      "bytes_sent", Json.Int m.Engine.bytes_sent;
      "bytes_delivered", Json.Int m.Engine.bytes_delivered;
      "encode_ms", ms r.encode_ms;
      "deliver_ms", ms r.deliver_ms;
      "decode_ms", ms r.decode_ms;
      "fingerprint", Json.String (Printf.sprintf "%Lx" r.fingerprint);
    ]

let () =
  print_endline "message-plane micro-bench (encode / deliver / decode)";
  let rows = List.map run_workload workloads in
  List.iter
    (fun r ->
      let throughput ms frames =
        if ms <= 0. then 0. else float_of_int frames /. ms /. 1000.
      in
      Printf.printf
        "%-14s encode %8.2f ms (%6.2f Mframe/s)  deliver %8.2f ms (%d frames)  \
         decode %8.2f ms (%6.2f Mframe/s)  fingerprint %Lx\n"
        r.w.name r.encode_ms
        (throughput r.encode_ms r.encode_frames)
        r.deliver_ms r.metrics.Engine.messages_delivered r.decode_ms
        (throughput r.decode_ms r.encode_frames)
        r.fingerprint)
    rows;
  Json.to_file "BENCH_plane.json"
    (Json.Obj [ "workloads", Json.List (List.map json_of_row rows) ]);
  Printf.printf
    "wrote BENCH_plane.json (all fields but the *_ms walls deterministic)\n"
