(* Shared helpers: the clock, order statistics, per-op GC deltas, the
   process's peak RSS, and the result record every workload returns. *)

open Bsm_prelude

(* Monotonic nanoseconds (clock_gettime CLOCK_MONOTONIC, no allocation). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6
let us ns = float_of_int ns /. 1e3

(* Processor time (ns) of the calling thread, which is the calling domain,
   and of the whole process since it started (cputime.c). The timed
   end-to-end metrics use these clocks: they stop while the host runs
   other work, so a neighbour's load does not move the figures. *)
external thread_cpu_ns : unit -> (int[@untagged])
  = "perfbench_thread_cpu_ns_byte" "perfbench_thread_cpu_ns"
[@@noalloc]

external process_cpu_ns : unit -> (int[@untagged])
  = "perfbench_process_cpu_ns_byte" "perfbench_process_cpu_ns"
[@@noalloc]

(* Taken when the executable's modules initialise: the origin of the
   written span times. *)
let process_start_ns = now_ns ()

(* Nearest-rank percentile of an array sorted ascending. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (q /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* A smoothed percentile: the mean of the order statistics whose ranks lie
   within [q ± h] percent, h = min 2.5 ((100 - q) / 2), so p50 averages the
   middle 5% and p99 the band from p98.5 to p99.5. A mix of op classes
   leaves gaps in the latency distribution, and a single order statistic
   next to a gap jumps across it between runs; the mean over a band of
   ranks moves smoothly. *)
let smooth_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let h = Float.min 2.5 ((100. -. q) /. 2.) in
    let rank p =
      max 0 (min (n - 1) (int_of_float (Float.round (p /. 100. *. float_of_int n)) - 1))
    in
    let lo = rank (q -. h) and hi = rank (q +. h) in
    let sum = ref 0. in
    for i = lo to hi do
      sum := !sum +. sorted.(i)
    done;
    !sum /. float_of_int (hi - lo + 1)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs = percentile (sorted_of_list xs) 50.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of the whole process (all domains), from
   /proc/self/status. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Domain-local GC counters around one op. On OCaml 5 [Gc.counters]
   reads the calling domain's allocation counters ([Gc.quick_stat] sums
   every domain's), and an op runs start to finish on one domain, so the
   deltas belong to the op alone. *)
type gc = {
  minor_words : float;
  major_words : float;
}

let gc_zero = { minor_words = 0.; major_words = 0. }

let gc_sample () =
  let minor_words, _promoted, major_words = Gc.counters () in
  { minor_words; major_words }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
  }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
  }

(* Per-op input draws: a pure function of (seed, op index, lane), so an
   op's input never depends on which ops ran before it or on which
   domain. *)
let draw ~seed ~i ~lane bound =
  let h =
    Rng.mix64_absorb (Rng.mix64_absorb (Rng.mix64 0xBE4CL) seed) ((i * 16) + lane)
  in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int bound))

let draw_float ~seed ~i ~lane =
  Rng.uniform_of_hash
    (Rng.mix64_absorb (Rng.mix64_absorb (Rng.mix64 0xF10A7L) seed) ((i * 16) + lane))

(* A fingerprint of deterministic counts: absorbed in op-index order over
   a fixed prefix of ops, so it is independent of timing, job count and
   how many ops the time window happened to fit. *)
type fingerprint = {
  mutable hash : int64;
  mutable parts : (string * int) list;  (** named totals, printed beside it *)
}

let fingerprint () = { hash = Rng.mix64 0xF1A6L; parts = [] }
let absorb fp x = fp.hash <- Rng.mix64_absorb fp.hash x

let count fp name n =
  absorb fp n;
  fp.parts <-
    (match List.assoc_opt name fp.parts with
    | Some m -> (name, m + n) :: List.remove_assoc name fp.parts
    | None -> (name, n) :: fp.parts)

let render_fingerprint fp =
  Printf.sprintf "%016Lx (%s)" fp.hash
    (String.concat ", "
       (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) (List.rev fp.parts)))

(* What one run of a workload reports. [e2e] and [layers] are
   (name, value) pairs (units live with the metric list in [Main]);
   [notes] are human-readable lines printed above the result (sample
   counts, host speed, the layer split). *)
type result = {
  attempted : int;
  failed : int;
  mismatches : string list;  (** correctness-gate failures, empty when correct *)
  e2e : (string * float) list;
  layers : (string * float) list;
  fingerprint : string;
  notes : string list;
}
