(* Host-speed calibration.

   The timed metrics are processor time, which CPU steal and preemption do
   not reach, but a shared host also slows the cores it does give us:
   neighbours contending for the caches and memory cut the processor-time
   rate of the serve workload by a third for minutes at a stretch. So a
   run also times a fixed kernel of its own at intervals through the
   measured window, and scales its timed metrics by how much slower than
   nominal the kernel ran. The kernel is this file's code, not the
   program's, so a change to the program moves the scaled figures in full,
   while a change of host speed moves the kernel too and cancels.

   The kernel does linear-probing inserts of pseudo-random keys into a
   table allocated once, then clears it: dependent, branchy loads and
   stores over half a megabyte. It allocates nothing, so the program's
   heap and GC cannot change its time. Over six seeds on a shared 2-vCPU
   host its time tracked the workloads' slowdowns; an integer-only kernel
   barely moved while serve-gs slowed by a third. *)

(* Processor time (ns) of one kernel run on an unloaded 2-vCPU Xeon host:
   the speed the scaled figures are reported at. Fixed, so that runs on
   different days compare. *)
let nominal_ns = 1_200_000.

let table = Array.make 65_536 0

let kernel () =
  let mask = Array.length table - 1 in
  let x = ref 0x1D8E4E27C47D124F in
  for _ = 1 to 40_000 do
    let z = !x in
    let z = z lxor (z lsl 13) in
    let z = z lxor (z lsr 7) in
    let z = z lxor (z lsl 17) in
    x := z;
    let key = (z land max_int) lor 1 in
    let i = ref (key land mask) in
    while table.(!i) <> 0 && table.(!i) <> key do
      i := (!i + 1) land mask
    done;
    table.(!i) <- key
  done;
  Array.fill table 0 (Array.length table) 0

(* Kernel times, sampled at most every [every_ns] of the caller's
   processor time. [spent_ns] is the processor time the samples took,
   which a caller timing a stretch that holds samples subtracts. *)
type t = {
  mutable last : int;
  mutable samples : float list;
  mutable spent_ns : int;
}

let every_ns = 200_000_000

let create () =
  { last = Common.thread_cpu_ns () - every_ns; samples = []; spent_ns = 0 }

let sample t =
  let c0 = Common.thread_cpu_ns () in
  kernel ();
  let c1 = Common.thread_cpu_ns () in
  t.samples <- float_of_int (c1 - c0) :: t.samples;
  t.spent_ns <- t.spent_ns + (c1 - c0);
  t.last <- c1

let maybe t = if Common.thread_cpu_ns () - t.last >= every_ns then sample t

(* How much slower than nominal the host ran over the run: the median
   sample over the nominal time. Divide a measured time, or multiply a
   measured rate, by it. *)
let slowdown t = if t.samples = [] then 1. else Common.median t.samples /. nominal_ns

let note t =
  Printf.sprintf
    "host speed: the calibration kernel ran %.3fx its nominal time (median of %d); \
     timed metrics are divided by that"
    (slowdown t) (List.length t.samples)
