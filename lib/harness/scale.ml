open Bsm_prelude
module SM = Bsm_stable_matching
module Pool = Bsm_runtime.Pool

(* T-scale: the large-k scale frontier of the non-protocol core.

   Each row runs Gale–Shapley on an implicit [Flat] instance, then
   verifies two matchings — the GS output (expected stable) and a
   deterministic perturbation of it (expected to expose blocking
   pairs) — with the early-exit row scan, sharded into fixed row
   ranges. Shard counts are pure functions of the row, so the pool-
   parallel pass must be bit-identical to the sequential pass; every
   driver asserts that. Wall-clock fields are environment-dependent;
   every other field is deterministic in [(family, seed, k)]. *)

type mode =
  | Quick
  | Full

type row = {
  k : int;
  seed : int;
  family : SM.Flat.family;
}

let label r = Printf.sprintf "k=%d %s" r.k (SM.Flat.family_to_string r.family)

let rows mode =
  let base =
    [
      { k = 1_000; seed = 0x5C01; family = SM.Flat.Uniform };
      { k = 1_000; seed = 0x5C02; family = SM.Flat.Common_acceptors };
    ]
  in
  match mode with
  | Quick -> base
  | Full ->
    base
    @ [
        { k = 10_000; seed = 0x5C03; family = SM.Flat.Uniform };
        { k = 10_000; seed = 0x5C04; family = SM.Flat.Common_acceptors };
        { k = 100_000; seed = 0x5C05; family = SM.Flat.Uniform };
        { k = 1_000_000; seed = 0x5C06; family = SM.Flat.Uniform };
      ]

(* Fixed shard count, independent of the job count, so the cell
   decomposition (and thus every shard result) is the same whatever
   parallelism executes it. *)
let shards = 8

type prepared = {
  row : row;
  flat : SM.Flat.t;
  l2r : int array;
  perturbed : int array;
  stats : SM.Gale_shapley.stats;
  gs_ms : float;
}

(* Deterministic perturbation: rotate the partners of the first
   [min 32 k] left parties. The result is still a perfect matching; it
   typically (not provably) has blocking pairs, whose exact count is
   deterministic and recorded, exercising the counting/ε paths on a
   non-stable input. *)
let perturb l2r =
  let k = Array.length l2r in
  let m = min 32 k in
  let p = Array.copy l2r in
  for i = 0 to m - 1 do
    p.(i) <- l2r.((i + 1) mod m)
  done;
  p

let prepare row =
  let flat = SM.Flat.make ~family:row.family ~seed:row.seed ~k:row.k in
  let (l2r, stats), m = Sweep.measure (fun () -> SM.Flat.gale_shapley flat) in
  { row; flat; l2r; perturbed = perturb l2r; stats; gs_ms = m.Sweep.wall_ms }

type target =
  | Gs
  | Perturbed

type cell = {
  target : target;
  lo : int;
  hi : int;
}

let cells p =
  let k = p.row.k in
  let ranges =
    List.init shards (fun s -> s * k / shards, (s + 1) * k / shards)
  in
  List.concat_map
    (fun target -> List.map (fun (lo, hi) -> { target; lo; hi }) ranges)
    [ Gs; Perturbed ]

let run_cell p { target; lo; hi } =
  let l2r =
    match target with
    | Gs -> p.l2r
    | Perturbed -> p.perturbed
  in
  SM.Verify.count_blocking_rows (SM.Flat.verify_view p.flat ~l2r) ~lo ~hi

type result = {
  row : row;
  stats : SM.Gale_shapley.stats;
  blocking_gs : int;
  blocking_perturbed : int;
  stable : bool;
  eps_min : float;
  fingerprint : int64;
  gs_ms : float;
  verify_seq_ms : float;
  verify_par_ms : float;
}

let fingerprint l2r = SM.Flat.fingerprint ~salt:0x5CA1EL l2r

(* Cross-check the ε-stability knob against the assembled exact counts:
   ε = 0 must agree with stability of the GS output, a budget at (or
   just above, absorbing float rounding) the exact perturbed count must
   accept, and half that count must reject. *)
let check_eps (p : prepared) ~blocking_gs ~blocking_perturbed =
  let k2 = float_of_int p.row.k *. float_of_int p.row.k in
  let view_gs = SM.Flat.verify_view p.flat ~l2r:p.l2r in
  let view_pt = SM.Flat.verify_view p.flat ~l2r:p.perturbed in
  if SM.Verify.is_eps_stable_view ~eps:0. view_gs <> (blocking_gs = 0) then
    failwith "scale: is_eps_stable ~eps:0 disagrees with exact stability";
  let c = blocking_perturbed in
  if not (SM.Verify.is_eps_stable_view ~eps:(float_of_int (c + 1) /. k2) view_pt)
  then failwith "scale: is_eps_stable rejects a sufficient budget";
  if
    c >= 2
    && SM.Verify.is_eps_stable_view ~eps:(float_of_int c /. 2. /. k2) view_pt
  then failwith "scale: is_eps_stable accepts an insufficient budget"

let assemble (p : prepared) ~shard_counts ~verify_seq_ms ~verify_par_ms =
  let counts = List.combine (cells p) shard_counts in
  let total target =
    List.fold_left
      (fun acc (c, n) -> if c.target = target then acc + n else acc)
      0 counts
  in
  let blocking_gs = total Gs in
  let blocking_perturbed = total Perturbed in
  check_eps p ~blocking_gs ~blocking_perturbed;
  {
    row = p.row;
    stats = p.stats;
    blocking_gs;
    blocking_perturbed;
    stable = blocking_gs = 0;
    eps_min =
      float_of_int blocking_perturbed
      /. (float_of_int p.row.k *. float_of_int p.row.k);
    fingerprint = fingerprint p.l2r;
    gs_ms = p.gs_ms;
    verify_seq_ms;
    verify_par_ms;
  }

(* Standalone driver: sequential reference pass, then the pool-parallel
   pass over the same cells, with bit-identity enforced per row. *)
let run_row ?pool (p : prepared) =
  let cs = cells p in
  let seq, seq_m = Sweep.measure (fun () -> List.map (run_cell p) cs) in
  let par, par_m =
    match pool with
    | None -> seq, seq_m
    | Some pool -> Sweep.measure (fun () -> Pool.map pool (run_cell p) cs)
  in
  if par <> seq then
    failwith
      (Printf.sprintf "scale %s: parallel shard counts diverge from sequential"
         (label p.row));
  assemble p ~shard_counts:seq ~verify_seq_ms:seq_m.Sweep.wall_ms
    ~verify_par_ms:par_m.Sweep.wall_ms

let to_json ~jobs results =
  let ms = Json.rounded "%.3f" in
  Json.Obj
    [
      ( "_comment",
        Json.String
          "T-scale bench: GS + sharded early-exit verification on implicit \
           (Flat) instances. Deterministic in (family, seed, k): every field \
           except *_ms. *_ms are wall-clock, environment-dependent." );
      "jobs", Json.Int jobs;
      "shards", Json.Int shards;
      ( "rows",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   "row", Json.String (label r.row);
                   "k", Json.Int r.row.k;
                   "family", Json.String (SM.Flat.family_to_string r.row.family);
                   "seed", Json.Int r.row.seed;
                   "proposals", Json.Int r.stats.SM.Gale_shapley.proposals;
                   "rounds", Json.Int r.stats.SM.Gale_shapley.rounds;
                   "blocking_gs", Json.Int r.blocking_gs;
                   "stable", Json.Bool r.stable;
                   "blocking_perturbed", Json.Int r.blocking_perturbed;
                   "eps_min", Json.rounded "%.3e" r.eps_min;
                   "fingerprint", Json.String (Printf.sprintf "%Lx" r.fingerprint);
                   "gs_ms", ms r.gs_ms;
                   "verify_sequential_ms", ms r.verify_seq_ms;
                   "verify_parallel_ms", ms r.verify_par_ms;
                 ])
             results) );
    ]

let pp_results ppf results =
  Format.fprintf ppf "%-22s %12s %9s %9s %11s %9s %11s %11s@."
    "row" "proposals" "rounds" "blocking" "perturbed" "gs_ms" "verify_seq"
    "verify_par";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s %12d %9d %9d %11d %9.1f %11.1f %11.1f@."
        (label r.row) r.stats.SM.Gale_shapley.proposals
        r.stats.SM.Gale_shapley.rounds r.blocking_gs r.blocking_perturbed
        r.gs_ms r.verify_seq_ms r.verify_par_ms)
    results
