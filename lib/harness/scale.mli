(** T-scale: the large-k scale frontier bench (k = 10³..10⁶).

    Each row builds an implicit {!Bsm_stable_matching.Flat} instance,
    runs its O(k)-memory Gale–Shapley, and verifies two matchings with
    the early-exit row scan — the GS output (expected stable) and a
    deterministic perturbation of it (expected to expose blocking
    pairs) — sharded into {!shards} fixed row ranges so the check can
    run pool-parallel. Shard counts are pure functions of the row:
    the parallel pass must be bit-identical to the sequential pass, and
    every driver ({!run_row}, the bench's fused table) asserts it. All
    fields of a {!result} except the [*_ms] wall clocks are
    deterministic in [(family, seed, k)].

    The ε-stability knob is cross-checked per row against the exact
    counts: ε = 0 agrees with exact stability on the GS output, and on
    the perturbed matching a budget at the exact count accepts while
    half of it rejects. *)

module SM := Bsm_stable_matching
module Pool := Bsm_runtime.Pool

type mode =
  | Quick  (** k = 10³ rows only — the CI gate (sub-second) *)
  | Full  (** k = 10³..10⁶ (tens of seconds) *)

type row = {
  k : int;
  seed : int;
  family : SM.Flat.family;
}

val label : row -> string
val rows : mode -> row list

(** Row ranges per matching; fixed (independent of the job count) so the
    cell decomposition is identical under any parallelism. *)
val shards : int

(** A row with its instance and matchings materialized and GS timed. *)
type prepared = {
  row : row;
  flat : SM.Flat.t;
  l2r : int array;
  perturbed : int array;
  stats : SM.Gale_shapley.stats;
  gs_ms : float;
}

val prepare : row -> prepared

type target =
  | Gs
  | Perturbed

type cell = {
  target : target;
  lo : int;
  hi : int;
}

(** The row's verification cells ([2 * shards] of them), in a fixed
    order. *)
val cells : prepared -> cell list

(** Blocking-pair count of one shard — pure, pool-safe. *)
val run_cell : prepared -> cell -> int

type result = {
  row : row;
  stats : SM.Gale_shapley.stats;
  blocking_gs : int;
  blocking_perturbed : int;
  stable : bool;
  eps_min : float;  (** [blocking_perturbed / k²] — the measured ε *)
  fingerprint : int64;  (** mix64 chain over the GS matching *)
  gs_ms : float;
  verify_seq_ms : float;
  verify_par_ms : float;
}

(** [assemble p ~shard_counts ...] sums per-target shard counts (in
    {!cells} order), runs the ε cross-checks, and attaches timings.
    Raises [Failure] if an ε check fails. *)
val assemble :
  prepared ->
  shard_counts:int list ->
  verify_seq_ms:float ->
  verify_par_ms:float ->
  result

(** Sequential reference pass, then (when [pool] is given) the parallel
    pass over the same cells; raises [Failure] if they diverge. *)
val run_row : ?pool:Pool.t -> prepared -> result

(** The [BENCH_scale] report (see its [_comment] member for the
    determinism scope); [tools/bench_compare] reads the
    [verify_sequential_ms]/[gs_ms] of each ["row"] record. *)
val to_json : jobs:int -> result list -> Bsm_prelude.Json.t

val pp_results : Format.formatter -> result list -> unit
