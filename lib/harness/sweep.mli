(** Deterministic multicore sweeps of scenario grids.

    The experiment tables (T1–T3, A1–A4) and the attack evaluations all
    have the same shape: a list of cells, each an independent protocol
    execution determined entirely by plain data — a setting, a profile
    seed and an adversary choice. This module expresses such sweeps as a
    parallel map over {!Bsm_runtime.Pool} with per-cell isolation: every
    cell derives its own [Rng.make] chain and PKI from its seeds, shares
    nothing mutable with its neighbours, and therefore produces results
    bit-identical to a sequential [List.map] of the same cells (the
    tier-1 suite asserts this).

    Layering: [Pool] (runtime) supplies ordered parallel map; this
    module adds the cell vocabulary the benches sweep over, and {!map}
    runs any per-cell function over it. *)

module Core := Bsm_core
module Pool := Bsm_runtime.Pool

(** Who corrupts the run. [Random_coalition] draws a maximal admissible
    coalition with {!Adversaries.random_coalition}, continuing the
    profile seed's Rng chain (so profile and coalition are one
    deterministic draw, as the benches have always done). *)
type adversary =
  | Honest
  | Random_coalition

type case = {
  label : string;
  setting : Core.Setting.t;
  profile_seed : int;
      (** seeds [Rng.make] for the preference profile (and the coalition
          draw under [Random_coalition]) *)
  scenario_seed : int;  (** PKI derivation, {!Scenario.t}'s [seed] *)
  adversary : adversary;
}

(** [case ?label ?profile_seed ?scenario_seed ?adversary setting] —
    seeds default to [0], adversary to [Honest], label to the setting
    rendered by [Core.Setting.pp]. *)
val case :
  ?label:string ->
  ?profile_seed:int ->
  ?scenario_seed:int ->
  ?adversary:adversary ->
  Core.Setting.t ->
  case

(** Materialize the cell: profile from [Rng.make profile_seed], then the
    adversary's coalition from the same chain. *)
val scenario_of_case : case -> Scenario.t

(** [map ?pool f xs] — ordered map over independent cells; sequential
    [List.map] when [pool] is absent, {!Pool.map} otherwise. [f] must be
    self-contained (own Rng per call, no shared mutable state). *)
val map : ?pool:Pool.t -> ('a -> 'b) -> 'a list -> 'b list

(** Wall-clock and GC cost of one sweep, from [Gc.quick_stat] deltas
    around the run. Words are OCaml words (8 bytes on 64-bit). On OCaml 5
    the counters are per-domain: for a parallel sweep they cover the
    submitting domain only (its share of the cells plus orchestration),
    so compare like with like — sequential vs sequential across PRs, and
    parallel allocation trends only qualitatively. *)
type measurement = {
  wall_ms : float;
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

(** [measure f] runs [f ()] and reports its cost. *)
val measure : (unit -> 'a) -> 'a * measurement

(** Fused sweep scheduler: many tables, one task graph, one drain point.

    The bench used to run each experiment table as its own [Pool.map]
    with a full barrier between tables, so every table paid for its own
    straggler cell (its largest k) while the other lanes idled. A fused
    batch instead {e registers} all tables' cells up front ({!add}), then
    executes the whole cross-table graph in a single parallel drain
    ({!drain}): one pool task per cell, so another table's cells fill the
    lanes a straggler would otherwise leave idle, and the only barrier is
    the single drain point at the end.

    Determinism is unchanged: cells keep their per-table input order in
    the results ({!results}), execution order is invisible, and a
    sequential [List.map] of the same cells is bit-identical (the bench
    asserts this per table).

    Instrumentation: every task is individually timed and its
    domain-local GC counters delta'd, attributed to the task alone, since
    a task runs start-to-finish on one domain that runs nothing else
    meanwhile. Major words repeat exactly from run to run; minor words
    only to a step of about 115k words on OCaml 5.1, which they move by
    with the minor collections that fall inside the task. {!stats}
    aggregates per table; {!drain} reports the whole-run wall clock plus
    the pool's steal counter delta. *)
module Fused : sig
  type t

  (** Handle to one registered table's results, readable after
      {!drain}. *)
  type 'b handle

  val create : unit -> t

  (** [add t ~table f cells] registers a table's cells. Nothing runs
      until {!drain}; raises [Invalid_argument] after it. *)
  val add : t -> table:string -> ('a -> 'b) -> 'a list -> 'b handle

  (** Per-table attribution summed over its tasks: [task_ms_total] is
      CPU-side cost (what a sequential run of just this table would
      roughly cost), [task_ms_max] its worst cell — the straggler that a
      per-table barrier would serialize behind. *)
  type table_stats = {
    table : string;
    tasks : int;
    task_ms_total : float;
    task_ms_max : float;
    minor_words : float;
    major_words : float;
  }

  (** Whole-run cost of the single drain: [wall_ms] covers all tables
      together, [steals] is the pool's successful-steal delta (0 when
      sequential), [tables] the per-table attributions in registration
      order. *)
  type run_stats = {
    wall_ms : float;
    tasks : int;
    steals : int;
    jobs : int;
    tables : table_stats list;
  }

  (** [drain ?pool t] executes every registered cell — across the pool
      when given, sequentially otherwise — and reports the whole-run
      stats. If a cell raises, all cells still settle first, then the
      lowest-indexed failure re-raises (tables in registration order);
      the batch still counts as drained so surviving tables' handles
      remain readable. *)
  val drain : ?pool:Pool.t -> t -> run_stats

  (** The table's results, in its cells' input order. Raises
      [Invalid_argument] before {!drain} or if this table's cells did
      not all finish (a cell raised). *)
  val results : 'b handle -> 'b list

  (** Per-table attribution for this handle (after {!drain}). *)
  val stats : 'b handle -> table_stats
end
