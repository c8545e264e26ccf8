(** Persistent domain pool for deterministic parallel sweeps.

    The benchmark and attack harnesses replay many independent protocol
    executions ([Engine.run] is pure given its inputs: each run owns its
    fibers, counters and trace, and the only state it keeps is storage
    capacity — its message planes — in a domain-local free list, which
    no result depends on). This pool spreads such runs across OCaml 5 domains while
    keeping the results {e bit-identical} to the sequential path. One
    execution can use it too: [Engine.run ~pool] runs each round's
    party fibers as one {!map} batch (one task per fiber start or
    resume), with delivery kept on the submitting domain between
    batches.

    - {!map} returns results in input order, whatever order the tasks
      actually ran or finished in — every element has its own
      index-addressed result slot, so scheduling (and steal order) is
      invisible in the output;
    - task functions must be self-contained — derive any randomness from
      a per-task [Rng.make seed] inside the function, never from shared
      state (this is the same discipline the repository already follows:
      nothing touches the global [Random] state);
    - with [jobs = 1] no domain is spawned and tasks run inline, in
      input order, on the calling domain — the sequential path is not
      merely equivalent but literally the same code path.

    {2 Scheduling}

    The caller owns a pool: it creates it, passes it to whatever maps
    over it, and shuts it down. Worker domains are spawned {e lazily}
    on the first parallel {!map} and then {e persist}: every later
    [map] on the same pool reuses them — no per-call domain spawns. A
    batch is fixed when [map] publishes it and never grows. Each of the
    [jobs] lanes (the submitting domain is lane 0) owns the round-robin
    share [l, l + jobs, l + 2 jobs, ...] of the element indices, and one
    atomic counter per lane counts the tasks of that share claimed so
    far. A lane claims its own share in ascending index order, one
    fetch-and-add per task, then drains the other lanes' shares in lane
    order; a task claimed from another lane's share is a steal. One
    element is one task — there are no static chunks — so a sweep
    mixing 1 ms and 100 ms cells (k = 2 protocol runs next to k = 160
    pipelines) rebalances automatically instead of serializing behind
    the lane that got the expensive cells. Once a lane finds every share
    exhausted it blocks on a condition variable rather than spinning, so
    a straggler task does not have idle domains burning its CPU.

    Do not call {!map} from inside a task of the same (or any) pool —
    the nested call raises [Invalid_argument] instead of deadlocking.
    [map] may only be called from one caller at a time per pool (the
    harnesses always submit from the main domain). *)

type t

(** [create ?jobs ()] makes a pool of [jobs] lanes ([jobs] defaults to
    [Domain.recommended_domain_count ()]; an explicit value is taken
    verbatim, so tests may oversubscribe). No domain is spawned yet: the
    [jobs - 1] workers start on the first parallel {!map} and persist
    until {!shutdown}. Raises [Invalid_argument] when [jobs < 1]. *)
val create : ?jobs:int -> unit -> t

(** Parallelism level the pool was created with (including the
    submitting domain). *)
val jobs : t -> int

(** [map pool f xs] applies [f] to every element of [xs], distributing
    calls over the pool's lanes, and returns the results {e in input
    order}. Every element runs even if others raise; if one or more
    calls raise, the exception of the lowest-indexed failing element is
    re-raised (with its backtrace) after all tasks have settled. *)
val map : t -> ('a -> 'b) -> 'a list -> 'b list

(** Cumulative scheduling counters since the pool was created. [tasks]
    counts executed elements, [steals] the tasks a lane ran from another
    lane's share (0 on the [jobs = 1] path — nothing to steal). The sweep
    harness reports deltas of these in [BENCH_sweeps.json]; they describe
    scheduling only and never affect results. *)
type stats = {
  tasks : int;
  steals : int;
}

val stats : t -> stats

(** [shutdown pool] signals the workers to exit and joins them.
    Idempotent, and safe to call from another domain while a {!map} is
    in flight — shutdown first waits for the current batch to retire.
    Raises [Invalid_argument] when called from inside a pool task, where
    waiting for the batch would deadlock. Calling {!map} after
    [shutdown] raises [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool ?jobs f] brackets [create]/[shutdown] around [f]. *)
val with_pool : ?jobs:int -> (t -> 'a) -> 'a
