(** The matchmaking daemon's core: admission, scheduling, execution.

    A server owns a bounded submission queue (a {!Ring}) and an
    {!Instances} table keyed by request id; its instance executions fan
    out over a {!Bsm_runtime.Pool} the caller passes in. Time is
    the caller's {e tick} counter — the daemon loop (or the open-loop
    bench) advances it; latencies are tick deltas, which is what makes
    a whole serve run bit-replayable from its seed.

    One {!tick} is one scheduling quantum: pop at most [batch] queued
    specs, run them across the pool ([Pool.map] keeps input order, and
    every execution is a pure function of its spec, so the emitted
    [Done] responses are bit-identical whatever the job count), retire
    them in the table, emit responses.

    Admission ({!submit}) never raises on client input — it answers
    with a typed {!Frame.reject_reason} instead: [Queue_full] is the
    backpressure signal, [Too_large] the configured k ceiling,
    [Unsolvable] a setting the paper's characterization rules out (or a
    duplicate live request id), [Shutting_down] a closed server. *)

module Frame := Frame

type config = {
  queue_capacity : int;  (** bounded submission queue (backpressure) *)
  batch : int;  (** max instances retired per tick *)
  max_k : int;  (** admission ceiling on instance size *)
  max_rounds : int option;  (** bSM engine round budget override *)
  chaos : bool;  (** run bSM instances under fault schedules *)
  chaos_seed : int;  (** schedule compilation seed *)
}

(** [queue_capacity 256; batch 64; max_k 4096; no chaos]. *)
val default_config : config

type t

(** [create ~pool ?config ()] — the caller owns [pool]: it creates it,
    may share it with other work, and shuts it down once it is done
    ticking the server (the server never does). *)
val create : pool:Bsm_runtime.Pool.t -> ?config:config -> unit -> t

val config : t -> config
val instances : t -> Instances.t

(** Oracle violations observed so far (chaos mode; 0 otherwise). *)
val violations : t -> int

(** [submit t ~tick spec] — admit or reject; [Accepted] means the spec
    is queued and will be retired by a later {!tick}. *)
val submit : t -> tick:int -> Frame.spec -> Frame.response

(** [tick t ~tick] — run one scheduling quantum; returns the [Done]
    responses of the instances retired this quantum, in admission
    order. *)
val tick : t -> tick:int -> Frame.response list

(** Queued + running instances. *)
val pending : t -> int

(** [close t] — stop admitting ([Shutting_down] from now on); queued
    work still drains through {!tick}. *)
val close : t -> unit

(** [execute ~chaos ~chaos_seed ~max_rounds spec] — one instance,
    pure; what the pool tasks run. Exposed for tests.
    Returns the outcome and whether it counts as an oracle
    violation. *)
val execute :
  chaos:bool ->
  chaos_seed:int ->
  max_rounds:int option ->
  Frame.spec ->
  Frame.outcome * bool
