(** Synchronous round-based execution engine.

    This is the executable instantiation of the paper's network model: a
    synchronous network of [n = 2k] parties with pairwise authenticated
    channels, operating in lockstep rounds (Δ = 1 round). A message sent in
    round [r] is delivered at the start of round [r+1] — or never, when the
    configured fault model drops it (the omission semantics of Lemma 10 and
    Theorems 8–9) or when it is sent along a channel that does not exist in
    the topology (byzantine parties cannot violate the communication
    graph; channels are authenticated, so the receiver always learns the
    true sender).

    Each party runs as a cooperative fiber built on OCaml 5 effects, so
    protocol code is written in direct style, mirroring the paper's
    pseudocode: [send] queues messages for the current round and
    [next_round] ends the round, returning the new round's inbox. Parking
    on [next_round] is the engine's only effect; [send] and every other
    capability in {!type-env} is a plain closure that writes the party's
    own outbox, output or state registry, so a message costs no handler
    round trip. Byzantine parties are simply fibers running arbitrary
    programs. Execution is deterministic.

    Concurrency: every counter, fiber, inbox and trace of a run lives in
    the call's own frame, and the only state a run leaves behind is
    storage capacity in a domain-local free list (see {!run}), so
    independent runs may execute on different domains simultaneously
    (this is what {!Pool} and the harness sweep layer rely on). One run
    can also use several domains: [run ~pool] resumes each round's
    fibers as one pool batch, so a party may continue on a different
    domain from the one it last ran on (see {!run} for the contract).
    The other module-level value is the [Logs] source, which is created
    once at load time; the default nop reporter makes the engine's
    concurrent debug messages safe, but a custom reporter must itself be
    domain-safe when runs or their fibers execute in parallel. *)

open Bsm_prelude

(** Raw message bytes; protocols serialize with {!Bsm_wire.Wire}. *)
type payload = string

(** An inbox frame: a zero-copy [(offset, len)] view into the sender's
    frozen per-round frame arena. Decode directly with
    {!Bsm_wire.Wire.decode_slice}; [Wire.Slice.to_string] materializes
    when bytes must outlive the view's backing. *)
type envelope = {
  src : Party_id.t;
  data : Bsm_wire.Wire.Slice.t;
}

(** A corruptible state cell, the unit of the state-corruption plane: one
    protocol-level mutable value exposed as its canonical wire encoding.
    [cell_encode] snapshots the current value; [cell_set] decodes
    candidate bytes into the underlying ref, returning [false] (value
    untouched) when they are not a well-formed encoding. Build one with
    {!state_cell}, or hand-roll the closures for state that has no single
    codec. *)
type state_cell = {
  cell_encode : unit -> payload;
  cell_set : payload -> bool;
}

(** [state_cell codec r] exposes [r] through [codec]. Decode failures —
    [Error] or a raising validator — leave [r] untouched and report
    [false]. *)
val state_cell : 'a Bsm_wire.Wire.t -> 'a ref -> state_cell

(** The capabilities handed to a party's fiber. Attack constructions wrap
    these closures to build covering systems, so keep protocols programming
    against [env] rather than against the engine directly. The send
    functions write the party's own outbox directly; only [next_round]
    suspends the fiber. A wrapper of one send function does not see the
    others (the byzantine kit, [Bsm_harness.Adversaries], says what that
    means for its crash and garble wrappers). *)
type env = {
  self : Party_id.t;
  k : int;
  round : unit -> int;  (** current round, starting at 0 *)
  send : Party_id.t -> payload -> unit;
      (** queue a message for delivery at the start of the next round;
          silently dropped if no channel exists. A destination outside
          the roster [L0..Lk-1, R0..Rk-1] counts as a non-existent
          channel, except that a [Party_id.t] with a negative index
          (impossible through the public [Party_id] API — it would mean
          memory corruption or unsafe casts) raises [Invalid_argument]
          at delivery time rather than being dropped. *)
  send_w : 'a. 'a Bsm_wire.Wire.t -> Party_id.t -> 'a -> unit;
      (** [send_w codec dst v] is [send dst (Wire.encode codec v)]
          without the intermediate string: the value is encoded in place
          into the sender's round arena. The hot path for protocol
          messages. A codec that raises mid-write leaves no partial
          frame behind (the arena is rolled back) and the exception
          propagates to the fiber. *)
  send_slice : Party_id.t -> Bsm_wire.Wire.Slice.t -> unit;
      (** forward bytes already in hand (typically a received envelope's
          [data]) without materializing a string: the view's bytes are
          appended into the round arena. Like [send], [send_w] and
          [send_multi_w], a plain write into the outbox. *)
  send_multi_w : 'a. 'a Bsm_wire.Wire.t -> Party_id.t list -> 'a -> unit;
      (** [send_multi_w codec dsts v] encodes [v] {e once} into the round
          arena and queues the same span for every destination in [dsts],
          in list order — the fan-out pattern (relay requests, protocol
          broadcasts) without re-walking the codec or duplicating the
          bytes per recipient. Observationally identical to
          [List.iter (fun d -> send_w codec d v) dsts]: each destination
          counts as its own message in the metrics and the trace, and
          topology/fault/corruption checks still run per destination. A
          codec that raises leaves no partial frame and sends nothing. *)
  next_round : unit -> envelope list;
      (** finish the current round; returns the next round's inbox, sorted
          by sender (send order preserved per sender) *)
  output : payload -> unit;  (** record this party's protocol output *)
  register_state : 'a. 'a Bsm_wire.Wire.t -> 'a ref -> unit;
      (** [register_state codec r] exposes [r] to the state-corruption
          plane: between rounds, the fault model's [scramble] hook may
          replace its contents with arbitrary well-formed bytes (the
          self-stabilization adversary of the Byzantine Brides model).
          Cells are indexed in registration order per party; protocols
          should register their round-local state once, up front, so the
          indexing is deterministic. Free when the run's fault model never
          scrambles. *)
  register_cell : state_cell -> unit;
      (** the serialized-blob seam under {!register_state}: register an
          already-built {!state_cell} (used by plumbing that forwards
          cells built elsewhere, e.g. broadcast machines registered by a
          session). *)
}

(** A party's program. Returning terminates the party; a party that never
    returns within the round budget is reported as not terminated. *)
type program = env -> unit

(** Communication graph: one of the paper's topologies, or an arbitrary
    symmetric edge relation (used by the covering-system attacks, which run
    protocols on non-standard networks). *)
type link =
  | Of_topology of Bsm_topology.Topology.t
  | Custom of (Party_id.t -> Party_id.t -> bool)

type fault_model = {
  drop : round:int -> src:Party_id.t -> dst:Party_id.t -> bool;
      (** [drop] is consulted for every message on an {e existing}
          channel; [true] omits it. Models the omission failures of
          Section 5.2. Precedence is fixed: a message sent along a
          non-existent channel is a topology drop and the fault model is
          never consulted for it, so every message counts against
          exactly one of [messages_dropped_topology] /
          [messages_dropped_fault] (topology wins). *)
  drop_label : round:int -> src:Party_id.t -> dst:Party_id.t -> string option;
      (** consulted only after [drop] returned [true]; attributes the
          omission to a fault-schedule component. The label lands on the
          trace event and in [messages_dropped_by_label]. Must be pure
          (runs may execute on any domain). *)
  corrupt :
    round:int ->
    src:Party_id.t ->
    dst:Party_id.t ->
    prev:payload option ->
    payload ->
    (payload * string) option;
      (** the in-flight mutation hook, the engine half of active byzantine
          wire chaos: consulted for every message that survived both the
          topology and [drop] checks. [Some (bytes, label)] delivers
          [bytes] in place of the sent payload and attributes the
          corruption to the labelled schedule component; [None] delivers
          the frame untouched. [prev] is the last payload {e delivered}
          (post-corruption) on this ordered link in any strictly earlier
          round — [None] until one exists — which is what replay
          mutations echo; frames of the round being delivered are never
          visible in [prev], so same-round frames cannot replay each
          other. Must be pure (runs may execute on any domain). The
          per-link replay memory is only maintained when [corrupt] is not
          (physically) {!no_corrupt}, so fault-free runs pay nothing. *)
  scramble :
    round:int ->
    party:Party_id.t ->
    cell:int ->
    attempt:int ->
    payload ->
    (payload * string) option;
      (** the state-corruption hook, the engine half of the
          self-stabilization chaos plane: consulted between rounds —
          after round [round - 1]'s delivery sweep, before any fiber
          resumes in round [round] — for every state cell a still-running
          party registered, in registration order ([cell] is the index).
          [payload] is the cell's current canonical encoding.
          [Some (bytes, label)] asks the engine to replace the cell's
          value with [bytes]; if they fail to decode, the hook is retried
          with [attempt + 1] (fresh bytes, same firing decision) up to
          {!max_scramble_attempts} times, after which the cell is left
          untouched and nothing is counted. [None] on attempt 0 means the
          hook does not fire for this (round, party, cell). Must be pure
          (runs may execute on any domain); the same staged discipline as
          [corrupt] applies — a scramble can never observe the round
          currently being delivered, because it runs strictly after the
          sweep commits. Gated on physical inequality with
          {!no_scramble}: scramble-free runs never touch the
          registries. *)
}

(** [fault_model ?label ?corrupt ?scramble drop] — [label] defaults to no
    attribution, [corrupt] to {!no_corrupt} (deliver untouched),
    [scramble] to {!no_scramble} (state never corrupted). *)
val fault_model :
  ?label:(round:int -> src:Party_id.t -> dst:Party_id.t -> string option) ->
  ?corrupt:
    (round:int ->
    src:Party_id.t ->
    dst:Party_id.t ->
    prev:payload option ->
    payload ->
    (payload * string) option) ->
  ?scramble:
    (round:int ->
    party:Party_id.t ->
    cell:int ->
    attempt:int ->
    payload ->
    (payload * string) option) ->
  (round:int -> src:Party_id.t -> dst:Party_id.t -> bool) ->
  fault_model

(** The default [corrupt] hook: always [None]. *)
val no_corrupt :
  round:int ->
  src:Party_id.t ->
  dst:Party_id.t ->
  prev:payload option ->
  payload ->
  (payload * string) option

(** The default [scramble] hook: always [None]. *)
val no_scramble :
  round:int ->
  party:Party_id.t ->
  cell:int ->
  attempt:int ->
  payload ->
  (payload * string) option

val no_faults : fault_model

(** Mutation-attempt budget per (round, party, cell) — see
    {!type-fault_model.scramble}. *)
val max_scramble_attempts : int

(** One message-level event, for execution traces. *)
type event = {
  event_round : int;
  event_src : Party_id.t;
  event_dst : Party_id.t;
  event_bytes : int;
  event_fate : [ `Delivered | `No_channel | `Omitted | `Corrupted | `Scrambled ];
      (** [`Corrupted] frames were delivered, with mutated bytes.
          [`Scrambled] is not a message at all: a state cell of
          [event_src = event_dst] was replaced between rounds
          ([event_bytes] is the new encoding's length). *)
  event_label : string option;
      (** fault-model attribution; only ever [Some] on [`Omitted],
          [`Corrupted] and [`Scrambled] *)
}

type config = {
  k : int;  (** parties per side; [n = 2k] *)
  link : link;
  max_rounds : int;  (** hard stop; protocols must finish before this *)
  faults : fault_model;
  trace_limit : int;
      (** record up to this many message events (0 = tracing off) *)
}

val config :
  ?max_rounds:int ->
  ?faults:fault_model ->
  ?trace_limit:int ->
  k:int ->
  link:link ->
  unit ->
  config

type status =
  | Terminated  (** fiber returned *)
  | Out_of_rounds  (** still waiting on [next_round] at [max_rounds] *)
  | Crashed of string  (** fiber raised; the exception text *)

type party_result = {
  id : Party_id.t;
  status : status;
  out : payload option;  (** last value passed to [output], if any *)
  finished_round : int option;
      (** the round the fiber returned in; [Some] exactly when [status]
          is [Terminated]. The convergence oracle reads recovery times
          off this. *)
}

type metrics = {
  rounds_used : int;
  messages_sent : int;  (** messages queued, one per destination of a send *)
  messages_delivered : int;
  messages_dropped_topology : int;  (** sent along non-existent channels *)
  messages_dropped_fault : int;  (** omitted by the fault model *)
  messages_corrupted : int;
      (** delivered with bytes rewritten by the [corrupt] hook; these
          also count in [messages_delivered] — corruption changes the
          payload, not the fact of delivery *)
  messages_dropped_by_label : (string * int) list;
      (** omissions, corruptions {e and} state scrambles broken down by
          component attribution ([drop_label] / the [corrupt] and
          [scramble] hooks' labels), sorted by label; unlabelled
          omissions are not listed, so the counts sum to at most
          [messages_dropped_fault + messages_corrupted +
          cells_scrambled]. Empty when the fault model never labels. *)
  bytes_sent : int;
      (** payload bytes of every [send]/[send_w]/[send_slice] call, at
          the length the sender wrote — the symmetric counterpart of
          [messages_sent], counted before topology, omission, or
          corruption touch the frame. *)
  bytes_delivered : int;
      (** payload bytes of {e delivered} messages — the communication the
          network actually carried, counting corrupted frames at their
          mutated length. Messages dropped by the topology or omitted by
          the fault model contribute to their drop counters but never to
          [bytes_delivered], so [bytes_delivered] and
          [messages_delivered] describe the same message set. (This is
          the quantity the communication-complexity experiments and the
          metrics fingerprints use.) *)
  cells_scrambled : int;
      (** state cells actually replaced by the [scramble] hook (mutations
          that never decoded within the attempt budget don't count) *)
  first_scramble_round : int option;
      (** the round of the first successful scramble — the epoch the
          convergence oracle measures recovery from; [None] when no
          scramble landed *)
}

type result = {
  parties : party_result list;  (** roster order: L0..Lk-1, R0..Rk-1 *)
  metrics : metrics;
  trace : event list;
      (** chronological, at most [trace_limit] events (the {e first} so
          many — truncation drops the tail); empty when tracing is off.
          Each event carries the round its message was {e sent} in, so
          rounds are non-decreasing along the list and never exceed
          [metrics.rounds_used]; the final round's sends (flushed after
          the last round ends) appear with [event_round = rounds_used]. *)
}

(** [run ?pool cfg ~programs] executes one synchronous protocol.
    [programs] is consulted once per roster party, on the calling
    domain.

    Without [pool], or with a one-lane pool, every fiber runs on the
    calling domain in roster order. With a pool of two or more lanes,
    the fiber starts of round 0, and then each round's resumes, run as
    one {!Pool.map} batch; delivery, the fault hooks, state scrambles,
    the metrics and the trace stay on the calling domain, between
    batches. A running fiber writes only its own party's outbox, inbox,
    output and state registry, so the result — parties, metrics and
    trace — is the one [run cfg ~programs] returns, provided the
    programs of one run share no mutable state (immutable inputs such as
    a profile or a PKI may be shared). Do not call [run ~pool] from
    inside a task of any pool: {!Pool.map} raises [Invalid_argument]
    there.

    Storage is reused per domain. A party's {e plane} — its frame
    arena, outbox vectors and inbox vectors — comes from the calling
    domain's free list when the run starts; the list is emptied then,
    so a run nested in a fiber takes planes of its own. When the run
    returns, its planes are cleared of every payload reference and
    become the domain's list, each vector trimmed to at most twice the
    rows it held at its peak in this run (at least 8) and each arena to
    at most twice its peak bytes (at least 64): a domain keeps at most
    the planes of its last run, bounded by what that run used. A run
    that raises gives nothing back. No result — parties, metrics,
    trace — depends on that storage. *)
val run : ?pool:Pool.t -> config -> programs:(Party_id.t -> program) -> result

(** [find_result res p] looks up one party's result. Raises
    [Invalid_argument] naming the party and the roster size when [p] is
    not in the roster. *)
val find_result : result -> Party_id.t -> party_result

val find_result_opt : result -> Party_id.t -> party_result option
