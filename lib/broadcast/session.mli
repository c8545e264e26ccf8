(** Multiplexing several protocol instances over one net.

    The paper's protocols run many broadcast/agreement instances in
    parallel (one [Π_BB] per sender, one [Π_BA] per right-hand party).
    [run_parallel] drives a list of tagged machines in lockstep over a
    single net: every outgoing message is wrapped as [(tag, payload)] and
    incoming messages are routed to the machine with the matching tag.
    Malformed or unknown-tag messages (byzantine noise) are dropped.

    Each fan-out [(dsts, payload)] of a machine's outbox
    ({!Machine.outbox}) is wrapped once and sent with one
    [net.send_many dsts], so a broadcast costs one wrap and one call
    whatever the number of receivers; the messages, bytes and their order
    are those of sending the wrapped payload to each destination in turn.
    Routing reads the tag of each incoming message in place and hands the
    machine a copy of its payload.

    All machines advance on the same virtual-round cadence; the session
    runs for the maximum [rounds] among them, machines that finish early
    simply stop sending. *)


(** [run_parallel net machines] returns the outputs in input order. Tags
    must be distinct. *)
val run_parallel :
  Bsm_runtime.Net.t -> (string * 'out Machine.t) list -> (string * 'out) list

(** [wrap tag payload] exposes the tagging codec, so byzantine strategies
    in tests can forge session traffic. *)
val wrap : string -> string -> string
