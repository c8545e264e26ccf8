(** Multiplexing several protocol instances over one net.

    The paper's protocols run many broadcast/agreement instances in
    parallel (one [Π_BB] per sender, one [Π_BA] per right-hand party).
    [run_parallel] drives a list of tagged machines in lockstep over a
    single net: every outgoing message is wrapped as [(tag, payload)] and
    incoming messages are routed to the machine with the matching tag.
    Malformed or unknown-tag messages (byzantine noise) are dropped.

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
