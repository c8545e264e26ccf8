(** Reusable byzantine strategies.

    Byzantine parties in this repository are ordinary fibers running
    arbitrary programs; these are the generic ones shared by tests,
    benchmarks and the harness. Protocol-specific attacks (equivocating
    Dolev–Strong senders, the covering-system adversaries of Figures 2–4)
    live next to the protocols they target. *)

open Bsm_prelude
module Engine := Bsm_runtime.Engine

(** Sends nothing, ever — the paper's "byzantine parties may choose not to
    participate". *)
val silent : Engine.program

(** Behaves exactly like [honest] until the start of round [round], then
    stops sending through [env.send] and producing output (a crash
    fault). Only [send] and [output] are wrapped: messages [honest] sends
    with [send_w], [send_multi_w] or [send_slice] still go out after
    [round]. That is how the virtual channels of [Bsm_core.Channels] and
    Π_bSM's own messages are sent, so for the protocols that use them
    this crash does not stop the traffic. *)
val crash_at : round:int -> honest:Engine.program -> Engine.program

(** Sends random byte strings to random targets every round, [burst]
    messages per round, for [rounds] rounds. Exercises every decoder's
    malformed-input paths. *)
val noise :
  seed:int -> rounds:int -> burst:int -> targets:Party_id.t list -> Engine.program

