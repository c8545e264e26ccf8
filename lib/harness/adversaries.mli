(** The byzantine strategy kit.

    A byzantine party is a fiber running an arbitrary
    {!Bsm_runtime.Engine.program}. Each strategy here is a program or a
    transformer of one; a protocol-aware strategy is a composition with
    {!honest}: a crash is [crash_at ~round (honest …)], a lie about the
    input is [honest ~input:fake …], an equivocation is
    [garble_after ~from_round ~seed (honest …)]. Protocol-specific
    attacks (equivocating Dolev–Strong senders, the covering-system
    adversaries of Figures 2–4) live next to the protocols they target.

    {!crash_at} and {!garble_after} wrap only [env.send] (and [crash_at]
    also [env.output]): messages the wrapped program sends with
    [send_w], [send_multi_w] or [send_slice] still go out unchanged.
    That is how the virtual channels of {!Bsm_core.Channels} and Π_bSM's
    own messages are sent, so for the protocols that use them a crashed
    or garbling party still sends what an honest one sends, and moving a
    message from one send function to another changes what such parties
    send. *)

open Bsm_prelude
module SM := Bsm_stable_matching
module Engine := Bsm_runtime.Engine

(** Sends nothing, ever — the paper's "byzantine parties may choose not to
    participate". *)
val silent : Engine.program

(** [flood ~seed ~rounds ~burst ~targets] sends [burst] random byte
    strings (1 to 64 bytes) to random members of [targets] in each of
    [rounds + 1] rounds. Exercises every decoder's malformed-input
    paths. *)
val flood :
  seed:int -> rounds:int -> burst:int -> targets:Party_id.t list -> Engine.program

(** [noise ~seed] is [flood ~seed] for 60 rounds of 8 messages to every
    party. *)
val noise : seed:int -> Engine.program

(** [crash_at ~round p] behaves like [p] until the start of round
    [round], then stops sending through [env.send] and producing output
    (a crash fault). *)
val crash_at : round:int -> Engine.program -> Engine.program

(** [garble_after ~from_round ~seed p] runs [p] with every payload it
    sends through [env.send] from round [from_round] on replaced by
    random bytes of the same length, drawn from [seed]. An exception
    from [p] ends the party quietly. *)
val garble_after : from_round:int -> seed:int -> Engine.program -> Engine.program

(** [honest ~setting ~seed ~input ~self] is the program an honest [self]
    with preference list [input] runs in [setting], with the PKI of the
    scenario seed [seed]. *)
val honest :
  setting:Bsm_core.Setting.t ->
  seed:int ->
  input:SM.Prefs.t ->
  self:Party_id.t ->
  Engine.program

(** [random_coalition rng ~setting ~seed ~profile] draws a maximal
    admissible coalition (exactly [t_left] + [t_right] members) with an
    independently random strategy per member: {!silent}, {!noise}, a
    crash of the honest program, the honest program on a random list,
    or a garbling of the honest program. [seed] is the scenario's. *)
val random_coalition :
  Rng.t ->
  setting:Bsm_core.Setting.t ->
  seed:int ->
  profile:SM.Profile.t ->
  (Party_id.t * Engine.program) list
