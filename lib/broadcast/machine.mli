(** Round machines: synchronous protocols as explicit step functions.

    A machine describes one party's role in one protocol instance. Its
    lifecycle over virtual rounds (see {!Bsm_runtime.Net}):

    - virtual round 0: the [initial] messages are sent;
    - virtual rounds [1 .. rounds]: the previous round's inbox is passed to
      [step], which returns the messages to send;
    - after the final step, [finish] yields the output.

    Machines are written once and composed freely: {!run} drives a single
    machine over a net; {!Session.run_parallel} multiplexes many machines
    over one net (the paper's "join an invocation of Π_BA for every party"
    pattern). Machines are stateful one-shot values: create a fresh one per
    execution. *)

open Bsm_prelude

(** What a machine sends in one round: a list of fan-outs, each
    [(dsts, payload)] sending [payload] to every party of [dsts] in list
    order, the fan-outs in list order. It stands for the messages
    [List.concat_map (fun (dsts, p) -> List.map (fun d -> d, p) dsts)],
    and both drivers send exactly those, through one [Net.send_many] per
    fan-out. A broadcast is one fan-out whose destination list is built
    once per party and participant set and shared by every machine of
    that party and every round ({!others}, {!to_all}), so a step
    allocates nothing per receiver. *)
type outbox = (Party_id.t list * string) list

type 'out t = {
  initial : outbox;
  rounds : int;
  step : round:int -> inbox:(Party_id.t * string) list -> outbox;
  finish : unit -> 'out;
  cells : Bsm_runtime.Engine.state_cell list;
      (** the machine's round-local state, exposed to the
          state-corruption plane; {!run} and {!Session.run_parallel}
          register these against the net before the first round. Machines
          whose state is created lazily mid-protocol (e.g. a nested
          machine built on first input) expose only what exists at
          construction time. *)
}

(** [map f m] post-processes the output. *)
val map : ('a -> 'b) -> 'a t -> 'b t

(** [run net m] drives [m] over [net] — [m.rounds + ...] no extra rounds:
    exactly [m.rounds] calls to [Net.sync]. *)
val run : Bsm_runtime.Net.t -> 'out t -> 'out

(** [others ~self participants] is [participants] without [self], in
    order: where [self] broadcasts in that participant set. Build it once
    per party and participant set, where the party's machines are made,
    and pass it to each of them, so the party's machines share one list
    for the whole run. *)
val others : self:Party_id.t -> Party_id.t list -> Party_id.t list

(** [to_all codec others] is a machine's broadcast to [others] (see
    {!others}): each call encodes its message once, with an encoder owned
    by this [to_all] (a machine is single-fiber, so no two encodes
    overlap), and returns the one fan-out [[others, payload]]. *)
val to_all : 'a Bsm_wire.Wire.t -> Party_id.t list -> 'a -> outbox

(** Keep at most the first message of each sender (protocol steps must
    count each sender once, or byzantine floods would inflate quorums). *)
val first_per_sender : (Party_id.t * 'a) list -> (Party_id.t * 'a) list
