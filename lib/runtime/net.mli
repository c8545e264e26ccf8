(** Virtual point-to-point channels.

    Protocol machines are written against this interface rather than
    against {!Engine.env} directly, so the same protocol code runs over a
    physical fully-connected network (stride 1) or over the paper's
    simulated channels — majority proxy (Lemma 6), signature proxy
    (Lemma 8), or the timestamped relay of Lemma 10 — where one virtual
    round spans [stride] engine rounds. The channel implementations live in
    [Bsm_core.Channels]. *)

open Bsm_prelude

type t = {
  self : Party_id.t;
  stride : int;  (** engine rounds consumed per [sync] *)
  send : Party_id.t -> string -> unit;
      (** queue a virtual message for the current virtual round *)
  send_many : Party_id.t list -> string -> unit;
      (** [send_many dsts msg] is [List.iter (fun d -> send d msg) dsts]:
          the same messages, bytes and order. A net may serve the whole
          fan-out at once — the virtual net encodes one frame for each
          run of destinations it reaches directly — so callers that send
          one payload to many parties should use it. *)
  sync : unit -> (Party_id.t * string) list;
      (** advance one virtual round; returns messages sent to [self] in the
          previous virtual round, sorted by sender *)
  register_state : Engine.state_cell -> unit;
      (** forward a corruptible state cell to the engine's
          state-corruption seam ({!Engine.env.register_cell}); machines
          register their round-local state through this so scrambles
          reach protocol memory behind virtual channels too *)
}

(** Physical channels of the engine: one engine round per virtual round. *)
val direct : Engine.env -> t
