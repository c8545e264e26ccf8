open Bsm_prelude

type t = {
  self : Party_id.t;
  stride : int;
  send : Party_id.t -> string -> unit;
  send_many : Party_id.t list -> string -> unit;
  sync : unit -> (Party_id.t * string) list;
  register_state : Engine.state_cell -> unit;
}

let direct (env : Engine.env) =
  {
    self = env.self;
    stride = 1;
    send = env.send;
    (* One [env.send] per destination: the engine shares the arena span of
       a string sent to many targets back to back. *)
    send_many = (fun dsts msg -> List.iter (fun dst -> env.send dst msg) dsts);
    sync =
      (fun () ->
        List.map
          (fun (e : Engine.envelope) -> e.src, Bsm_wire.Wire.Slice.to_string e.data)
          (env.next_round ()));
    register_state = env.register_cell;
  }
