open Bsm_prelude
module Net = Bsm_runtime.Net
module Engine = Bsm_runtime.Engine

type 'out t = {
  initial : (Party_id.t * string) list;
  rounds : int;
  step : round:int -> inbox:(Party_id.t * string) list -> (Party_id.t * string) list;
  finish : unit -> 'out;
  cells : Engine.state_cell list;
}

let map f m = { m with finish = (fun () -> f (m.finish ())) }

let run (net : Net.t) m =
  List.iter net.register_state m.cells;
  List.iter (fun (dst, msg) -> net.send dst msg) m.initial;
  for round = 1 to m.rounds do
    let inbox = net.sync () in
    let outbox = m.step ~round ~inbox in
    List.iter (fun (dst, msg) -> net.send dst msg) outbox
  done;
  m.finish ()

let silent ~rounds out =
  {
    initial = [];
    rounds;
    step = (fun ~round:_ ~inbox:_ -> []);
    finish = (fun () -> out);
    cells = [];
  }

module Senders = Hashtbl.Make (Party_id)

let first_per_sender inbox =
  let seen = Senders.create 16 in
  List.filter
    (fun (src, _) ->
      if Senders.mem seen src then false
      else begin
        Senders.add seen src ();
        true
      end)
    inbox
