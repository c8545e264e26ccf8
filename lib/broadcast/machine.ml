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

let first_per_sender_table inbox =
  let seen = Senders.create 16 in
  List.filter
    (fun (src, _) ->
      if Senders.mem seen src then false
      else begin
        Senders.add seen src ();
        true
      end)
    inbox

(* Inboxes arrive sorted by sender (engine and nets deliver sender by
   sender), so the first message of each sender is the first of its run:
   drop the rest of each run, and return a duplicate-free inbox as it is.
   An unsorted list, which a caller may pass, goes through the table. *)
let first_per_sender inbox =
  let rec scan dups = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      let c = Party_id.compare a b in
      if c < 0 then scan dups rest else if c = 0 then scan true rest else -1
    | [] | [ _ ] -> if dups then 1 else 0
  in
  match scan false inbox with
  | 0 -> inbox
  | 1 ->
    let rec keep acc = function
      | ((a, _) as x) :: rest -> keep (x :: acc) (skip a rest)
      | [] -> List.rev acc
    and skip a = function
      | (b, _) :: rest when Party_id.equal a b -> skip a rest
      | rest -> rest
    in
    keep [] inbox
  | _ -> first_per_sender_table inbox
