open Bsm_prelude
module Net = Bsm_runtime.Net
module Engine = Bsm_runtime.Engine
module Wire = Bsm_wire.Wire

type outbox = (Party_id.t list * string) list

type 'out t = {
  initial : outbox;
  rounds : int;
  step : round:int -> inbox:(Party_id.t * string) list -> outbox;
  finish : unit -> 'out;
  cells : Engine.state_cell list;
}

let map f m = { m with finish = (fun () -> f (m.finish ())) }

let run (net : Net.t) m =
  List.iter net.register_state m.cells;
  let send (dsts, msg) = net.send_many dsts msg in
  List.iter send m.initial;
  for round = 1 to m.rounds do
    let inbox = net.sync () in
    List.iter send (m.step ~round ~inbox)
  done;
  m.finish ()

let others ~self participants =
  List.filter (fun dst -> not (Party_id.equal dst self)) participants

let to_all codec others =
  let enc = Wire.Enc.create () in
  fun msg -> [ others, Wire.encode_into enc codec msg ]

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
