open Bsm_prelude
module Msg = Phase_king.Msg

let rounds p = 1 + Pi_ba.rounds p

let make ?others (p : Phase_king.params) ~self ~sender ~input ~default =
  let others =
    match others with
    | Some others -> others
    | None -> Machine.others ~self p.participants
  in
  let ba = ref None in
  let initial =
    if Party_id.equal self sender then
      Machine.to_all Msg.codec others (Msg.Sender input)
    else []
  in
  let step ~round ~inbox =
    if round = 1 then begin
      (* The sender's first [Sender] message anywhere in the inbox. *)
      let ba_input =
        if Party_id.equal self sender then input
        else
          Option.value
            (Phase_king.Votes.first_from ~tag:Msg.sender_tag sender inbox)
            ~default
      in
      let machine = Pi_ba.make p ~self ~others ~input:ba_input in
      ba := Some machine;
      machine.Machine.initial
    end
    else begin
      match !ba with
      | Some machine -> machine.Machine.step ~round:(round - 1) ~inbox
      | None -> []
    end
  in
  let finish () =
    match !ba with
    | Some machine -> machine.Machine.finish ()
    | None -> None
  in
  (* The inner Π_BA machine is built lazily at round 1 (its input is the
     sender's round-0 message), after session-time registration — so its
     cells cannot be exposed here; only eagerly-created state can. *)
  { Machine.initial; rounds = rounds p; step; finish; cells = [] }
