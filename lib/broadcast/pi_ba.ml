open Bsm_prelude
module Wire = Bsm_wire.Wire
module Msg = Phase_king.Msg
module Votes = Phase_king.Votes

let rounds p = Phase_king.rounds p + 1

let make ?others (p : Phase_king.params) ~self ~input =
  let others =
    match others with
    | Some others -> others
    | None -> Machine.others ~self p.participants
  in
  let king_machine, peek = Phase_king.make_with_peek p ~self ~others ~input in
  let king_rounds = king_machine.Machine.rounds in
  let output = ref None in
  let everyone_set = Party_set.of_list p.participants in
  let possibly_corrupt = Adversary_structure.possibly_corrupt p.structure in
  let to_all = Machine.to_all Msg.codec others in
  let step ~round ~inbox =
    if round <= king_rounds then begin
      let outbox = king_machine.Machine.step ~round ~inbox in
      (* The king protocol's final step sends nothing; append the echo of
         the value it settled on. *)
      if round = king_rounds then outbox @ to_all (Msg.Echo (peek ())) else outbox
    end
    else begin
      (* Echo round: output z iff the non-echoers of z form a
         possibly-corrupt set ("same value from k − t parties"); the
         first such value, own echo first. *)
      let echoes = Votes.tally ~tag:Msg.echo_tag ~self ~own:(Some (peek ())) inbox in
      output :=
        Votes.first
          (fun senders -> possibly_corrupt (Party_set.diff everyone_set senders))
          echoes;
      []
    end
  in
  {
    Machine.initial = king_machine.Machine.initial;
    rounds = king_rounds + 1;
    step;
    finish = (fun () -> !output);
    cells =
      king_machine.Machine.cells
      @ [ Bsm_runtime.Engine.state_cell (Wire.option Wire.string) output ];
  }
