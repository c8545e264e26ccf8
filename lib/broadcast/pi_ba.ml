open Bsm_prelude
module Wire = Bsm_wire.Wire

let rounds p = Phase_king.rounds p + 1

let make (p : Phase_king.params) ~self ~input =
  let king_machine, peek = Phase_king.make_with_peek p ~self ~input in
  let king_rounds = king_machine.Machine.rounds in
  let output = ref None in
  let everyone_set = Party_set.of_list p.participants in
  let possibly_corrupt = Adversary_structure.possibly_corrupt p.structure in
  (* Reused across this machine's messages; the machine is single-fiber. *)
  let enc = Wire.Enc.create () in
  let to_all msg =
    let payload = Wire.encode_into enc Phase_king.Msg.codec msg in
    List.filter_map
      (fun dst -> if Party_id.equal dst self then None else Some (dst, payload))
      p.participants
  in
  let step ~round ~inbox =
    if round <= king_rounds then begin
      let outbox = king_machine.Machine.step ~round ~inbox in
      (* The king protocol's final step sends nothing; append the echo of
         the value it settled on. *)
      if round = king_rounds then outbox @ to_all (Phase_king.Msg.Echo (peek ()))
      else outbox
    end
    else begin
      (* Echo round: output z iff the non-echoers of z form a
         possibly-corrupt set ("same value from k − t parties"). *)
      let echoes =
        List.filter_map
          (fun (src, payload) ->
            match Wire.decode Phase_king.Msg.codec payload with
            | Ok (Phase_king.Msg.Echo z) -> Some (src, z)
            | Ok
                ( Phase_king.Msg.Value _ | Phase_king.Msg.Propose _
                | Phase_king.Msg.King _ | Phase_king.Msg.Sender _ )
            | Error _ -> None)
          (Machine.first_per_sender inbox)
      in
      let echoes = (self, peek ()) :: echoes in
      let grouped = Util.group_by ~key:snd echoes in
      let accepted =
        List.find_map
          (fun (z, items) ->
            let senders = Party_set.of_list (List.map fst items) in
            if possibly_corrupt (Party_set.diff everyone_set senders) then Some z
            else None)
          grouped
      in
      output := accepted;
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
