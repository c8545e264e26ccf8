open Bsm_prelude
module Wire = Bsm_wire.Wire

type params = {
  structure : Adversary_structure.t;
  participants : Party_id.t list;
}

let rounds = 3

type verdict = {
  value : string option;
  grade : int;
}

type msg =
  | Value of string
  | Echo of string
  | Ready of string

let codec =
  let open Wire in
  variant ~name:"gradecast_msg"
    [
      pack
        (case 0 string
           ~inject:(fun v -> Value v)
           ~match_:(function
             | Value v -> Some v
             | Echo _ | Ready _ -> None));
      pack
        (case 1 string
           ~inject:(fun v -> Echo v)
           ~match_:(function
             | Echo v -> Some v
             | Value _ | Ready _ -> None));
      pack
        (case 2 string
           ~inject:(fun v -> Ready v)
           ~match_:(function
             | Ready v -> Some v
             | Value _ | Echo _ -> None));
    ]

let make p ~self ~sender ~input =
  let everyone = Party_set.of_list p.participants in
  let possibly_corrupt = Adversary_structure.possibly_corrupt p.structure in
  let complement s = Party_set.diff everyone s in
  (* Reused across this machine's messages; the machine is single-fiber. *)
  let enc = Wire.Enc.create () in
  let to_all msg =
    let payload = Wire.encode_into enc codec msg in
    List.filter_map
      (fun dst -> if Party_id.equal dst self then None else Some (dst, payload))
      p.participants
  in
  let extract shape inbox =
    List.filter_map
      (fun (src, payload) ->
        match Wire.decode codec payload with
        | Ok m -> Option.map (fun v -> src, v) (shape m)
        | Error _ -> None)
      (Machine.first_per_sender inbox)
  in
  let tally pairs =
    Util.group_by ~key:snd pairs
    |> List.map (fun (v, items) -> v, Party_set.of_list (List.map fst items))
  in
  let my_echo = ref None in
  let my_ready = ref None in
  let result = ref { value = None; grade = 0 } in
  let initial = if Party_id.equal self sender then to_all (Value input) else [] in
  let step ~round ~inbox =
    match round with
    | 1 ->
      (* Echo whatever the sender (verifiably, over the authenticated
         channel) sent; stay silent when nothing arrived. *)
      let received =
        if Party_id.equal self sender then Some input
        else
          List.find_map
            (fun (src, v) -> if Party_id.equal src sender then Some v else None)
            (extract
               (function
                 | Value v -> Some v
                 | Echo _ | Ready _ -> None)
               inbox)
      in
      my_echo := received;
      (match received with
      | Some v -> to_all (Echo v)
      | None -> [])
    | 2 ->
      let echoes =
        extract
          (function
            | Echo v -> Some v
            | Value _ | Ready _ -> None)
          inbox
      in
      let echoes =
        match !my_echo with
        | Some v -> (self, v) :: echoes
        | None -> echoes
      in
      let ready =
        List.find_map
          (fun (v, senders) ->
            if possibly_corrupt (complement senders) then Some v else None)
          (tally echoes)
      in
      my_ready := ready;
      (match ready with
      | Some v -> to_all (Ready v)
      | None -> [])
    | _ ->
      let readies =
        extract
          (function
            | Ready v -> Some v
            | Value _ | Echo _ -> None)
          inbox
      in
      let readies =
        match !my_ready with
        | Some v -> (self, v) :: readies
        | None -> readies
      in
      let graded =
        List.filter_map
          (fun (v, senders) ->
            if possibly_corrupt (complement senders) then Some (v, 2)
            else if not (possibly_corrupt senders) then Some (v, 1)
            else None)
          (tally readies)
      in
      (* At most one value can reach grade >= 1 under Q3; pick the highest
         grade defensively. *)
      (result :=
         match List.sort (fun (_, a) (_, b) -> Int.compare b a) graded with
         | (v, g) :: _ -> { value = Some v; grade = g }
         | [] -> { value = None; grade = 0 });
      []
  in
  let verdict_codec =
    Wire.map
      ~inject:(fun (value, grade) -> { value; grade })
      ~project:(fun { value; grade } -> value, grade)
      (Wire.pair (Wire.option Wire.string) Wire.uint)
  in
  {
    Machine.initial;
    rounds;
    step;
    finish = (fun () -> !result);
    cells =
      [
        Bsm_runtime.Engine.state_cell (Wire.option Wire.string) my_echo;
        Bsm_runtime.Engine.state_cell (Wire.option Wire.string) my_ready;
        Bsm_runtime.Engine.state_cell verdict_codec result;
      ];
  }
