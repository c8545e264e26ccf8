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

let value_tag = 0
let echo_tag = 1
let ready_tag = 2

let codec =
  let open Wire in
  variant ~name:"gradecast_msg"
    [
      pack
        (case value_tag string
           ~inject:(fun v -> Value v)
           ~match_:(function
             | Value v -> Some v
             | Echo _ | Ready _ -> None));
      pack
        (case echo_tag string
           ~inject:(fun v -> Echo v)
           ~match_:(function
             | Echo v -> Some v
             | Value _ | Ready _ -> None));
      pack
        (case ready_tag string
           ~inject:(fun v -> Ready v)
           ~match_:(function
             | Ready v -> Some v
             | Value _ | Echo _ -> None));
    ]

(* Every case is a [Wire.string], so [Phase_king.Votes] reads these
   messages in place under this codec's tags. *)
module Votes = Phase_king.Votes

let make p ~self ~sender ~input =
  let everyone = Party_set.of_list p.participants in
  let possibly_corrupt = Adversary_structure.possibly_corrupt p.structure in
  let complement s = Party_set.diff everyone s in
  let to_all = Machine.to_all codec (Machine.others ~self p.participants) in
  let my_echo = ref None in
  let my_ready = ref None in
  let result = ref { value = None; grade = 0 } in
  let initial = if Party_id.equal self sender then to_all (Value input) else [] in
  let step ~round ~inbox =
    match round with
    | 1 ->
      (* Echo whatever the sender (verifiably, over the authenticated
         channel) sent in its first message; stay silent when nothing
         arrived. *)
      let received =
        if Party_id.equal self sender then Some input
        else
          Votes.first_from ~tag:value_tag sender (Machine.first_per_sender inbox)
      in
      my_echo := received;
      (match received with
      | Some v -> to_all (Echo v)
      | None -> [])
    | 2 ->
      let echoes = Votes.tally ~tag:echo_tag ~self ~own:!my_echo inbox in
      let ready = Votes.first (fun senders -> possibly_corrupt (complement senders)) echoes in
      my_ready := ready;
      (match ready with
      | Some v -> to_all (Ready v)
      | None -> [])
    | _ ->
      let readies = Votes.tally ~tag:ready_tag ~self ~own:!my_ready inbox in
      (* At most one value can reach grade >= 1 under Q3; take the
         highest grade defensively, the first-seen value among equals.
         With no grade-2 value, no group's non-supporters are possibly
         corrupt, so grade 1 only asks that the supporters are not. *)
      (result :=
         match Votes.first (fun senders -> possibly_corrupt (complement senders)) readies with
         | Some v -> { value = Some v; grade = 2 }
         | None -> (
           match Votes.first (fun senders -> not (possibly_corrupt senders)) readies with
           | Some v -> { value = Some v; grade = 1 }
           | None -> { value = None; grade = 0 }));
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
