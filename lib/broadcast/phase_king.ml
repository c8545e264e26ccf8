open Bsm_prelude
module Wire = Bsm_wire.Wire

module Msg = struct
  type t =
    | Value of string
    | Propose of string
    | King of string
    | Echo of string
    | Sender of string

  let codec =
    let open Wire in
    variant ~name:"phase_king_msg"
      [
        pack
          (case 0 string
             ~inject:(fun v -> Value v)
             ~match_:(function
               | Value v -> Some v
               | Propose _ | King _ | Echo _ | Sender _ -> None));
        pack
          (case 1 string
             ~inject:(fun v -> Propose v)
             ~match_:(function
               | Propose v -> Some v
               | Value _ | King _ | Echo _ | Sender _ -> None));
        pack
          (case 2 string
             ~inject:(fun v -> King v)
             ~match_:(function
               | King v -> Some v
               | Value _ | Propose _ | Echo _ | Sender _ -> None));
        pack
          (case 3 string
             ~inject:(fun v -> Echo v)
             ~match_:(function
               | Echo v -> Some v
               | Value _ | Propose _ | King _ | Sender _ -> None));
        pack
          (case 4 string
             ~inject:(fun v -> Sender v)
             ~match_:(function
               | Sender v -> Some v
               | Value _ | Propose _ | King _ | Echo _ -> None));
      ]
end

type params = {
  structure : Adversary_structure.t;
  participants : Party_id.t list;
  kings : Party_id.t list;
}

let params ~structure ~participants =
  {
    structure;
    participants;
    kings = Adversary_structure.king_sequence structure ~participants;
  }

let rounds p = 3 * List.length p.kings

(* Decode, dedupe to one message per sender, and keep only payloads of the
   expected shape — anything else is byzantine noise. *)
let relevant extract inbox =
  List.filter_map
    (fun (src, payload) ->
      match Wire.decode Msg.codec payload with
      | Ok msg -> Option.map (fun v -> src, v) (extract msg)
      | Error _ -> None)
    (Machine.first_per_sender inbox)

(* Group received (sender, value) pairs by value: (value, sender set). *)
let tally pairs =
  Util.group_by ~key:snd pairs
  |> List.map (fun (v, items) -> v, Party_set.of_list (List.map fst items))

let make_with_peek p ~self ~input =
  let v = ref input in
  let locked = ref false in
  let my_proposal = ref None in
  let all = p.participants in
  let structure = p.structure in
  let everyone_set = Party_set.of_list all in
  let complement s = Party_set.diff everyone_set s in
  let possibly_corrupt = Adversary_structure.possibly_corrupt structure in
  (* One encoder per machine, reused for every outgoing message: the
     machine is single-fiber, so no two encodes overlap. *)
  let enc = Wire.Enc.create () in
  let to_all msg =
    let payload = Wire.encode_into enc Msg.codec msg in
    List.filter_map
      (fun dst -> if Party_id.equal dst self then None else Some (dst, payload))
      all
  in
  (* Deterministic choice among tallied candidates satisfying [pred]:
     largest support first, then lexicographic value. Under Q3 at most one
     candidate can satisfy the predicates we use, but byzantine behaviour
     must not be able to crash us. *)
  let pick pred tallied =
    let candidates = List.filter (fun (_, senders) -> pred senders) tallied in
    let by_support (v1, s1) (v2, s2) =
      match Int.compare (Party_set.cardinal s2) (Party_set.cardinal s1) with
      | 0 -> String.compare v1 v2
      | c -> c
    in
    match List.sort by_support candidates with
    | [] -> None
    | (value, _) :: _ -> Some value
  in
  let num_kings = List.length p.kings in
  let step ~round ~inbox =
    (* Rounds are grouped in threes per king iteration:
       phase 1 = values arrived, send proposal;
       phase 2 = proposals arrived, adopt + king sends;
       phase 3 = king's value arrived, adopt unless locked. *)
    let iteration = (round - 1) / 3 in
    let king = List.nth p.kings iteration in
    match (round - 1) mod 3 with
    | 0 ->
      let values =
        relevant
          (function
            | Msg.Value x -> Some x
            | Msg.Propose _ | Msg.King _ | Msg.Echo _ | Msg.Sender _ -> None)
          inbox
      in
      (* Own value counts too: the paper's parties send to "all parties"
         including themselves; self-delivery is implicit here. *)
      let values = (self, !v) :: values in
      let proposal =
        pick (fun senders -> possibly_corrupt (complement senders)) (tally values)
      in
      my_proposal := proposal;
      (match proposal with
      | Some w -> to_all (Msg.Propose w)
      | None -> [])
    | 1 ->
      let proposals =
        relevant
          (function
            | Msg.Propose x -> Some x
            | Msg.Value _ | Msg.King _ | Msg.Echo _ | Msg.Sender _ -> None)
          inbox
      in
      let proposals =
        match !my_proposal with
        | Some w -> (self, w) :: proposals
        | None -> proposals
      in
      let tallied = tally proposals in
      (match pick (fun senders -> not (possibly_corrupt senders)) tallied with
      | Some w -> v := w
      | None -> ());
      locked :=
        List.exists (fun (_, senders) -> possibly_corrupt (complement senders)) tallied;
      if Party_id.equal self king then to_all (Msg.King !v) else []
    | _ ->
      let king_value =
        List.find_map
          (fun (src, payload) ->
            if not (Party_id.equal src king) then None
            else
              match Wire.decode Msg.codec payload with
              | Ok (Msg.King x) -> Some x
              | Ok (Msg.Value _ | Msg.Propose _ | Msg.Echo _ | Msg.Sender _)
              | Error _ -> None)
          inbox
      in
      (match king_value with
      | Some x when not !locked -> v := x
      | Some _ | None -> ());
      let last_iteration = iteration = num_kings - 1 in
      if last_iteration then [] else to_all (Msg.Value !v)
  in
  let machine =
    {
      Machine.initial = to_all (Msg.Value input);
      rounds = 3 * num_kings;
      step;
      finish = (fun () -> !v);
      cells =
        [
          Bsm_runtime.Engine.state_cell Wire.string v;
          Bsm_runtime.Engine.state_cell Wire.bool locked;
          Bsm_runtime.Engine.state_cell (Wire.option Wire.string) my_proposal;
        ];
    }
  in
  machine, fun () -> !v

let make p ~self ~input = fst (make_with_peek p ~self ~input)
