open Bsm_prelude
module Wire = Bsm_wire.Wire

module Msg = struct
  type t =
    | Value of string
    | Propose of string
    | King of string
    | Echo of string
    | Sender of string

  let value_tag = 0
  let propose_tag = 1
  let king_tag = 2
  let echo_tag = 3
  let sender_tag = 4

  let codec =
    let open Wire in
    variant ~name:"phase_king_msg"
      [
        pack
          (case value_tag string
             ~inject:(fun v -> Value v)
             ~match_:(function
               | Value v -> Some v
               | Propose _ | King _ | Echo _ | Sender _ -> None));
        pack
          (case propose_tag string
             ~inject:(fun v -> Propose v)
             ~match_:(function
               | Propose v -> Some v
               | Value _ | King _ | Echo _ | Sender _ -> None));
        pack
          (case king_tag string
             ~inject:(fun v -> King v)
             ~match_:(function
               | King v -> Some v
               | Value _ | Propose _ | Echo _ | Sender _ -> None));
        pack
          (case echo_tag string
             ~inject:(fun v -> Echo v)
             ~match_:(function
               | Echo v -> Some v
               | Value _ | Propose _ | King _ | Sender _ -> None));
        pack
          (case sender_tag string
             ~inject:(fun v -> Sender v)
             ~match_:(function
               | Sender v -> Some v
               | Value _ | Propose _ | King _ | Echo _ -> None));
      ]
end

module Votes = struct
  (* The tag byte, then [Wire.Dec.peek_last_string]: the offset of the
     value, or -1. [pos] is the caller's cursor, so a scan allocates one,
     not one per vote. *)
  let read pos ~tag payload =
    let limit = String.length payload in
    if limit = 0 || Char.code (String.unsafe_get payload 0) <> tag then -1
    else begin
      pos := 1;
      Wire.Dec.peek_last_string payload pos ~limit
    end

  let body ~tag payload = read (ref 0) ~tag payload

  (* The group's value is [base]'s bytes [off .. off + len): the first
     vote's payload, read in place, or the party's own value. *)
  type group = {
    base : string;
    off : int;
    len : int;
    mutable voters : Party_id.t list;
  }

  (* [String.compare] on two values in place: bytes unsigned, then
     length. *)
  let rec compare_bytes a ao al b bo bl i =
    if i = al || i = bl then Int.compare al bl
    else
      match Char.compare (String.unsafe_get a (ao + i)) (String.unsafe_get b (bo + i)) with
      | 0 -> compare_bytes a ao al b bo bl (i + 1)
      | c -> c

  (* File [voter]'s vote in the group of [all] (newest first) that
     holds its value, or open a group at the head of [all]; the last
     argument is the part of [all] still to search. *)
  let rec file voter base off len all = function
    | g :: rest ->
      if g.len = len && compare_bytes g.base g.off len base off len 0 = 0 then begin
        g.voters <- voter :: g.voters;
        all
      end
      else file voter base off len all rest
    | [] -> { base; off; len; voters = [ voter ] } :: all

  let tally ~tag ~self ~own inbox =
    let pos = ref 0 in
    let rec scan groups = function
      | [] -> List.rev groups
      | (src, payload) :: rest ->
        let off = read pos ~tag payload in
        if off < 0 then scan groups rest
        else scan (file src payload off (String.length payload - off) groups groups) rest
    in
    let own =
      match own with
      | Some v -> [ { base = v; off = 0; len = String.length v; voters = [ self ] } ]
      | None -> []
    in
    scan own (Machine.first_per_sender inbox)

  let supporters g = Party_set.of_list g.voters

  let value g =
    if g.off = 0 && g.len = String.length g.base then g.base
    else String.sub g.base g.off g.len

  let pick pred groups =
    let better g size (b, b_size) =
      size > b_size
      || size = b_size && compare_bytes g.base g.off g.len b.base b.off b.len 0 < 0
    in
    let rec go best = function
      | [] -> Option.map (fun (g, _) -> value g) best
      | g :: rest ->
        let s = supporters g in
        if not (pred s) then go best rest
        else begin
          let size = Party_set.cardinal s in
          match best with
          | Some b when not (better g size b) -> go best rest
          | Some _ | None -> go (Some (g, size)) rest
        end
    in
    go None groups

  let first pred groups =
    Option.map value (List.find_opt (fun g -> pred (supporters g)) groups)

  let first_from ~tag sender inbox =
    let pos = ref 0 in
    let rec scan = function
      | [] -> None
      | (src, payload) :: rest ->
        let off = if Party_id.equal src sender then read pos ~tag payload else -1 in
        if off < 0 then scan rest
        else Some (String.sub payload off (String.length payload - off))
    in
    scan inbox
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

let make_with_peek p ~self ~others ~input =
  let v = ref input in
  let locked = ref false in
  let my_proposal = ref None in
  let everyone_set = Party_set.of_list p.participants in
  let complement s = Party_set.diff everyone_set s in
  let possibly_corrupt = Adversary_structure.possibly_corrupt p.structure in
  let to_all = Machine.to_all Msg.codec others in
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
      (* Own value counts too: the paper's parties send to "all parties"
         including themselves; self-delivery is implicit here. *)
      let values = Votes.tally ~tag:Msg.value_tag ~self ~own:(Some !v) inbox in
      let proposal =
        Votes.pick (fun senders -> possibly_corrupt (complement senders)) values
      in
      my_proposal := proposal;
      (match proposal with
      | Some w -> to_all (Msg.Propose w)
      | None -> [])
    | 1 ->
      let proposals = Votes.tally ~tag:Msg.propose_tag ~self ~own:!my_proposal inbox in
      (match Votes.pick (fun senders -> not (possibly_corrupt senders)) proposals with
      | Some w -> v := w
      | None -> ());
      locked :=
        List.exists
          (fun g -> possibly_corrupt (complement (Votes.supporters g)))
          proposals;
      if Party_id.equal self king then to_all (Msg.King !v) else []
    | _ ->
      (* The king's first [King] message anywhere in the inbox, read
         only when it can be adopted. *)
      (if not !locked then
         match Votes.first_from ~tag:Msg.king_tag king inbox with
         | Some x -> v := x
         | None -> ());
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

let make p ~self ~input =
  fst (make_with_peek p ~self ~others:(Machine.others ~self p.participants) ~input)
