open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Net = Bsm_runtime.Net
module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto

type auth_mode =
  | Majority
  | Signed of {
      signer : Crypto.Signer.t;
      verifier : Crypto.Verifier.t;
    }

let stride = function
  | Topology.Fully_connected -> 1
  | Topology.One_sided | Topology.Bipartite -> 2

(* --- wire format ------------------------------------------------------- *)

type payload = {
  src : Party_id.t;
  dst : Party_id.t;
  vround : int;
  id : int;
  body : string;
  signature : Crypto.Signature.t option;
}

let payload_codec =
  Wire.map
    ~inject:(fun ((src, dst), (vround, id), (body, signature)) ->
      { src; dst; vround; id; body; signature })
    ~project:(fun p -> (p.src, p.dst), (p.vround, p.id), (p.body, p.signature))
    (Wire.triple
       (Wire.pair Wire.party_id Wire.party_id)
       (Wire.pair Wire.uint Wire.uint)
       (Wire.pair Wire.string (Wire.option Crypto.Signature.codec)))

type relay =
  | Direct of string
  | Request of payload
  | Forward of payload

let relay_codec =
  let open Wire in
  variant ~name:"relay"
    [
      pack
        (case 0 string
           ~inject:(fun b -> Direct b)
           ~match_:(function
             | Direct b -> Some b
             | Request _ | Forward _ -> None));
      pack
        (case 1 payload_codec
           ~inject:(fun p -> Request p)
           ~match_:(function
             | Request p -> Some p
             | Direct _ | Forward _ -> None));
      pack
        (case 2 payload_codec
           ~inject:(fun p -> Forward p)
           ~match_:(function
             | Forward p -> Some p
             | Direct _ | Request _ -> None));
    ]

(* The signature covers the payload with the signature field blanked. *)
let signing_bytes p = Wire.encode payload_codec { p with signature = None }

(* --- forwarding duty ---------------------------------------------------- *)

let request_tag = '\001'
let forward_tag = '\002'

(* [src], [dst], [vround] and [id] sit at a fixed position right after
   the variant tag, so relays and receivers can read them without paying
   for the body (the expensive field: a preference list, a broadcast
   round's worth of votes). The read walks the same varints the
   [payload_codec] prefix does, in the same order, but lands them in one
   flat record instead of building party ids and tuples. [None] on
   anything that doesn't parse that far — the caller treats it like a
   malformed frame. *)
module Header = struct
  type t = {
    src_side : Side.t;
    src_index : int;
    dst_side : Side.t;
    dst_index : int;
    vround : int;
    id : int;
  }

  (* [Wire.side]'s decoding: a uint that must be 0 or 1. *)
  let side d =
    match Wire.Dec.uint d with
    | 0 -> Side.Left
    | 1 -> Side.Right
    | _ -> raise_notrace (Wire.Malformed "relay header: invalid side")

  let read (s : Wire.Slice.t) =
    let d = Wire.Dec.of_slice s in
    match
      let (_ : int) = Wire.Dec.tag d in
      let src_side = side d in
      let src_index = Wire.Dec.uint d in
      let dst_side = side d in
      let dst_index = Wire.Dec.uint d in
      let vround = Wire.Dec.uint d in
      let id = Wire.Dec.uint d in
      { src_side; src_index; dst_side; dst_index; vround; id }
    with
    | h -> Some h
    | exception Wire.Malformed _ -> None

  let is_party side index p =
    Side.equal side (Party_id.side p) && index = Party_id.index p
end

(* A [Forward] differs from the [Request] it answers only in the leading
   variant tag, so a forwarder can reuse the received bytes wholesale —
   replay the span with one byte rewritten instead of walking the codec
   again. The write-only codec below streams the received view straight
   into the sender's round arena (tag byte, then the rest of the span),
   so forwarding allocates nothing outside the arena. The receiver
   decodes the same payload either way (and the signature check
   re-encodes canonically), so behavior is unchanged. *)
let forward_slice_codec : Wire.Slice.t Wire.t =
  {
    Wire.write =
      (fun e (s : Wire.Slice.t) ->
        Wire.Enc.append e "\002";
        Wire.Enc.append_sub e s.Wire.Slice.base ~off:(s.Wire.Slice.off + 1)
          ~len:(Wire.Slice.length s - 1));
    read = (fun _ -> raise (Wire.Malformed "forward_slice_codec is write-only"));
  }

(* Forwarding needs only the header: a relay replays the claimed-[src]
   frame towards [dst] verbatim (body and all), and the receiver is the
   one who judges the payload — signature check or majority vote. A
   frame whose body is garbage is forwarded like any other and dies at
   the receiver's decode, exactly as a byzantine relay could arrange
   anyway. *)
let forward_payload (env : Engine.env) ~topology ~from ~(data : Wire.Slice.t) =
  match Header.read data with
  | Some h when Header.is_party h.src_side h.src_index from ->
    let dst = Party_id.make h.dst_side h.dst_index in
    if Topology.connected topology env.self dst && not (Party_id.equal dst env.self)
    then env.send_w forward_slice_codec dst data
  | Some _ | None -> ()

let forward_duty (env : Engine.env) ~topology (e : Engine.envelope) =
  (* Only Request frames matter here, and most traffic is Direct — check
     the leading tag byte before paying for any parsing. *)
  if Wire.Slice.length e.data > 0 && Wire.Slice.get e.data 0 = request_tag then
    forward_payload env ~topology ~from:e.src ~data:e.data

(* --- replay suppression ----------------------------------------------------- *)

(* The relay ids already delivered, per claimed source: one int-keyed
   table per roster party, found by dense index, so a lookup hashes one
   int instead of a [(party, id)] pair. A source outside the roster can
   only come from a forged frame; those few go to [stray], keyed by the
   whole [(side, index, id)], so they are deduplicated exactly like
   genuine ones. *)
module Delivered = struct
  module Ids = Hashtbl.Make (Int)

  type t = {
    k : int;
    roster : unit Ids.t array;
    stray : (Side.t * int * int, unit) Hashtbl.t;
  }

  let create ~k =
    { k; roster = Array.init (2 * k) (fun _ -> Ids.create 8); stray = Hashtbl.create 1 }

  let roster_ids t side index = t.roster.((Side.to_int side * t.k) + index)

  let mem t side index id =
    if index < t.k then Ids.mem (roster_ids t side index) id
    else Hashtbl.mem t.stray (side, index, id)

  let add t side index id =
    if index < t.k then Ids.replace (roster_ids t side index) id ()
    else Hashtbl.replace t.stray (side, index, id) ()
end

(* --- the virtual net ----------------------------------------------------- *)

let virtual_net (env : Engine.env) ~topology ~auth =
  let self = env.self in
  let k = env.k in
  let stride = stride topology in
  let opposite = Party_id.side_members (Side.opposite (Party_id.side self)) ~k in
  let vround = ref 0 in
  let next_id = ref 0 in
  (* (src, id) pairs already delivered, for replay suppression in signed
     mode; majority mode is replay-proof by the honest-majority argument
     but deduplicates identically for cheap idempotence. *)
  let delivered = Delivered.create ~k in
  (* The channel layer's own round-local state is corruptible too: a
     scrambled [vround] desynchronizes this party's virtual clock, a
     scrambled [next_id] collides or skips message ids — failure modes a
     byzantine relay could never force on an honest party, but an
     arbitrary-initial-state start can. *)
  env.register_state Wire.uint vround;
  env.register_state Wire.uint next_id;
  let send dst body =
    if Party_id.equal dst self then ()
    else if Topology.connected topology self dst then
      env.send_w relay_codec dst (Direct body)
    else begin
      let p =
        { src = self; dst; vround = !vround; id = !next_id; body; signature = None }
      in
      incr next_id;
      let p =
        match auth with
        | Majority -> p
        | Signed { signer; _ } ->
          { p with signature = Some (Crypto.Signer.sign signer (signing_bytes p)) }
      in
      (* One arena encode (and one signature already paid above) shared
         by every relay: the request bytes are identical per target. *)
      env.send_multi_w relay_codec opposite (Request p)
    end
  in
  let signed = match auth with Signed _ -> true | Majority -> false in
  let sync () =
    let direct = ref [] in
    let forwards = ref [] in
    (* Signed mode defers Forward decoding: frames are kept as raw spans
       and only the first fresh copy per (src, id) pays for a body
       decode below. Majority mode must decode every copy anyway (the
       vote groups payloads), so it keeps the eager path. *)
    let fwd_frames = ref [] in
    for _ = 1 to stride do
      let inbox = env.next_round () in
      List.iter
        (fun (e : Engine.envelope) ->
          let tag =
            if Wire.Slice.length e.data > 0 then Wire.Slice.get e.data 0
            else '\255'
          in
          if tag = request_tag then
            (* Relay duty never needs the body — header peek only. *)
            forward_payload env ~topology ~from:e.src ~data:e.data
          else if signed && tag = forward_tag then
            fwd_frames := e.data :: !fwd_frames
          else
            match Wire.decode_slice relay_codec e.data with
            | Ok (Direct body) -> direct := (e.src, body) :: !direct
            | Ok (Request _) -> ()
            | Ok (Forward p) -> forwards := (e.src, p) :: !forwards
            | Error _ -> ())
        inbox
    done;
    let fresh p =
      Party_id.equal p.dst self && p.vround = !vround
      && not (Delivered.mem delivered (Party_id.side p.src) (Party_id.index p.src) p.id)
    in
    let deliver p =
      Delivered.add delivered (Party_id.side p.src) (Party_id.index p.src) p.id;
      p.src, p.body
    in
    let relayed =
      match auth with
      | Signed { verifier; _ } ->
        List.filter_map
          (fun frame ->
            match Header.read frame with
            | Some h
              when Header.is_party h.dst_side h.dst_index self && h.vround = !vround
                   && not (Delivered.mem delivered h.src_side h.src_index h.id) -> begin
              match Wire.decode_slice relay_codec frame with
              | Ok (Forward ({ signature = Some signature; _ } as p))
                when fresh p
                     && Crypto.Verifier.verify verifier ~signer:p.src
                          ~msg:(signing_bytes p) signature ->
                Some (deliver p)
              | Ok _ | Error _ -> None
            end
            | Some _ | None -> None)
          !fwd_frames
      | Majority ->
        (* Group identical payloads; accept those vouched for by a strict
           majority of distinct forwarders on the opposite side. *)
        let key (_, p) = Wire.encode payload_codec p in
        Util.group_by ~key !forwards
        |> List.filter_map (fun (_, items) ->
               let p = snd (List.hd items) in
               let forwarders =
                 List.sort_uniq Party_id.compare (List.map fst items)
                 |> List.filter (fun f ->
                        Side.equal (Party_id.side f)
                          (Side.opposite (Party_id.side p.src)))
               in
               if fresh p && 2 * List.length forwarders > k then Some (deliver p)
               else None)
    in
    incr vround;
    let all = List.rev_append !direct relayed in
    (* On a fully-connected net the inbox already arrives in sender order
       (the engine delivers by sender), so check before sorting: the
       result is the same list either way. *)
    let by_sender (a, _) (b, _) = Party_id.compare a b in
    let rec sorted = function
      | a :: (b :: _ as rest) -> by_sender a b <= 0 && sorted rest
      | [] | [ _ ] -> true
    in
    if sorted all then all else List.stable_sort by_sender all
  in
  { Net.self; stride; send; sync; register_state = env.register_cell }
