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

let signature_codec = Wire.option Crypto.Signature.codec

let payload_codec =
  Wire.map
    ~inject:(fun ((src, dst), (vround, id), (body, signature)) ->
      { src; dst; vround; id; body; signature })
    ~project:(fun p -> (p.src, p.dst), (p.vround, p.id), (p.body, p.signature))
    (Wire.triple
       (Wire.pair Wire.party_id Wire.party_id)
       (Wire.pair Wire.uint Wire.uint)
       (Wire.pair Wire.string signature_codec))

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

(* --- forwarding duty ---------------------------------------------------- *)

let direct_tag = '\000'
let request_tag = '\001'
let forward_tag = '\002'

(* [src], [dst], [vround] and [id] sit at a fixed position right after
   the variant tag, so relays and receivers can read them without paying
   for the body (the expensive field: a preference list, a broadcast
   round's worth of votes). [read] reads them with one
   [Wire.Dec.peek_fields] call over [layout], the payload codec's
   prefix, into a reusable record: no decoder, no exception, no
   allocation. Each copy of a relayed message costs this byte scan, not
   a parse. *)
module Header = struct
  type t = {
    mutable src_side : Side.t;
    mutable src_index : int;
    mutable dst_side : Side.t;
    mutable dst_index : int;
    mutable vround : int;
    mutable id : int;
    pos : int ref;
    values : int array;
  }

  let layout = Wire.Dec.[| Side; Uint; Side; Uint; Uint; Uint |]

  (* The side of each code a [Side] field can hold. *)
  let sides = Array.init 2 Side.of_int

  let create () =
    {
      src_side = Side.Left;
      src_index = 0;
      dst_side = Side.Left;
      dst_index = 0;
      vround = 0;
      id = 0;
      pos = ref 0;
      values = Array.make (Array.length layout) 0;
    }

  (* [values] is as long as [layout] and a [Side] field's value is 0 or
     1, so the reads below need no bounds checks. *)
  let read h (s : Wire.Slice.t) =
    let v = h.values in
    h.pos := s.off + 1;
    Wire.Dec.peek_fields s.base h.pos ~limit:(s.off + s.len) layout v >= 0
    && begin
      h.src_side <- Array.unsafe_get sides (Array.unsafe_get v 0);
      h.src_index <- Array.unsafe_get v 1;
      h.dst_side <- Array.unsafe_get sides (Array.unsafe_get v 2);
      h.dst_index <- Array.unsafe_get v 3;
      h.vround <- Array.unsafe_get v 4;
      h.id <- Array.unsafe_get v 5;
      true
    end

  let is_party side index (p : Party_id.t) = side = p.side && index = p.index
end

(* --- the request writer ----------------------------------------------------- *)

(* One relay frame at a time, written through [Wire.Enc] in
   [relay_codec]'s field order into an encoder a virtual net reuses for
   every request it sends and every signed copy it checks. [unsigned]
   writes a [Request] or [Forward] whose signature is [None], so bytes
   [1 .. length) are the payload codec's encoding of the payload with its
   signature blanked: exactly what a signature covers. The sender signs
   them where they lie, and [sign] turns [None] into [Some] and appends
   the signature. A signed receiver rebuilds them with the same
   [unsigned] from the values it parsed out of a copy, so a forged copy
   with padded, non-minimal varints is judged by the canonical bytes, as
   re-encoding the decoded payload judged it. *)
module Writer = struct
  let unsigned e ~tag ~src_side ~src_index ~dst_side ~dst_index ~vround ~id body =
    Wire.Enc.reset e;
    Wire.Enc.tag e (Char.code tag);
    Wire.Enc.uint e (Side.to_int src_side);
    Wire.Enc.uint e src_index;
    Wire.Enc.uint e (Side.to_int dst_side);
    Wire.Enc.uint e dst_index;
    Wire.Enc.uint e vround;
    Wire.Enc.uint e id;
    Wire.Enc.string e body;
    signature_codec.write e None

  (* The range a signature covers: everything after the tag. *)
  let signed_len e = Wire.Enc.length e - 1

  (* Sign, then replace the one [None] byte with the [Some] signature. *)
  let sign e signer =
    let signature = Crypto.Signer.sign_sub signer e ~off:1 ~len:(signed_len e) in
    Wire.Enc.truncate e (Wire.Enc.length e - 1);
    signature_codec.write e (Some signature)

  let verify e verifier ~signer signature =
    Crypto.Verifier.verify_sub verifier ~signer e ~off:1 ~len:(signed_len e) signature

  (* The written frame, copied into the sender's arena in one piece. *)
  let codec : Wire.Enc.t Wire.t =
    {
      Wire.write = Wire.Enc.append_enc;
      read = (fun _ -> raise (Wire.Malformed "Channels.Writer.codec is write-only"));
    }
end

(* A [Direct] frame's body, read in place: [Wire.Dec.peek_last_string]
   after the tag byte, so [None] exactly where [relay_codec]'s decoding
   fails. [s] must hold at least the tag. *)
let direct_body pos (s : Wire.Slice.t) =
  pos := s.off + 1;
  let off = Wire.Dec.peek_last_string s.base pos ~limit:(s.off + s.len) in
  if off < 0 then None else Some (String.sub s.base off (!pos - off))

(* A [Forward] differs from the [Request] it answers only in the leading
   variant tag, so a forwarder can reuse the received bytes wholesale —
   replay the span with one byte rewritten instead of walking the codec
   again. The write-only codec below streams the received view straight
   into the sender's round arena (tag byte, then the rest of the span),
   so forwarding allocates nothing outside the arena. The receiver reads
   the same payload either way (and the signature check rebuilds the
   signed bytes canonically), so behavior is unchanged. *)
let forward_slice_codec : Wire.Slice.t Wire.t =
  {
    Wire.write =
      (fun e (s : Wire.Slice.t) ->
        Wire.Enc.append e "\002";
        Wire.Enc.append_sub e s.Wire.Slice.base ~off:(s.Wire.Slice.off + 1)
          ~len:(Wire.Slice.length s - 1));
    read = (fun _ -> raise (Wire.Malformed "forward_slice_codec is write-only"));
  }

(* A party's channels, read off the topology once per net: whether
   [self] has a channel to a party of each side other than itself, as
   [Engine.run]'s [side_links] reads them. [reaches] then judges a
   destination by its fields, with no call into [Topology] or
   [Party_id]. *)
type links = {
  self : Party_id.t;
  to_left : bool;
  to_right : bool;
}

let links topology self =
  let to_side side =
    Topology.connected topology (Party_id.make self.Party_id.side 0) (Party_id.make side 1)
  in
  { self; to_left = to_side Side.Left; to_right = to_side Side.Right }

let reaches l side index =
  (match (side : Side.t) with
  | Left -> l.to_left
  | Right -> l.to_right)
  && not (Header.is_party side index l.self)

(* Forwarding needs only the header: a relay replays the claimed-[src]
   frame towards [dst] verbatim (body and all), and the receiver is the
   one who judges the payload — signature check or majority vote. A
   frame whose body is garbage is forwarded like any other and dies at
   the receiver's decode, exactly as a byzantine relay could arrange
   anyway. *)
let forward_payload (env : Engine.env) h l ~from ~(data : Wire.Slice.t) =
  if
    Header.read h data
    && Header.is_party h.src_side h.src_index from
    && reaches l h.dst_side h.dst_index
  then env.send_w forward_slice_codec (Party_id.make h.dst_side h.dst_index) data

let forward_duty (env : Engine.env) ~topology =
  let h = Header.create () and l = links topology env.self in
  fun (e : Engine.envelope) ->
    (* Only Request frames matter here, and most traffic is Direct — check
       the leading tag byte before paying for any parsing. *)
    if Wire.Slice.length e.data > 0 && Wire.Slice.get e.data 0 = request_tag then
      forward_payload env h l ~from:e.src ~data:e.data

(* --- replay suppression ----------------------------------------------------- *)

(* The relay ids already delivered, per claimed source. Ids are
   per-sender counters from 0, so a roster sender's ids live mostly in a
   growable byte map (one byte per id, found by the sender's dense
   index): a lookup is a bounds check and a byte read. The map only
   grows to reach an id near its end — below twice its length, or below
   [min_span] — and never past [dense_ids]; any other id goes to the
   sender's int-keyed table, so a lone far id (forged, scrambled, or
   from a very long run) costs one table entry, not a map that reaches
   it. Ids below the map's length are always in the map: growing it
   moves the table ids it now covers. A source outside the roster can
   only come from a forged frame; those few go to [stray], keyed by the
   whole [(side, index, id)], so they are deduplicated exactly like
   genuine ones. *)
module Delivered = struct
  module Ids = Hashtbl.Make (Int)

  let min_span = 1024
  let dense_ids = 1 lsl 16

  type sender = {
    mutable seen : Bytes.t;
    large : unit Ids.t;
  }

  type t = {
    k : int;
    roster : sender array;
    stray : (Side.t * int * int, unit) Hashtbl.t;
  }

  let create ~k =
    {
      k;
      roster = Array.init (2 * k) (fun _ -> { seen = Bytes.empty; large = Ids.create 1 });
      stray = Hashtbl.create 1;
    }

  let sender t (side : Side.t) index =
    t.roster.((match side with
              | Left -> 0
              | Right -> t.k)
              + index)

  let mem t side index id =
    if index < t.k then begin
      let s = sender t side index in
      if id < Bytes.length s.seen then Bytes.get s.seen id <> '\000'
      else Ids.mem s.large id
    end
    else Hashtbl.mem t.stray (side, index, id)

  let grow s id =
    let n = Bytes.length s.seen in
    let seen = Bytes.make (min dense_ids (max (id + 1) (2 * n))) '\000' in
    Bytes.blit s.seen 0 seen 0 n;
    Ids.filter_map_inplace
      (fun id () ->
        if id < Bytes.length seen then begin
          Bytes.set seen id '\001';
          None
        end
        else Some ())
      s.large;
    s.seen <- seen

  let add t side index id =
    if index < t.k then begin
      let s = sender t side index in
      let n = Bytes.length s.seen in
      if id >= n && id < min dense_ids (max min_span (2 * n)) then grow s id;
      if id < Bytes.length s.seen then Bytes.set s.seen id '\001'
      else Ids.replace s.large id ()
    end
    else Hashtbl.replace t.stray (side, index, id) ()
end

(* Majority mode receives every relayed message once per forwarder, and
   honest copies are byte-identical: bucket the copies by their raw
   bytes, so each distinct byte string is decoded once. *)
module Copies = Hashtbl.Make (Wire.Slice)

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
  let h = Header.create () in
  let cursor = ref 0 in
  (* The channel layer's own round-local state is corruptible too: a
     scrambled [vround] desynchronizes this party's virtual clock, a
     scrambled [next_id] collides or skips message ids — failure modes a
     byzantine relay could never force on an honest party, but an
     arbitrary-initial-state start can. *)
  env.register_state Wire.uint vround;
  env.register_state Wire.uint next_id;
  let l = links topology self in
  let reachable (dst : Party_id.t) = reaches l dst.side dst.index in
  let writer = Wire.Enc.create () in
  let request dst body =
    let id = !next_id in
    incr next_id;
    Writer.unsigned writer ~tag:request_tag ~src_side:(Party_id.side self)
      ~src_index:(Party_id.index self) ~dst_side:(Party_id.side dst)
      ~dst_index:(Party_id.index dst) ~vround:!vround ~id body;
    (match auth with
    | Majority -> ()
    | Signed { signer; _ } -> Writer.sign writer signer);
    (* One frame, one signature and one arena span shared by every relay:
       the request bytes are identical per target. *)
    env.send_multi_w Writer.codec opposite writer
  in
  (* A message to [self] is dropped, one to a directly reachable party
     goes as a [Direct] frame and any other as a relay request. Each
     maximal run of reachable destinations shares one [Direct] encode
     and one arena span. [send_multi_w] bypasses wrappers of [env.send],
     so byzantine programs send exactly what they did. *)
  let send_many dsts body =
    let direct run =
      if run <> [] then env.send_multi_w relay_codec run (Direct body)
    in
    (* [run] holds the current run of reachable destinations, reversed. *)
    let rec go run = function
      | [] -> direct (List.rev run)
      | dst :: rest ->
        if Party_id.equal dst self then go run rest
        else if reachable dst then go (dst :: run) rest
        else begin
          direct (List.rev run);
          request dst body;
          go [] rest
        end
    in
    (* [reachable] excludes [self], so this is the common all-direct case. *)
    if List.for_all reachable dsts then direct dsts else go [] dsts
  in
  let send dst body = send_many [ dst ] body in
  let fresh p =
    Party_id.equal p.dst self && p.vround = !vround
    && not (Delivered.mem delivered (Party_id.side p.src) (Party_id.index p.src) p.id)
  in
  let deliver p =
    Delivered.add delivered (Party_id.side p.src) (Party_id.index p.src) p.id;
    p.src, p.body
  in
  (* A [Forward] copy whose header [h] holds, judged in place: its body
     is a [Wire.Dec.peek_string], and the rest of the frame must decode
     as [signature_codec]'s [Some], as [relay_codec]'s decoder reads it.
     The signature is checked over the bytes [Writer.unsigned] rebuilds
     from the parsed values. *)
  let signed_copy verifier (frame : Wire.Slice.t) =
    let base = frame.base and limit = frame.off + frame.len in
    let off = Wire.Dec.peek_string base h.pos ~limit in
    if off < 0 then None
    else
      let rest = !(h.pos) in
      match
        Wire.decode_slice signature_codec (Wire.Slice.make base ~off:rest ~len:(limit - rest))
      with
      | Ok None | Error _ -> None
      | Ok (Some signature) ->
        let body = String.sub base off (rest - off) in
        Writer.unsigned writer ~tag:forward_tag ~src_side:h.src_side ~src_index:h.src_index
          ~dst_side:h.dst_side ~dst_index:h.dst_index ~vround:h.vround ~id:h.id body;
        let src = Party_id.make h.src_side h.src_index in
        if Writer.verify writer verifier ~signer:src signature then begin
          Delivered.add delivered h.src_side h.src_index h.id;
          Some (src, body)
        end
        else None
  in
  let relayed forwards =
    match auth, forwards with
    | _, [] -> []
    | Signed { verifier; _ }, _ ->
      (* Stale and duplicate copies are told apart by the header alone;
         only the first fresh copy per (src, id) reads its body and pays
         for a signature check. *)
      List.filter_map
        (fun (_, frame) ->
          if
            Header.read h frame
            && Header.is_party h.dst_side h.dst_index self
            && h.vround = !vround
            && not (Delivered.mem delivered h.src_side h.src_index h.id)
          then signed_copy verifier frame
          else None)
        forwards
    | Majority, _ ->
      (* Group identical payloads; accept those vouched for by a strict
         majority of distinct forwarders on the opposite side. Copies are
         bucketed by raw bytes first, in first-seen order, and each
         bucket is decoded and canonicalised once; buckets whose
         canonical encodings agree then merge, which yields exactly the
         groups of grouping every copy by its canonical encoding. *)
      let buckets = Copies.create 16 in
      let order =
        List.fold_left
          (fun order (src, frame) ->
            match Copies.find_opt buckets frame with
            | Some forwarders ->
              forwarders := src :: !forwarders;
              order
            | None ->
              let forwarders = ref [ src ] in
              Copies.add buckets frame forwarders;
              (frame, forwarders) :: order)
          [] forwards
      in
      List.rev order
      |> List.filter_map (fun (frame, forwarders) ->
             match Wire.decode_slice relay_codec frame with
             | Ok (Forward p) -> Some (Wire.encode payload_codec p, (p, !forwarders))
             | Ok (Direct _ | Request _) | Error _ -> None)
      |> Util.group_by ~key:fst
      |> List.filter_map (fun (_, copies) ->
             let p = fst (snd (List.hd copies)) in
             let forwarders =
               List.sort_uniq Party_id.compare
                 (List.concat_map (fun (_, (_, fs)) -> fs) copies)
               |> List.filter (fun f ->
                      Side.equal (Party_id.side f) (Side.opposite (Party_id.side p.src)))
             in
             if fresh p && 2 * List.length forwarders > k then Some (deliver p)
             else None)
  in
  (* The [n] engine rounds left of a virtual round, received into two
     reversed lists: [direct] bodies, and [forwards], Forward frames kept
     as raw spans until [relayed] judges them. The lists are threaded
     through arguments, never stored in a cell that outlives a park: a
     minor collection during [next_round] promotes such a cell, and each
     later write of a young list into it would put it in the remembered
     set, so the next collection would promote the whole list through a
     dead cell. *)
  let rec receive n direct forwards =
    if n = 0 then direct, forwards else scan (n - 1) direct forwards (env.next_round ())
  and scan n direct forwards = function
    | [] -> receive n direct forwards
    | (e : Engine.envelope) :: rest ->
      let tag =
        if Wire.Slice.length e.data > 0 then Wire.Slice.get e.data 0 else '\255'
      in
      if tag = request_tag then begin
        (* Relay duty never needs the body — header scan only. *)
        forward_payload env h l ~from:e.src ~data:e.data;
        scan n direct forwards rest
      end
      else if tag = forward_tag then scan n direct ((e.src, e.data) :: forwards) rest
      else if tag = direct_tag then
        match direct_body cursor e.data with
        | Some body -> scan n ((e.src, body) :: direct) forwards rest
        | None -> scan n direct forwards rest
      else scan n direct forwards rest
  in
  let sync () =
    let direct, forwards = receive stride [] [] in
    let relayed = relayed forwards in
    incr vround;
    let all = List.rev_append direct relayed in
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
  { Net.self; stride; send; send_many; sync; register_state = env.register_cell }
