open Bsm_prelude
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto

type params = {
  participants : Party_id.t list;
  t : int;
  verifier : Crypto.Verifier.t;
}

let rounds p = p.t + 1

module Chain = struct
  type t = {
    value : string;
    links : (Party_id.t * Crypto.Signature.t) list;
  }

  let codec =
    Wire.map
      ~inject:(fun (value, links) -> { value; links })
      ~project:(fun c -> c.value, c.links)
      (Wire.pair Wire.string
         (Wire.list (Wire.pair Wire.party_id Crypto.Signature.codec)))

  (* Link [i] signs the value together with all previous links, so a chain
     cannot be truncated or reordered without breaking verification. *)
  let link_payload value previous =
    Wire.encode
      (Wire.pair Wire.string (Wire.list (Wire.pair Wire.party_id Crypto.Signature.codec)))
      (value, previous)

  let start signer value =
    let signature = Crypto.Signer.sign signer (link_payload value []) in
    { value; links = [ Crypto.Signer.id signer, signature ] }

  let sign_onto signer c =
    let signature = Crypto.Signer.sign signer (link_payload c.value c.links) in
    { c with links = c.links @ [ Crypto.Signer.id signer, signature ] }

  let valid p ~sender ~length c =
    List.length c.links = length
    && (match c.links with
       | (first, _) :: _ -> Party_id.equal first sender
       | [] -> false)
    && (let signers = List.map fst c.links in
        List.length (List.sort_uniq Party_id.compare signers) = length)
    && List.for_all (fun s -> List.mem s p.participants) (List.map fst c.links)
    &&
    let rec verify_links previous = function
      | [] -> true
      | (signer, signature) :: rest ->
        Crypto.Verifier.verify p.verifier ~signer ~msg:(link_payload c.value previous)
          signature
        && verify_links (previous @ [ signer, signature ]) rest
    in
    verify_links [] c.links
end

(* Is the value field of [payload], [Chain.codec]'s first field read in
   place with [Wire.Dec.peek_string], one of [extracted]? An unreadable
   field is not. *)
let holds_extracted pos extracted payload =
  pos := 0;
  let off = Wire.Dec.peek_string payload pos ~limit:(String.length payload) in
  off >= 0
  &&
  let field = Wire.Slice.make payload ~off ~len:(!pos - off) in
  List.exists (fun v -> Wire.Slice.equal (Wire.Slice.of_string v) field) extracted

let make ?others p ~signer ~sender ~input ~default =
  let self = Crypto.Signer.id signer in
  let others =
    match others with
    | Some others -> others
    | None -> Machine.others ~self p.participants
  in
  let extracted = ref [] in
  let to_all = Machine.to_all Chain.codec others in
  let initial =
    if Party_id.equal self sender then begin
      let chain = Chain.start signer input in
      extracted := [ input ];
      to_all chain
    end
    else []
  in
  let pos = ref 0 in
  let step ~round ~inbox =
    let relay = ref [] in
    (* Accept a value with [round] valid signatures, not already
       extracted; keep at most two extracted values (two already prove
       the sender byzantine, so further ones change nothing). A chain
       that cannot add a value is dropped before it is decoded. *)
    let accept (_, payload) =
      if List.length !extracted < 2 && not (holds_extracted pos !extracted payload) then
        match Wire.decode Chain.codec payload with
        | Error _ -> ()
        | Ok chain ->
          if Chain.valid p ~sender ~length:round chain then begin
            extracted := chain.Chain.value :: !extracted;
            if round <= p.t then relay := to_all (Chain.sign_onto signer chain) @ !relay
          end
    in
    List.iter accept inbox;
    !relay
  in
  let finish () =
    match !extracted with
    | [ v ] -> v
    | [] | _ :: _ :: _ -> default
  in
  {
    Machine.initial;
    rounds = rounds p;
    step;
    finish;
    cells = [ Bsm_runtime.Engine.state_cell (Wire.list Wire.string) extracted ];
  }
