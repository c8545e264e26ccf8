open Bsm_prelude
module Wire = Bsm_wire.Wire

type kind =
  | Bit_flip
  | Truncate
  | Replay
  | Equivocate
  | Forge_sender

let all_kinds = [ Bit_flip; Truncate; Replay; Equivocate; Forge_sender ]

let to_string = function
  | Bit_flip -> "bit-flip"
  | Truncate -> "truncate"
  | Replay -> "replay"
  | Equivocate -> "equivocate"
  | Forge_sender -> "forge-sender"

let equal_kind (a : kind) b = a = b

let codec = Wire.enum ~name:"mutation kind" all_kinds

(* Derived draws from the component hash: [draw h i bound] is uniform-ish
   in [0 .. bound-1], independent across [i] (each draw re-mixes). *)
let draw h i bound = Int64.to_int (Rng.mix64_absorb h i) land max_int mod bound

let splice payload pos ins =
  let n = String.length payload in
  let il = String.length ins in
  if pos + il >= n then String.sub payload 0 pos ^ ins
  else String.sub payload 0 pos ^ ins ^ String.sub payload (pos + il) (n - pos - il)

let apply ~hash ~src ~prev kind payload =
  let n = String.length payload in
  let changed bytes = if String.equal bytes payload then None else Some bytes in
  match kind with
  | Bit_flip ->
    if n = 0 then None
    else begin
      let pos = draw hash 0 n in
      let bit = 1 lsl draw hash 1 8 in
      Some
        (String.mapi
           (fun i c -> if i = pos then Char.chr (Char.code c lxor bit) else c)
           payload)
    end
  | Truncate -> if n = 0 then None else Some (String.sub payload 0 (draw hash 0 n))
  | Replay -> (
    match prev with
    | None -> None
    | Some p -> changed p)
  | Equivocate ->
    if n = 0 then None
    else begin
      (* Rewrite a few bytes; the hash (which absorbed dst upstream)
         makes the rewrite recipient-specific. *)
      let count = 1 + draw hash 0 (min n 4) in
      let bytes = Bytes.of_string payload in
      for i = 1 to count do
        let pos = draw hash (2 * i) n in
        Bytes.set bytes pos (Char.chr (draw hash ((2 * i) + 1) 256))
      done;
      changed (Bytes.to_string bytes)
    end
  | Forge_sender ->
    let side = if draw hash 1 2 = 0 then Side.Left else Side.Right in
    let index = draw hash 2 8 in
    let forged = Party_id.make side index in
    let forged =
      if Party_id.equal forged src then Party_id.make side (index + 1) else forged
    in
    changed (splice payload (draw hash 0 (n + 1)) (Wire.encode Wire.party_id forged))

(* State-cell scramble: "arbitrary local state" bytes from the component
   hash. Unlike [apply], which mutates in-flight frames, this targets a
   registered cell's canonical encoding, and it never declines: the
   engine retries with a fresh hash (the attempt counter is absorbed
   upstream) until the bytes decode, so the composite behaves as a
   deterministic draw from the space of well-formed states. *)
let scramble ~hash payload =
  let n = String.length payload in
  if n = 0 then
    (* Nothing to rewrite — synthesize a few bytes from scratch. *)
    String.init (1 + draw hash 0 8) (fun i -> Char.chr (draw hash (i + 1) 256))
  else
    match draw hash 17 3 with
    | 0 ->
      (* Flip one bit. *)
      let pos = draw hash 0 n in
      let bit = 1 lsl draw hash 1 8 in
      String.mapi
        (fun i c -> if i = pos then Char.chr (Char.code c lxor bit) else c)
        payload
    | 1 -> String.sub payload 0 (draw hash 0 n) (* truncate *)
    | _ ->
      (* Rewrite a few bytes. *)
      let count = 1 + draw hash 0 (min n 4) in
      let bytes = Bytes.of_string payload in
      for i = 1 to count do
        let pos = draw hash (2 * i) n in
        Bytes.set bytes pos (Char.chr (draw hash ((2 * i) + 1) 256))
      done;
      Bytes.to_string bytes
