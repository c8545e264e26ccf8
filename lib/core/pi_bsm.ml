open Bsm_prelude
module SM = Bsm_stable_matching
module B = Bsm_broadcast
module Engine = Bsm_runtime.Engine
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto

(* Direct (non-relay) protocol messages. Tags are chosen outside the relay
   codec's range (0-2) so that relay traffic and protocol traffic never
   decode as each other. *)
module Msg = struct
  type t =
    | Prefs of string  (** O → C, round 0: raw encoded preference list *)
    | Suggest of Party_id.t option  (** C → O, final round: your match *)

  let codec =
    let open Wire in
    variant ~name:"pi_bsm_msg"
      [
        pack
          (case 3 string
             ~inject:(fun b -> Prefs b)
             ~match_:(function
               | Prefs b -> Some b
               | Suggest _ -> None));
        pack
          (case 4 (option party_id)
             ~inject:(fun p -> Suggest p)
             ~match_:(function
               | Suggest p -> Some p
               | Prefs _ -> None));
      ]
end

let threshold_of (setting : Setting.t) computing_side =
  match computing_side with
  | Side.Left -> setting.t_left
  | Side.Right -> setting.t_right

let pk_params (setting : Setting.t) computing_side =
  B.Phase_king.params
    ~structure:(B.Adversary_structure.Threshold (threshold_of setting computing_side))
    ~participants:(Party_id.side_members computing_side ~k:setting.k)

(* Virtual rounds of the session: the BB instances dominate. *)
let session_rounds setting computing_side =
  B.Pi_bb.rounds (pk_params setting computing_side)

let engine_rounds (setting : Setting.t) ~computing_side =
  (* 1 round of preference dissemination, 2 engine rounds per virtual
     session round, 1 round of suggestions. *)
  2 + (2 * session_rounds setting computing_side)

let default_bytes k = Wire.encode SM.Prefs.codec (SM.Prefs.identity k)

let decode_prefs ~k bytes =
  match Wire.decode SM.Prefs.codec bytes with
  | Ok prefs when SM.Prefs.length prefs = k -> Some prefs
  | Ok _ | Error _ -> None

let computing_program (setting : Setting.t) ~pki ~computing_side ~input ~self
    (env : Engine.env) =
  let k = setting.k in
  let other_side = Side.opposite computing_side in
  let c_members = Party_id.side_members computing_side ~k in
  let o_members = Party_id.side_members other_side ~k in
  let params = pk_params setting computing_side in
  let others = B.Machine.others ~self params.B.Phase_king.participants in
  let default = default_bytes k in
  (* Round 0 → 1: collect the preference lists the O-side sent. *)
  let o_prefs_received =
    let inbox = env.next_round () in
    List.filter_map
      (fun (e : Engine.envelope) ->
        if not (Side.equal (Party_id.side e.src) other_side) then None
        else
          match Wire.decode_slice Msg.codec e.data with
          | Ok (Msg.Prefs bytes) -> Some (e.src, bytes)
          | Ok (Msg.Suggest _) | Error _ -> None)
      inbox
  in
  let o_input o =
    match List.find_opt (fun (src, _) -> Party_id.equal src o) o_prefs_received with
    | Some (_, bytes) -> bytes
    | None -> default
  in
  (* The session: one Π_BB per C-party (sender), one Π_BA per O-party. *)
  let bb_machines =
    List.map
      (fun c ->
        let tag = "BB:" ^ Party_id.to_string c in
        let input_bytes =
          if Party_id.equal c self then Wire.encode SM.Prefs.codec input else ""
        in
        tag, B.Pi_bb.make params ~self ~others ~sender:c ~input:input_bytes ~default)
      c_members
  in
  let ba_machines =
    List.map
      (fun o ->
        let tag = "BA:" ^ Party_id.to_string o in
        tag, B.Pi_ba.make params ~self ~others ~input:(o_input o))
      o_members
  in
  let net =
    Channels.virtual_net env ~topology:setting.topology
      ~auth:
        (Channels.Signed
           { signer = Crypto.Pki.signer pki self; verifier = Crypto.Pki.verifier pki })
  in
  let outputs = B.Session.run_parallel net (bb_machines @ ba_machines) in
  let lookup tag = List.assoc tag outputs in
  let any_bottom = List.exists (fun (_, out) -> out = None) outputs in
  if any_bottom then
    (* Line 6: some instance returned ⊥ — match with nobody. *)
    env.output (Wire.encode Problem.decision_codec None)
  else begin
    let prefs_of prefix p =
      match lookup (prefix ^ Party_id.to_string p) with
      | Some bytes -> Option.value (decode_prefs ~k bytes) ~default:(SM.Prefs.identity k)
      | None -> SM.Prefs.identity k
    in
    let c_prefs = Array.of_list (List.map (prefs_of "BB:") c_members) in
    let o_prefs = Array.of_list (List.map (prefs_of "BA:") o_members) in
    let profile =
      match computing_side with
      | Side.Left -> SM.Profile.make_exn ~left:c_prefs ~right:o_prefs
      | Side.Right -> SM.Profile.make_exn ~left:o_prefs ~right:c_prefs
    in
    let matching = SM.Gale_shapley.run profile in
    (* Line 8: tell each O-party its match. *)
    List.iter
      (fun o ->
        let suggestion = Msg.Suggest (Some (SM.Matching.partner matching o)) in
        env.send_w Msg.codec o suggestion)
      o_members;
    env.output
      (Wire.encode Problem.decision_codec (Some (SM.Matching.partner matching self)))
  end

let relay_program (setting : Setting.t) ~computing_side ~input (env : Engine.env) =
  let k = setting.k in
  let c_members = Party_id.side_members computing_side ~k in
  (* Round 0: disseminate own preference list to the computing side. *)
  let prefs_msg = Msg.Prefs (Wire.encode SM.Prefs.codec input) in
  env.send_multi_w Msg.codec c_members prefs_msg;
  (* Forwarding duty until the suggestions arrive. Suggestions are sent by
     C at engine round 1 + 2·V and arrive at 2 + 2·V. *)
  let last_round = engine_rounds setting ~computing_side in
  let suggestions = ref [] in
  let forward = Channels.forward_duty env ~topology:setting.topology in
  (* The relay's only round-local state: the Suggest votes gathered so
     far. Registered so state-corruption schedules reach the O side. *)
  env.register_state
    (Wire.list (Wire.pair Wire.party_id (Wire.option Wire.party_id)))
    suggestions;
  for _ = 1 to last_round do
    let inbox = env.next_round () in
    List.iter
      (fun (e : Engine.envelope) ->
        forward e;
        (* Suggest frames start with tag 4; everything else on this inbox
           is relay traffic (tags 0-2) or Prefs (3) — skip those without
           decoding. *)
        if
          Side.equal (Party_id.side e.src) computing_side
          && Wire.Slice.length e.data > 0
          && Wire.Slice.get e.data 0 = '\004'
        then
          match Wire.decode_slice Msg.codec e.data with
          | Ok (Msg.Suggest partner) -> suggestions := (e.src, partner) :: !suggestions
          | Ok (Msg.Prefs _) | Error _ -> ())
      inbox
  done;
  (* Line 5 (R side): adopt the most common suggestion. *)
  let votes = List.map snd (B.Machine.first_per_sender (List.rev !suggestions)) in
  let decision =
    match
      Util.most_common ~equal:(Option.equal Party_id.equal) votes
    with
    | Some (partner, _) -> partner
    | None -> None
  in
  env.output (Wire.encode Problem.decision_codec decision)

let program setting ~pki ~computing_side ~input ~self =
  if Side.equal (Party_id.side self) computing_side then
    computing_program setting ~pki ~computing_side ~input ~self
  else relay_program setting ~computing_side ~input
