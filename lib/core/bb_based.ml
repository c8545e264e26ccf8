open Bsm_prelude
module SM = Bsm_stable_matching
module B = Bsm_broadcast
module Engine = Bsm_runtime.Engine
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto

let pk_params (setting : Setting.t) =
  B.Phase_king.params ~structure:(Setting.structure setting)
    ~participants:(Party_id.all ~k:setting.k)

(* Virtual rounds the broadcast phase needs in [setting]. *)
let broadcast_rounds (setting : Setting.t) =
  match setting.auth with
  | Setting.Unauthenticated -> B.Pi_bb.rounds (pk_params setting)
  | Setting.Authenticated -> setting.t_left + setting.t_right + 1

let engine_rounds (setting : Setting.t) =
  Channels.stride setting.topology * broadcast_rounds setting

let default_prefs k = SM.Prefs.identity k

(* One broadcast machine per sender, all sharing [self]'s destination
   list; output normalized to [string option]. *)
let machines (setting : Setting.t) ~pki ~self ~input_bytes =
  let k = setting.k in
  let senders = Party_id.all ~k in
  let others = B.Machine.others ~self senders in
  let default = Wire.encode SM.Prefs.codec (default_prefs k) in
  let machine_for sender =
    let input = if Party_id.equal sender self then input_bytes else "" in
    match setting.auth with
    | Setting.Unauthenticated ->
      B.Pi_bb.make (pk_params setting) ~self ~others ~sender ~input ~default
    | Setting.Authenticated ->
      let params =
        {
          B.Dolev_strong.participants = senders;
          t = setting.t_left + setting.t_right;
          verifier = Crypto.Pki.verifier pki;
        }
      in
      B.Dolev_strong.make params ~others ~signer:(Crypto.Pki.signer pki self) ~sender
        ~input ~default
      |> B.Machine.map Option.some
  in
  List.map (fun sender -> Party_id.to_string sender, machine_for sender) senders

let auth_mode (setting : Setting.t) ~pki ~self =
  match setting.auth with
  | Setting.Unauthenticated -> Channels.Majority
  | Setting.Authenticated ->
    Channels.Signed
      { signer = Crypto.Pki.signer pki self; verifier = Crypto.Pki.verifier pki }

let program (setting : Setting.t) ~pki ~input ~self (env : Engine.env) =
  let k = setting.k in
  let input_bytes = Wire.encode SM.Prefs.codec input in
  let net =
    Channels.virtual_net env ~topology:setting.topology
      ~auth:(auth_mode setting ~pki ~self)
  in
  let outputs =
    B.Session.run_parallel net (machines setting ~pki ~self ~input_bytes)
  in
  let prefs_of p =
    let bytes = List.assoc (Party_id.to_string p) outputs in
    match bytes with
    | None -> default_prefs k
    | Some b -> (
      match Wire.decode SM.Prefs.codec b with
      | Ok prefs when SM.Prefs.length prefs = k -> prefs
      | Ok _ | Error _ -> default_prefs k)
  in
  let profile =
    SM.Profile.make_exn
      ~left:(Array.init k (fun i -> prefs_of (Party_id.left i)))
      ~right:(Array.init k (fun i -> prefs_of (Party_id.right i)))
  in
  let matching = SM.Gale_shapley.run profile in
  let partner = SM.Matching.partner matching self in
  env.output (Wire.encode Problem.decision_codec (Some partner))
