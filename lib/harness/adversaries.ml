open Bsm_prelude
module SM = Bsm_stable_matching
module Engine = Bsm_runtime.Engine
module Core = Bsm_core
module Crypto = Bsm_crypto.Crypto

let silent (_ : Engine.env) = ()

let random_bytes rng len = String.init len (fun _ -> Char.chr (Rng.int rng 256))

let flood ~seed ~rounds ~burst ~targets (env : Engine.env) =
  let rng = Rng.make (seed lxor Party_id.hash env.self) in
  let blast () =
    for _ = 1 to burst do
      let dst = Rng.choose rng targets in
      let len = 1 + Rng.int rng 64 in
      if not (Party_id.equal dst env.self) then env.send dst (random_bytes rng len)
    done
  in
  blast ();
  for _ = 1 to rounds do
    ignore (env.next_round ());
    blast ()
  done

let noise ~seed (env : Engine.env) =
  flood ~seed ~rounds:60 ~burst:8 ~targets:(Party_id.all ~k:env.k) env

let crash_at ~round program (env : Engine.env) =
  let crashed () = env.round () >= round in
  program
    {
      env with
      send = (fun dst msg -> if not (crashed ()) then env.send dst msg);
      output = (fun out -> if not (crashed ()) then env.output out);
    }

(* Shape-preserving garbage from [from_round] on; a crash of the wrapped
   program is adversary-internal, not an error. *)
let garble_after ~from_round ~seed program (env : Engine.env) =
  let rng = Rng.make (seed lxor 0xbad) in
  let send dst msg =
    if env.round () < from_round then env.send dst msg
    else env.send dst (random_bytes rng (String.length msg))
  in
  try program { env with send } with _ -> ()

(* PKI derivation is deterministic in (k, seed), so a corrupted party
   still signs as itself. *)
let honest ~setting ~seed ~input ~self =
  let plan = Core.Select.plan_exn setting in
  let pki = Crypto.Pki.setup ~k:setting.Core.Setting.k ~seed in
  plan.Core.Select.program ~pki ~input ~self

let random_coalition rng ~setting ~seed ~profile =
  let k = setting.Core.Setting.k in
  let pick side budget =
    Rng.sample rng budget (Party_id.side_members side ~k)
  in
  let members =
    pick Side.Left setting.Core.Setting.t_left
    @ pick Side.Right setting.Core.Setting.t_right
  in
  List.map
    (fun p ->
      let truthful () =
        honest ~setting ~seed ~input:(SM.Profile.prefs profile p) ~self:p
      in
      let strategy =
        match Rng.int rng 5 with
        | 0 -> silent
        | 1 -> noise ~seed:(Rng.int rng 1_000_000)
        | 2 -> crash_at ~round:(Rng.int rng 20) (truthful ())
        | 3 -> honest ~setting ~seed ~input:(SM.Prefs.random rng k) ~self:p
        | _ -> garble_after ~from_round:(Rng.int rng 15) ~seed (truthful ())
      in
      p, strategy)
    members
