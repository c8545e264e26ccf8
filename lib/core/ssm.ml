open Bsm_prelude
module SM = Bsm_stable_matching

let prefs_of_favorite ~k favorite =
  let f = Party_id.index favorite in
  SM.Prefs.of_list_exn (f :: List.filter (fun i -> i <> f) (List.init k Fun.id))

let favorites_to_profile ~k favs =
  let prefs p = prefs_of_favorite ~k (favs p) in
  SM.Profile.make_exn
    ~left:(Array.init k (fun i -> prefs (Party_id.left i)))
    ~right:(Array.init k (fun i -> prefs (Party_id.right i)))

let random_favorites rng ~k =
  let table =
    List.map
      (fun p -> p, Party_id.make (Side.opposite (Party_id.side p)) (Rng.int rng k))
      (Party_id.all ~k)
  in
  fun p -> List.assoc p table

let program (plan : Select.plan) ~pki ~favorite ~self =
  let input = prefs_of_favorite ~k:plan.setting.Setting.k favorite in
  plan.Select.program ~pki ~input ~self
