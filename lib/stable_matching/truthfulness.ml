open Bsm_prelude

type manipulation = {
  manipulator : Party_id.t;
  fake : Prefs.t;
  honest_partner : int;
  lying_partner : int;
}

let partner_index m p =
  match Party_id.side p with
  | Side.Left -> Matching.partner_of_left m (Party_id.index p)
  | Side.Right -> Matching.partner_of_right m (Party_id.index p)

let all_prefs k =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
        xs
  in
  List.map Prefs.of_list_exn (perms (List.init k Fun.id))

(* All [k!] alternative lists for [p]: the manipulation that yields [p]
   its best achievable partner (by its true list), or [None] if lying
   never strictly helps. *)
let best_lie profile p ~proposers =
  let truth = Profile.prefs profile p in
  let honest_partner = partner_index (Gale_shapley.run ~proposers profile) p in
  let try_lie best fake =
    if Prefs.equal fake truth then best
    else begin
      let lying_partner =
        partner_index (Gale_shapley.run ~proposers (Profile.with_prefs profile p fake)) p
      in
      let improves_on current = Prefs.prefers truth lying_partner current in
      match best with
      | Some b when not (improves_on b.lying_partner) -> best
      | Some _ | None ->
        if improves_on honest_partner then
          Some { manipulator = p; fake; honest_partner; lying_partner }
        else best
    end
  in
  List.fold_left try_lie None (all_prefs (Profile.k profile))

let proposer_can_gain profile =
  let k = Profile.k profile in
  List.exists
    (fun i -> best_lie profile (Party_id.left i) ~proposers:Side.Left <> None)
    (List.init k Fun.id)

let roth_instance () =
  (* Left-proposing run gives R0 its 2nd true choice (L1); misreporting
     [0;2;1] triggers a rejection chain that ends with R0 holding L0, its
     true favorite. *)
  let profile =
    Profile.make_exn
      ~left:
        [|
          Prefs.of_list_exn [ 1; 0; 2 ];
          Prefs.of_list_exn [ 0; 1; 2 ];
          Prefs.of_list_exn [ 0; 1; 2 ];
        |]
      ~right:
        [|
          Prefs.of_list_exn [ 0; 1; 2 ];
          Prefs.of_list_exn [ 1; 0; 2 ];
          Prefs.of_list_exn [ 0; 1; 2 ];
        |]
  in
  let p = Party_id.right 0 in
  match best_lie profile p ~proposers:Side.Left with
  | Some m -> profile, m
  | None -> assert false (* the instance is constructed to admit the lie *)
