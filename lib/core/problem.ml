open Bsm_prelude
module SM = Bsm_stable_matching
module Wire = Bsm_wire.Wire
module Engine = Bsm_runtime.Engine

type decision =
  | No_output
  | Nobody
  | Matched of Party_id.t

let decision_codec = Wire.option Wire.party_id

let decision_of_result (r : Engine.party_result) =
  match r.status, r.out with
  | Engine.Terminated, Some bytes -> (
    match Wire.decode decision_codec bytes with
    | Ok (Some partner) -> Matched partner
    | Ok None -> Nobody
    | Error _ -> No_output)
  | Engine.Terminated, None | (Engine.Out_of_rounds | Engine.Crashed _), _ -> No_output

type outcome = {
  profile : SM.Profile.t;
  byzantine : Party_set.t;
  decisions : (Party_id.t * decision) list;
}

type violation =
  | Termination of Party_id.t
  | Symmetry of Party_id.t * Party_id.t
  | Wrong_side of Party_id.t
  | Stability of {
      left : Party_id.t;
      right : Party_id.t;
    }
  | Non_competition of {
      a : Party_id.t;
      b : Party_id.t;
      target : Party_id.t;
    }

let pp_violation ppf = function
  | Termination p -> Format.fprintf ppf "termination: %a produced no output" Party_id.pp p
  | Symmetry (u, v) ->
    Format.fprintf ppf "symmetry: %a matched %a but not vice versa" Party_id.pp u
      Party_id.pp v
  | Wrong_side p -> Format.fprintf ppf "wrong side: %a matched its own side" Party_id.pp p
  | Stability { left; right } ->
    Format.fprintf ppf "stability: honest blocking pair (%a, %a)" Party_id.pp left
      Party_id.pp right
  | Non_competition { a; b; target } ->
    Format.fprintf ppf "non-competition: %a and %a both matched %a" Party_id.pp a
      Party_id.pp b Party_id.pp target

let decision_of outcome p =
  List.find_map
    (fun (q, d) -> if Party_id.equal p q then Some d else None)
    outcome.decisions

let is_honest outcome p = not (Party_set.mem p outcome.byzantine)

let base_checks outcome =
  let k = SM.Profile.k outcome.profile in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  (* Termination and well-formedness. *)
  List.iter
    (fun (p, d) ->
      match d with
      | No_output -> add (Termination p)
      | Nobody -> ()
      | Matched q ->
        if Side.equal (Party_id.side q) (Party_id.side p) || Party_id.index q >= k then
          add (Wrong_side p))
    outcome.decisions;
  (* Symmetry: if both endpoints are honest, matching must be mutual. *)
  List.iter
    (fun (p, d) ->
      match d with
      | No_output | Nobody -> ()
      | Matched q ->
        if is_honest outcome q then begin
          match decision_of outcome q with
          | Some (Matched p') when Party_id.equal p p' -> ()
          | Some (No_output | Nobody | Matched _) | None -> add (Symmetry (p, q))
        end)
    outcome.decisions;
  (* Non-competition: two honest parties never output the same target. *)
  let matched =
    List.filter_map
      (fun (p, d) ->
        match d with
        | Matched q -> Some (p, q)
        | No_output | Nobody -> None)
      outcome.decisions
  in
  let rec pairwise = function
    | [] -> ()
    | (a, ta) :: rest ->
      List.iter
        (fun (b, tb) ->
          if Party_id.equal ta tb then add (Non_competition { a; b; target = ta }))
        rest;
      pairwise rest
  in
  pairwise matched;
  !violations

let check outcome =
  let violations = base_checks outcome in
  (* Stability over honest pairs: build partner maps restricted to honest
     parties (a party with no output is treated as unmatched — it cannot be
     part of a valid matching anyway, and the termination violation is
     already reported). *)
  let partner side i =
    let p = Party_id.make side i in
    match decision_of outcome p with
    | Some (Matched q) -> Some (Party_id.index q)
    | Some (No_output | Nobody) | None -> None
  in
  let honest side i = is_honest outcome (Party_id.make side i) in
  let blocking =
    SM.Verify.blocking_pairs_partial outcome.profile
      ~left_partner:(partner Side.Left)
      ~right_partner:(partner Side.Right)
      ~consider_left:(honest Side.Left)
      ~consider_right:(honest Side.Right)
  in
  violations
  @ List.map
      (fun (bp : SM.Verify.blocking_pair) ->
        Stability { left = Party_id.left bp.left; right = Party_id.right bp.right })
      blocking

let check_simplified ~favorites outcome =
  let violations = base_checks outcome in
  let k = SM.Profile.k outcome.profile in
  let simplified =
    List.concat_map
      (fun i ->
        let l = Party_id.left i in
        List.filter_map
          (fun j ->
            let r = Party_id.right j in
            if
              is_honest outcome l && is_honest outcome r
              && Party_id.equal (favorites l) r
              && Party_id.equal (favorites r) l
              &&
              match decision_of outcome l with
              | Some (Matched q) -> not (Party_id.equal q r)
              | Some (No_output | Nobody) | None -> true
            then Some (Stability { left = l; right = r })
            else None)
          (Util.range 0 k))
      (Util.range 0 k)
  in
  violations @ simplified
