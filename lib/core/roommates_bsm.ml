open Bsm_prelude
module SM = Bsm_stable_matching
module B = Bsm_broadcast
module Engine = Bsm_runtime.Engine
module Wire = Bsm_wire.Wire
module Crypto = Bsm_crypto.Crypto

type prefs = int list

let prefs_codec = Wire.list Wire.uint

let default_prefs ~n ~self_dense =
  List.filter (fun i -> i <> self_dense) (List.init n Fun.id)

let validate ~n ~self_dense prefs =
  List.length prefs = n - 1
  && List.sort_uniq compare prefs = default_prefs ~n ~self_dense

let roommates_instance ~k ~inputs =
  let n = 2 * k in
  SM.Roommates.make_exn
    (Array.init n (fun i -> inputs (Party_id.of_dense ~k i)))

let solve_reference ~k ~inputs = SM.Roommates.solve (roommates_instance ~k ~inputs)

let program ~k ~t ~pki ~input ~self (env : Engine.env) =
  let n = 2 * k in
  let self_dense = Party_id.to_dense ~k self in
  if not (validate ~n ~self_dense input) then
    invalid_arg "Roommates_bsm.program: invalid input list";
  let participants = Party_id.all ~k in
  let params =
    { B.Dolev_strong.participants; t; verifier = Crypto.Pki.verifier pki }
  in
  let others = B.Machine.others ~self participants in
  let machines =
    List.map
      (fun sender ->
        let bytes = if Party_id.equal sender self then Wire.encode prefs_codec input else "" in
        ( Party_id.to_string sender,
          B.Dolev_strong.make params ~others ~signer:(Crypto.Pki.signer pki self) ~sender
            ~input:bytes ~default:"" ))
      participants
  in
  let net = Bsm_runtime.Net.direct env in
  let outputs = B.Session.run_parallel net machines in
  let prefs_of p =
    let dense = Party_id.to_dense ~k p in
    let bytes = List.assoc (Party_id.to_string p) outputs in
    match Wire.decode prefs_codec bytes with
    | Ok prefs when validate ~n ~self_dense:dense prefs -> prefs
    | Ok _ | Error _ -> default_prefs ~n ~self_dense:dense
  in
  let inst =
    SM.Roommates.make_exn (Array.init n (fun i -> prefs_of (Party_id.of_dense ~k i)))
  in
  let decision =
    match SM.Roommates.solve inst with
    | Some partner -> Some (Party_id.of_dense ~k partner.(self_dense))
    | None -> None
  in
  env.output (Wire.encode Problem.decision_codec decision)

(* --- evaluation --------------------------------------------------------- *)

type violation =
  | Termination of Party_id.t
  | Symmetry of Party_id.t * Party_id.t
  | Non_competition of Party_id.t * Party_id.t * Party_id.t
  | Blocking_pair of Party_id.t * Party_id.t
  | Inconsistent_abstention of Party_id.t * Party_id.t

let pp_violation ppf = function
  | Termination p -> Format.fprintf ppf "termination: %a" Party_id.pp p
  | Symmetry (u, v) -> Format.fprintf ppf "symmetry: %a/%a" Party_id.pp u Party_id.pp v
  | Non_competition (a, b, t) ->
    Format.fprintf ppf "non-competition: %a and %a -> %a" Party_id.pp a Party_id.pp b
      Party_id.pp t
  | Blocking_pair (u, v) ->
    Format.fprintf ppf "blocking pair: (%a, %a)" Party_id.pp u Party_id.pp v
  | Inconsistent_abstention (u, v) ->
    Format.fprintf ppf "inconsistent abstention: %a matched, %a abstained" Party_id.pp
      u Party_id.pp v

let check ~k ~inputs ~byzantine ~decisions =
  let n = 2 * k in
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let decision_of p =
    List.find_map (fun (q, d) -> if Party_id.equal p q then Some d else None) decisions
  in
  let honest p = not (Party_set.mem p byzantine) in
  (* termination *)
  List.iter
    (fun (p, d) ->
      match d with
      | None -> add (Termination p)
      | Some _ -> ())
    decisions;
  (* symmetry + non-competition *)
  let matched =
    List.filter_map
      (fun (p, d) ->
        match d with
        | Some (Some q) -> Some (p, q)
        | Some None | None -> None)
      decisions
  in
  List.iter
    (fun (p, q) ->
      if honest q then begin
        match decision_of q with
        | Some (Some (Some p')) when Party_id.equal p p' -> ()
        | Some _ | None -> add (Symmetry (p, q))
      end)
    matched;
  let rec pairwise = function
    | [] -> ()
    | (a, ta) :: rest ->
      List.iter (fun (b, tb) -> if Party_id.equal ta tb then add (Non_competition (a, b, ta))) rest;
      pairwise rest
  in
  pairwise matched;
  (* consistent abstention *)
  let abstained =
    List.filter_map
      (fun (p, d) ->
        match d with
        | Some None -> Some p
        | Some (Some _) | None -> None)
      decisions
  in
  (match matched, abstained with
  | (u, _) :: _, v :: _ -> add (Inconsistent_abstention (u, v))
  | _ -> ());
  (* blocking pairs among honest parties, under their true inputs *)
  let rank_of p q =
    let dense_q = Party_id.to_dense ~k q in
    Util.find_index (Int.equal dense_q) (inputs p)
  in
  let prefers p a b =
    match rank_of p a, rank_of p b with
    | Some ra, Some rb -> ra < rb
    | Some _, None -> true
    | None, _ -> false
  in
  let partner_of p =
    match decision_of p with
    | Some (Some (Some q)) -> Some q
    | Some (Some None) | Some None | None -> None
  in
  let roster = List.init n (fun i -> Party_id.of_dense ~k i) in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if Party_id.compare u v < 0 && honest u && honest v then begin
            let u_wants =
              match partner_of u with
              | None -> true
              | Some w -> (not (Party_id.equal w v)) && prefers u v w
            in
            let v_wants =
              match partner_of v with
              | None -> true
              | Some w -> (not (Party_id.equal w u)) && prefers v u w
            in
            (* Only flag when both sides actually produced output; and a
               mutually-"wanting" pair of two abstainers is only blocking
               when the run was supposed to produce a matching — the
               consistent-abstention check covers the mixed case, and the
               all-abstain case is legitimate when no stable matching
               exists, so only flag pairs where at least one is matched. *)
            let someone_matched = partner_of u <> None || partner_of v <> None in
            if someone_matched && u_wants && v_wants then add (Blocking_pair (u, v))
          end)
        roster)
    roster;
  List.rev !violations

let random_inputs rng ~k =
  let n = 2 * k in
  let table =
    List.map
      (fun i ->
        let self_dense = i in
        ( Party_id.of_dense ~k i,
          Rng.shuffle rng (default_prefs ~n ~self_dense) ))
      (List.init n Fun.id)
  in
  fun p -> List.assoc p table
