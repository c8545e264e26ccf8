(* Tests for the broadcast/agreement substrate: adversary structures,
   (generalized) phase king, the omission-tolerant Pi_BA / Pi_BB pair, and
   Dolev-Strong — each under honest, crashing, silent, equivocating and
   noise-generating byzantine parties. *)

open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Net = Bsm_runtime.Net
module B = Bsm_broadcast
module H = Bsm_harness
module Crypto = Bsm_crypto.Crypto
module Wire = Bsm_wire.Wire

(* --- adversary structures ----------------------------------------------- *)

let pset l = Party_set.of_list l

let test_possibly_corrupt_threshold () =
  let s = B.Adversary_structure.Threshold 2 in
  Alcotest.(check bool) "size 2 ok" true
    (B.Adversary_structure.possibly_corrupt s (pset [ Party_id.left 0; Party_id.right 1 ]));
  Alcotest.(check bool) "size 3 not" false
    (B.Adversary_structure.possibly_corrupt s
       (pset [ Party_id.left 0; Party_id.left 1; Party_id.right 1 ]))

let test_possibly_corrupt_two_sided () =
  let s = B.Adversary_structure.Two_sided { t_left = 1; t_right = 2 } in
  Alcotest.(check bool) "1L+2R ok" true
    (B.Adversary_structure.possibly_corrupt s
       (pset [ Party_id.left 0; Party_id.right 0; Party_id.right 1 ]));
  Alcotest.(check bool) "2L not" false
    (B.Adversary_structure.possibly_corrupt s (pset [ Party_id.left 0; Party_id.left 1 ]))

let test_q3_two_sided_matches_lemma4 () =
  (* Lemma 4: Q3 for the product structure over the full roster holds iff
     t_L < k/3 or t_R < k/3. Exhaustive over small (k, t_L, t_R). *)
  for k = 1 to 9 do
    let participants = Party_id.all ~k in
    for t_left = 0 to k do
      for t_right = 0 to k do
        let s = B.Adversary_structure.Two_sided { t_left; t_right } in
        let expected = 3 * t_left < k || 3 * t_right < k in
        if B.Adversary_structure.q3 s ~participants <> expected then
          Alcotest.failf "q3 mismatch at k=%d tL=%d tR=%d" k t_left t_right
      done
    done
  done

let test_q3_explicit_agrees_with_two_sided () =
  (* Cross-check the explicit-structure cover search against the closed
     form, by materializing Z* for small instances. *)
  let k = 3 in
  let participants = Party_id.all ~k in
  let lefts = Party_id.side_members Side.Left ~k in
  let rights = Party_id.side_members Side.Right ~k in
  let subsets_of_size n pool =
    List.filter (fun s -> Party_set.cardinal s = n) (Party_set.power_set pool)
  in
  for t_left = 0 to k do
    for t_right = 0 to k do
      let maximal =
        List.concat_map
          (fun sl ->
            List.map (fun sr -> Party_set.union sl sr) (subsets_of_size t_right rights))
          (subsets_of_size t_left lefts)
      in
      let explicit = B.Adversary_structure.Explicit maximal in
      let two_sided = B.Adversary_structure.Two_sided { t_left; t_right } in
      if
        B.Adversary_structure.q3 explicit ~participants
        <> B.Adversary_structure.q3 two_sided ~participants
      then Alcotest.failf "explicit/two-sided q3 disagree at tL=%d tR=%d" t_left t_right
    done
  done

let test_king_sequence_not_corruptible () =
  let check s participants =
    let kings = B.Adversary_structure.king_sequence s ~participants in
    Alcotest.(check bool) "kings not corruptible" false
      (B.Adversary_structure.possibly_corrupt s (pset kings));
    List.iter
      (fun king ->
        Alcotest.(check bool) "king is participant" true (List.mem king participants))
      kings
  in
  check (B.Adversary_structure.Threshold 2) (Party_id.side_members Side.Left ~k:7);
  check (B.Adversary_structure.Two_sided { t_left = 1; t_right = 3 }) (Party_id.all ~k:4);
  check (B.Adversary_structure.Two_sided { t_left = 4; t_right = 1 }) (Party_id.all ~k:4)

let test_king_sequence_picks_cheap_side () =
  let s = B.Adversary_structure.Two_sided { t_left = 3; t_right = 1 } in
  let kings = B.Adversary_structure.king_sequence s ~participants:(Party_id.all ~k:4) in
  Alcotest.(check int) "t_R+1 kings" 2 (List.length kings);
  List.iter
    (fun king ->
      Alcotest.(check bool) "from right side" true
        (Side.equal (Party_id.side king) Side.Right))
    kings

(* --- helpers for protocol runs ------------------------------------------ *)

let opt_string = Wire.option Wire.string

(* Run a protocol among all 2k parties, fully connected. [byzantine] maps a
   party to Some program; honest parties run [honest]. Returns the engine
   result. *)
let run_protocol ?faults ~k ~honest ~byzantine () =
  let cfg =
    Engine.config ?faults ~k
      ~link:(Engine.Of_topology Bsm_topology.Topology.Fully_connected) ()
  in
  Engine.run cfg ~programs:(fun p ->
      match byzantine p with
      | Some program -> program
      | None -> honest p)

let honest_outputs res honest_parties =
  List.filter_map
    (fun p ->
      let r = Engine.find_result res p in
      match r.Engine.status with
      | Engine.Terminated -> Some (p, r.Engine.out)
      | Engine.Out_of_rounds | Engine.Crashed _ ->
        Alcotest.failf "honest party %s did not terminate cleanly" (Party_id.to_string p))
    honest_parties

(* --- phase king (threshold structure, one side) -------------------------- *)

let pk_params ~k ~t =
  B.Phase_king.params
    ~structure:(B.Adversary_structure.Threshold t)
    ~participants:(Party_id.side_members Side.Left ~k)

let pk_honest params inputs p (env : Engine.env) =
  let machine = B.Phase_king.make params ~self:p ~input:(inputs p) in
  let out = B.Machine.run (Net.direct env) machine in
  env.Engine.output out

let left_parties ~k = Party_id.side_members Side.Left ~k

let check_agreement ~what outputs =
  match outputs with
  | [] -> Alcotest.fail "no honest outputs"
  | (_, first) :: rest ->
    List.iter
      (fun (p, out) ->
        if out <> first then
          Alcotest.failf "%s: %s disagrees" what (Party_id.to_string p))
      rest;
    first

let test_phase_king_all_honest_validity () =
  let k = 4 in
  let params = pk_params ~k ~t:1 in
  let inputs _ = "v" in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then pk_honest params inputs p env)
      ~byzantine:(fun _ -> None)
      ()
  in
  let outs = honest_outputs res (left_parties ~k) in
  let agreed = check_agreement ~what:"validity" outs in
  Alcotest.(check (option string)) "output is the common input" (Some "v") agreed

(* A byzantine phase-king participant that keeps sending personalized
   (split-brain) Value/Propose/King messages every round. *)
let pk_split_brain values (env : Engine.env) =
  let payload_for i phase =
    let v = List.nth values (i mod List.length values) in
    let msg =
      match phase with
      | 0 -> B.Phase_king.Msg.Value v
      | 1 -> B.Phase_king.Msg.Propose v
      | _ -> B.Phase_king.Msg.King v
    in
    Wire.encode B.Phase_king.Msg.codec msg
  in
  let targets = List.filter (fun p -> not (Party_id.equal p env.Engine.self)) (Party_id.all ~k:env.Engine.k) in
  for round = 0 to 40 do
    List.iteri (fun i dst -> env.Engine.send dst (payload_for (i + round) (round mod 3))) targets;
    ignore (env.Engine.next_round ())
  done

let pk_strategies ~k =
  [
    "silent", H.Adversaries.silent;
    "crash", H.Adversaries.crash_at ~round:2 (fun env -> pk_split_brain [ "a" ] env);
    ( "noise",
      H.Adversaries.flood ~seed:42 ~rounds:30 ~burst:6 ~targets:(left_parties ~k) );
    "split-brain", pk_split_brain [ "a"; "b"; "zzz" ];
  ]

let test_phase_king_agreement_under_byzantine () =
  (* k=4 parties on L, t=1: every byzantine strategy, across several input
     splits, must preserve agreement among the 3 honest parties — and
     validity when the honest inputs are unanimous. *)
  let k = 4 in
  let params = pk_params ~k ~t:1 in
  let input_splits =
    [ (fun _ -> "v"); (fun p -> if Party_id.index p mod 2 = 0 then "a" else "b") ]
  in
  List.iter
    (fun (name, strategy) ->
      List.iter
        (fun inputs ->
          let bad = Party_id.left 3 in
          let res =
            run_protocol ~k
              ~honest:(fun p env ->
                if Side.equal (Party_id.side p) Side.Left then
                  pk_honest params inputs p env)
              ~byzantine:(fun p -> if Party_id.equal p bad then Some strategy else None)
              ()
          in
          let honest = List.filter (fun p -> not (Party_id.equal p bad)) (left_parties ~k) in
          let outs = honest_outputs res honest in
          let agreed = check_agreement ~what:name outs in
          let unanimous =
            List.sort_uniq String.compare (List.map inputs honest) |> List.length = 1
          in
          if unanimous then
            Alcotest.(check (option string))
              (name ^ ": validity") (Some (inputs (List.hd honest))) agreed)
        input_splits)
    (pk_strategies ~k)

let test_phase_king_two_sided_structure () =
  (* The general-adversary case that motivates the generalization: all 2k
     parties participate, the whole of R plus one L party are byzantine
     (t_L = 1 < k/3 = 4/3 fails... use k = 4, t_L = 1, 3·1 < 4 ✓, t_R = 4).
     Standard threshold BA would need t < n/3 = 8/3 but we have 5 byzantine
     parties. Agreement among the 3 honest L parties must hold. *)
  let k = 4 in
  let structure = B.Adversary_structure.Two_sided { t_left = 1; t_right = 4 } in
  let params = B.Phase_king.params ~structure ~participants:(Party_id.all ~k) in
  let bad_left = Party_id.left 1 in
  let byzantine p =
    if Side.equal (Party_id.side p) Side.Right then Some (pk_split_brain [ "x"; "y" ])
    else if Party_id.equal p bad_left then Some (pk_split_brain [ "y"; "zz" ])
    else None
  in
  let inputs p = if Party_id.index p = 0 then "a" else "b" in
  let res =
    run_protocol ~k
      ~honest:(fun p env -> pk_honest params inputs p env)
      ~byzantine ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p bad_left)) (left_parties ~k) in
  ignore (check_agreement ~what:"two-sided structure" (honest_outputs res honest))

let test_phase_king_round_complexity () =
  (* Δ_King = 3(t+1)·Δ: the engine's round counter must match the paper's
     formula exactly. *)
  List.iter
    (fun (k, t) ->
      let params = pk_params ~k ~t in
      let res =
        run_protocol ~k
          ~honest:(fun p env ->
            if Side.equal (Party_id.side p) Side.Left then
              pk_honest params (fun _ -> "v") p env)
          ~byzantine:(fun _ -> None)
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "rounds k=%d t=%d" k t)
        (3 * (t + 1))
        res.Engine.metrics.rounds_used)
    [ 4, 1; 7, 2; 10, 3 ]

(* --- Pi_BA ---------------------------------------------------------------- *)

let ba_honest params inputs p (env : Engine.env) =
  let machine = B.Pi_ba.make params ~self:p ~input:(inputs p) in
  let out = B.Machine.run (Net.direct env) machine in
  env.Engine.output (Wire.encode opt_string out)

let decode_opt out =
  match out with
  | None -> Alcotest.fail "missing output payload"
  | Some payload -> Wire.decode_exn opt_string payload

let test_pi_ba_no_omissions_is_ba () =
  let k = 4 in
  let params = pk_params ~k ~t:1 in
  let bad = Party_id.left 2 in
  List.iter
    (fun (name, strategy) ->
      let res =
        run_protocol ~k
          ~honest:(fun p env ->
            if Side.equal (Party_id.side p) Side.Left then
              ba_honest params (fun _ -> "agreed") p env)
          ~byzantine:(fun p -> if Party_id.equal p bad then Some strategy else None)
          ()
      in
      let honest = List.filter (fun p -> not (Party_id.equal p bad)) (left_parties ~k) in
      List.iter
        (fun (_, out) ->
          Alcotest.(check (option string))
            (name ^ ": validity incl. echo round")
            (Some "agreed") (decode_opt out))
        (honest_outputs res honest))
    (pk_strategies ~k)

let test_pi_ba_weak_agreement_under_omissions () =
  (* Random omission patterns (all parties honest): no two honest parties
     may output distinct Some values, and everyone must terminate on time. *)
  let k = 4 in
  let params = pk_params ~k ~t:1 in
  for seed = 1 to 60 do
    let rng = Rng.make seed in
    let faults =
      Engine.fault_model (fun ~round:_ ~src:_ ~dst:_ -> Rng.int rng 100 < 40)
    in
    let res =
      run_protocol ~k ~faults
        ~honest:(fun p env ->
          if Side.equal (Party_id.side p) Side.Left then
            ba_honest params (fun p -> if Party_id.index p < 2 then "a" else "b") p env)
        ~byzantine:(fun _ -> None)
        ()
    in
    let outs = honest_outputs res (left_parties ~k) in
    let some_values =
      List.sort_uniq String.compare
        (List.filter_map (fun (_, out) -> decode_opt out) outs)
    in
    if List.length some_values > 1 then
      Alcotest.failf "weak agreement violated at seed %d" seed;
    (* Termination within Δ_BA = 3(t+1) + 1 rounds. *)
    Alcotest.(check bool) "on time" true (res.Engine.metrics.rounds_used <= 3 * 2 + 1)
  done

(* --- Pi_BB ---------------------------------------------------------------- *)

let bb_honest params ~sender inputs p (env : Engine.env) =
  let machine =
    B.Pi_bb.make params ~self:p ~sender ~input:(inputs p) ~default:"default"
  in
  let out = B.Machine.run (Net.direct env) machine in
  env.Engine.output (Wire.encode opt_string out)

let test_pi_bb_honest_sender_validity () =
  let k = 4 in
  let params = pk_params ~k ~t:1 in
  let sender = Party_id.left 0 in
  let bad = Party_id.left 3 in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then
          bb_honest params ~sender (fun _ -> "the-value") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p bad then Some (pk_split_brain [ "x"; "y" ]) else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p bad)) (left_parties ~k) in
  List.iter
    (fun (_, out) ->
      Alcotest.(check (option string)) "sender's value" (Some "the-value")
        (decode_opt out))
    (honest_outputs res honest)

let test_pi_bb_byzantine_sender_agreement () =
  (* An equivocating sender: honest parties must still agree (on anything,
     possibly the default). *)
  let k = 4 in
  let params = pk_params ~k ~t:1 in
  let sender = Party_id.left 0 in
  let equivocating (env : Engine.env) =
    List.iter
      (fun p ->
        let v = if Party_id.index p mod 2 = 0 then "one" else "two" in
        let payload = Wire.encode B.Phase_king.Msg.codec (B.Phase_king.Msg.Sender v) in
        if not (Party_id.equal p env.Engine.self) then env.Engine.send p payload)
      (left_parties ~k);
    (* keep disrupting the BA phase *)
    pk_split_brain [ "one"; "two" ] env
  in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then
          bb_honest params ~sender (fun _ -> "ignored") p env)
      ~byzantine:(fun p -> if Party_id.equal p sender then Some equivocating else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p sender)) (left_parties ~k) in
  ignore (check_agreement ~what:"byzantine sender" (honest_outputs res honest))

let test_pi_bb_silent_sender_default () =
  let k = 4 in
  let params = pk_params ~k ~t:1 in
  let sender = Party_id.left 0 in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then
          bb_honest params ~sender (fun _ -> "ignored") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p sender then Some H.Adversaries.silent else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p sender)) (left_parties ~k) in
  List.iter
    (fun (_, out) ->
      Alcotest.(check (option string)) "default adopted" (Some "default") (decode_opt out))
    (honest_outputs res honest)

(* --- Dolev-Strong ---------------------------------------------------------- *)

let ds_setup ~k ~seed = Crypto.Pki.setup ~k ~seed

let ds_honest params pki ~sender inputs p (env : Engine.env) =
  let machine =
    B.Dolev_strong.make params ~signer:(Crypto.Pki.signer pki p) ~sender
      ~input:(inputs p) ~default:"default"
  in
  env.Engine.output (B.Machine.run (Net.direct env) machine)

let test_dolev_strong_honest_sender () =
  (* t = n-1 = 7: tolerate all-but-one corruption. Here everyone honest. *)
  let k = 4 in
  let pki = ds_setup ~k ~seed:1 in
  let participants = Party_id.all ~k in
  let params =
    { B.Dolev_strong.participants; t = 2 * k - 1; verifier = Crypto.Pki.verifier pki }
  in
  let sender = Party_id.right 2 in
  let res =
    run_protocol ~k
      ~honest:(fun p env -> ds_honest params pki ~sender (fun _ -> "payload") p env)
      ~byzantine:(fun _ -> None)
      ()
  in
  List.iter
    (fun (_, out) ->
      Alcotest.(check (option string)) "validity" (Some "payload") out)
    (honest_outputs res participants);
  Alcotest.(check int) "t+1 rounds" (2 * k) res.Engine.metrics.rounds_used

let test_dolev_strong_equivocating_sender () =
  (* The sender signs two values and sends each to half the parties; with
     byzantine relays colluding (relaying only to a subset), honest parties
     must still agree. *)
  let k = 3 in
  let pki = ds_setup ~k ~seed:2 in
  let participants = Party_id.all ~k in
  let params =
    { B.Dolev_strong.participants; t = 2; verifier = Crypto.Pki.verifier pki }
  in
  let sender = Party_id.left 0 in
  let helper = Party_id.left 1 in
  let equivocator (env : Engine.env) =
    let signer = Crypto.Pki.signer pki sender in
    let chain v = B.Dolev_strong.Chain.start signer v in
    let payload v = Wire.encode B.Dolev_strong.Chain.codec (chain v) in
    (* "one" only to R0, "two" only to R1; nothing to others. *)
    env.Engine.send (Party_id.right 0) (payload "one");
    env.Engine.send (Party_id.right 1) (payload "two")
  in
  let delayed_helper (env : Engine.env) =
    (* Byzantine helper: holds the sender's signature on a third value and
       releases it only in the final round to one party — the classic
       attack that the t+1-round rule defeats: a chain of length t+1 then
       carries an honest signer who already relayed. Here the helper signs
       onto "one"'s chain and sends it late to R2 only. *)
    let sender_signer = Crypto.Pki.signer pki sender in
    let my_signer = Crypto.Pki.signer pki helper in
    let chain = B.Dolev_strong.Chain.start sender_signer "three" in
    let chain = B.Dolev_strong.Chain.sign_onto my_signer chain in
    ignore (env.Engine.next_round ());
    (* round 2: chain of length 2 = current round: accepted by R2 *)
    env.Engine.send (Party_id.right 2) (Wire.encode B.Dolev_strong.Chain.codec chain)
  in
  let res =
    run_protocol ~k
      ~honest:(fun p env -> ds_honest params pki ~sender (fun _ -> "ignored") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p sender then Some equivocator
        else if Party_id.equal p helper then Some delayed_helper
        else None)
      ()
  in
  let honest =
    List.filter
      (fun p -> not (Party_id.equal p sender || Party_id.equal p helper))
      participants
  in
  ignore (check_agreement ~what:"equivocating sender" (honest_outputs res honest))

let test_dolev_strong_forgery_impossible () =
  (* A byzantine relay fabricates a chain for a value the sender never
     signed, using its own signature twice / wrong signers: honest parties
     must ignore it and output the honest sender's value. *)
  let k = 3 in
  let pki = ds_setup ~k ~seed:3 in
  let participants = Party_id.all ~k in
  let params =
    { B.Dolev_strong.participants; t = 2; verifier = Crypto.Pki.verifier pki }
  in
  let sender = Party_id.left 0 in
  let forger = Party_id.left 1 in
  let forging (env : Engine.env) =
    let my_signer = Crypto.Pki.signer pki forger in
    (* Chain that pretends to originate from the sender but is signed by
       the forger. *)
    let fake =
      {
        B.Dolev_strong.Chain.value = "forged";
        links =
          [
            ( sender,
              Crypto.Signer.sign my_signer "whatever" );
          ];
      }
    in
    List.iter
      (fun p ->
        if not (Party_id.equal p env.Engine.self) then
          env.Engine.send p (Wire.encode B.Dolev_strong.Chain.codec fake))
      participants;
    ignore (env.Engine.next_round ())
  in
  let res =
    run_protocol ~k
      ~honest:(fun p env -> ds_honest params pki ~sender (fun _ -> "real") p env)
      ~byzantine:(fun p -> if Party_id.equal p forger then Some forging else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p forger)) participants in
  List.iter
    (fun (_, out) ->
      Alcotest.(check (option string)) "forgery rejected" (Some "real") out)
    (honest_outputs res honest)

let test_dolev_strong_silent_sender () =
  let k = 2 in
  let pki = ds_setup ~k ~seed:4 in
  let participants = Party_id.all ~k in
  let params =
    { B.Dolev_strong.participants; t = 1; verifier = Crypto.Pki.verifier pki }
  in
  let sender = Party_id.left 0 in
  let res =
    run_protocol ~k
      ~honest:(fun p env -> ds_honest params pki ~sender (fun _ -> "ignored") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p sender then Some H.Adversaries.silent else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p sender)) participants in
  List.iter
    (fun (_, out) -> Alcotest.(check (option string)) "default" (Some "default") out)
    (honest_outputs res honest)

(* --- additional coverage ---------------------------------------------------- *)

let test_phase_king_explicit_structure () =
  (* The same instance expressed as an Explicit structure (greedy king
     sequence, subset-based predicates) must still achieve agreement. *)
  let k = 4 in
  let participants = left_parties ~k in
  let maximal =
    (* threshold-1 over L, materialized *)
    List.map Party_set.singleton participants
  in
  let structure = B.Adversary_structure.Explicit maximal in
  Alcotest.(check bool) "q3 holds" true (B.Adversary_structure.q3 structure ~participants);
  let params = B.Phase_king.params ~structure ~participants in
  let bad = Party_id.left 3 in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then
          pk_honest params (fun p -> if Party_id.index p = 0 then "x" else "y") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p bad then Some (pk_split_brain [ "x"; "y" ]) else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p bad)) participants in
  ignore (check_agreement ~what:"explicit structure" (honest_outputs res honest))

let test_phase_king_single_participant () =
  (* Degenerate instance: one participant, zero corruption. *)
  let params =
    B.Phase_king.params
      ~structure:(B.Adversary_structure.Threshold 0)
      ~participants:[ Party_id.left 0 ]
  in
  let res =
    run_protocol ~k:1
      ~honest:(fun p env ->
        if Party_id.equal p (Party_id.left 0) then pk_honest params (fun _ -> "solo") p env)
      ~byzantine:(fun _ -> None)
      ()
  in
  let outs = honest_outputs res [ Party_id.left 0 ] in
  Alcotest.(check (option string)) "own value" (Some "solo") (snd (List.hd outs))

let test_phase_king_unanimity_persistence =
  (* Validity as a property: unanimous honest inputs survive any of our
     byzantine strategies at any admissible corruption level. *)
  QCheck.Test.make ~name:"phase king validity under random byzantine" ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.make seed in
      let k = 4 + Rng.int rng 4 in
      let t = (k - 1) / 3 in
      let params = pk_params ~k ~t in
      let bad = Rng.sample rng (max 1 t) (left_parties ~k) in
      let strategy p =
        if List.exists (Party_id.equal p) bad then
          Some
            (match Rng.int rng 2 with
            | 0 -> pk_split_brain [ "not-v"; "v" ]
            | _ ->
              H.Adversaries.flood ~seed:(Rng.int rng 9999) ~rounds:30 ~burst:5
                ~targets:(left_parties ~k))
        else None
      in
      let res =
        run_protocol ~k
          ~honest:(fun p env ->
            if Side.equal (Party_id.side p) Side.Left then
              pk_honest params (fun _ -> "v") p env)
          ~byzantine:strategy ()
      in
      let honest =
        List.filter (fun p -> not (List.exists (Party_id.equal p) bad)) (left_parties ~k)
      in
      List.for_all (fun (_, out) -> out = Some "v") (honest_outputs res honest))

let test_dolev_strong_truncated_chain_rejected () =
  (* A byzantine relay truncates a valid 2-link chain back to 1 link and
     replays it late: the length-vs-round rule must reject it. *)
  let k = 2 in
  let pki = ds_setup ~k ~seed:8 in
  let participants = Party_id.all ~k in
  let params =
    { B.Dolev_strong.participants; t = 2; verifier = Crypto.Pki.verifier pki }
  in
  let sender = Party_id.left 0 in
  let truncator (env : Engine.env) =
    (* Round 1: receive the sender's 1-link chain. Round 2: replay the
       1-link chain unchanged (should be rejected: round 2 expects 2
       links). *)
    let inbox = env.Engine.next_round () in
    ignore (env.Engine.next_round ());
    List.iter
      (fun (e : Engine.envelope) ->
        List.iter
          (fun p ->
            if not (Party_id.equal p env.Engine.self) then env.Engine.send_slice p e.Engine.data)
          participants)
      inbox;
    ignore (env.Engine.next_round ())
  in
  (* Sender sends only to the truncator, so honest parties can only learn
     the value through a *valid* relay chain — the truncated replay must
     not count. Honest parties should decide the default. *)
  let stingy_sender (env : Engine.env) =
    let signer = Crypto.Pki.signer pki sender in
    let chain = B.Dolev_strong.Chain.start signer "secret" in
    env.Engine.send (Party_id.left 1) (Wire.encode B.Dolev_strong.Chain.codec chain)
  in
  let truncator_id = Party_id.left 1 in
  let res =
    run_protocol ~k
      ~honest:(fun p env -> ds_honest params pki ~sender (fun _ -> "secret") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p sender then Some stingy_sender
        else if Party_id.equal p truncator_id then Some truncator
        else None)
      ()
  in
  let honest =
    List.filter
      (fun p -> not (Party_id.equal p sender || Party_id.equal p truncator_id))
      participants
  in
  List.iter
    (fun (_, out) ->
      Alcotest.(check (option string)) "truncated replay rejected -> default"
        (Some "default") out)
    (honest_outputs res honest)

let test_pi_bb_rounds_formula () =
  (* Δ_BB = 1 + Δ_BA = 1 + (3(t+1) + 1) virtual rounds. *)
  List.iter
    (fun (k, t) ->
      let params = pk_params ~k ~t in
      Alcotest.(check int)
        (Printf.sprintf "k=%d t=%d" k t)
        (1 + (3 * (t + 1)) + 1)
        (B.Pi_bb.rounds params))
    [ 4, 1; 7, 2; 13, 4 ]

(* --- gradecast -------------------------------------------------------------- *)

let gc_params ~k ~t =
  {
    B.Gradecast.structure = B.Adversary_structure.Threshold t;
    participants = Party_id.side_members Side.Left ~k;
  }

let gc_verdict_codec = Wire.pair (Wire.option Wire.string) Wire.uint

let gc_honest params ~sender inputs p (env : Engine.env) =
  let machine = B.Gradecast.make params ~self:p ~sender ~input:(inputs p) in
  let v = B.Machine.run (Net.direct env) machine in
  env.Engine.output
    (Wire.encode gc_verdict_codec (v.B.Gradecast.value, v.B.Gradecast.grade))

let gc_decode out =
  match out with
  | Some payload -> Wire.decode_exn gc_verdict_codec payload
  | None -> Alcotest.fail "missing gradecast output"

let test_gradecast_honest_sender_grade2 () =
  let k = 4 in
  let params = gc_params ~k ~t:1 in
  let sender = Party_id.left 0 in
  let bad = Party_id.left 3 in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then
          gc_honest params ~sender (fun _ -> "the-value") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p bad then Some (pk_split_brain [ "x" ]) else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p bad)) (left_parties ~k) in
  List.iter
    (fun (_, out) ->
      Alcotest.(check (pair (option string) int))
        "value with grade 2"
        (Some "the-value", 2) (gc_decode out))
    (honest_outputs res honest)

let test_gradecast_silent_sender_grade0 () =
  let k = 4 in
  let params = gc_params ~k ~t:1 in
  let sender = Party_id.left 0 in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then
          gc_honest params ~sender (fun _ -> "unused") p env)
      ~byzantine:(fun p ->
        if Party_id.equal p sender then Some H.Adversaries.silent else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p sender)) (left_parties ~k) in
  List.iter
    (fun (_, out) ->
      Alcotest.(check (pair (option string) int)) "grade 0" (None, 0) (gc_decode out))
    (honest_outputs res honest)

let gradecast_invariants verdicts =
  (* Graded consistency: non-None values all equal; max grade - min grade
     <= 1; grade 0 iff value None. *)
  let values = List.filter_map fst verdicts in
  let grades = List.map snd verdicts in
  List.length (List.sort_uniq String.compare values) <= 1
  && (match List.sort Int.compare grades with
     | [] -> true
     | sorted -> List.nth sorted (List.length sorted - 1) - List.hd sorted <= 1)
  && List.for_all
       (fun (v, g) ->
         match v with
         | None -> g = 0
         | Some _ -> g >= 1)
       verdicts

let test_gradecast_equivocating_sender_consistent () =
  let k = 4 in
  let params = gc_params ~k ~t:1 in
  let sender = Party_id.left 0 in
  let equivocator (env : Engine.env) =
    List.iteri
      (fun i p ->
        if not (Party_id.equal p sender) then begin
          let v = if i mod 2 = 0 then "one" else "two" in
          env.Engine.send p
            (Wire.encode
               (Wire.variant ~name:"gc"
                  [
                    Wire.pack
                      (Wire.case 0 Wire.string ~inject:Fun.id ~match_:Option.some);
                  ])
               v)
        end)
      (left_parties ~k);
    ignore (env.Engine.next_round ())
  in
  let res =
    run_protocol ~k
      ~honest:(fun p env ->
        if Side.equal (Party_id.side p) Side.Left then
          gc_honest params ~sender (fun _ -> "unused") p env)
      ~byzantine:(fun p -> if Party_id.equal p sender then Some equivocator else None)
      ()
  in
  let honest = List.filter (fun p -> not (Party_id.equal p sender)) (left_parties ~k) in
  let verdicts = List.map (fun (_, out) -> gc_decode out) (honest_outputs res honest) in
  Alcotest.(check bool) "graded consistency" true (gradecast_invariants verdicts)

let prop_gradecast_consistency_random =
  QCheck.Test.make ~name:"gradecast graded consistency under random byzantine"
    ~count:80
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.make seed in
      let k = 4 + Rng.int rng 4 in
      let t = (k - 1) / 3 in
      let params = gc_params ~k ~t in
      let sender = Rng.choose rng (left_parties ~k) in
      let bad = Rng.sample rng (max 1 t) (left_parties ~k) in
      let strategy p =
        if List.exists (Party_id.equal p) bad then
          Some
            (match Rng.int rng 3 with
            | 0 -> H.Adversaries.silent
            | 1 ->
              H.Adversaries.flood ~seed:(Rng.int rng 9999) ~rounds:10 ~burst:4
                ~targets:(left_parties ~k)
            | _ -> pk_split_brain [ "a"; "b" ])
        else None
      in
      let res =
        run_protocol ~k
          ~honest:(fun p env ->
            if Side.equal (Party_id.side p) Side.Left then
              gc_honest params ~sender (fun _ -> "v") p env)
          ~byzantine:strategy ()
      in
      let honest =
        List.filter (fun p -> not (List.exists (Party_id.equal p) bad)) (left_parties ~k)
      in
      let verdicts = List.map (fun (_, out) -> gc_decode out) (honest_outputs res honest) in
      gradecast_invariants verdicts
      &&
      (* validity when the sender is honest *)
      (List.exists (Party_id.equal sender) bad
      || List.for_all (fun (v, g) -> v = Some "v" && g = 2) verdicts))

(* --- randomized byzantine sweep (property test) --------------------------- *)

let prop_phase_king_agreement_random =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000) in
  QCheck.Test.make ~name:"phase king agreement under random byzantine" ~count:80 arb
    (fun seed ->
      let rng = Rng.make seed in
      let k = 4 + Rng.int rng 3 in
      let t = (k - 1) / 3 in
      let params = pk_params ~k ~t in
      let bad = Rng.sample rng t (left_parties ~k) in
      let inputs _ = string_of_int (Rng.int rng 3) in
      let strategy p =
        if List.exists (Party_id.equal p) bad then
          Some
            (match Rng.int rng 3 with
            | 0 -> H.Adversaries.silent
            | 1 ->
              H.Adversaries.flood ~seed:(Rng.int rng 10000) ~rounds:30 ~burst:4
                ~targets:(left_parties ~k)
            | _ -> pk_split_brain [ "0"; "1"; "2" ])
        else None
      in
      let res =
        run_protocol ~k
          ~honest:(fun p env ->
            if Side.equal (Party_id.side p) Side.Left then pk_honest params inputs p env)
          ~byzantine:strategy ()
      in
      let honest =
        List.filter (fun p -> not (List.exists (Party_id.equal p) bad)) (left_parties ~k)
      in
      let outs = honest_outputs res honest in
      match outs with
      | [] -> false
      | (_, first) :: rest -> List.for_all (fun (_, o) -> o = first) rest)

(* --- session routing and vote helpers ------------------------------------ *)

(* The routing [Session] did before it read tags in place: decode the
   whole message as a (tag, payload) pair and look the tag up. *)
let reference_route tags msg =
  match Wire.decode (Wire.pair Wire.string Wire.string) msg with
  | Ok (tag, inner) when List.mem tag tags -> Some (tag, inner)
  | Ok _ | Error _ -> None

let test_session_routing_matches_reference () =
  let rng = Rng.make 31 in
  let wire_pair a b = Wire.encode (Wire.pair Wire.string Wire.string) (a, b) in
  let known = [ "L1"; "L10"; "L"; "BB:L0"; "BA:R3"; "R1" ] in
  let unknown = [ "L100"; "L1 "; "BB:L"; "NO-SUCH-TAG"; "l1" ] in
  let messages =
    let clean =
      List.concat_map
        (fun tag -> [ B.Session.wrap tag "payload"; B.Session.wrap tag "" ])
        ("" :: known @ unknown)
    in
    let malformed =
      [
        ""; "\x00"; "\x02L1"; "\x02L1\x05abc"; "\x02L1\x01pq"; "\x82\x00L1\x01p";
        "\x02L1\x81\x00p"; "\x05L1"; "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01";
        wire_pair "L1" "x" ^ "\x00"; "\x01L\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00";
      ]
    in
    let cut =
      List.concat_map (fun m -> List.init (String.length m) (fun n -> String.sub m 0 n)) clean
    in
    let random =
      List.init 200 (fun _ -> String.init (Rng.int rng 10) (fun _ -> Char.chr (Rng.int rng 256)))
    in
    clean @ malformed @ cut @ random
  in
  let roster = Party_id.all ~k:3 in
  let inbox = List.map (fun m -> Rng.choose rng roster, m) messages in
  (* Once with the empty tag among the machines, once without. *)
  List.iter
    (fun tags ->
      let got = List.map (fun tag -> tag, ref []) tags in
      let machine tag =
        {
          B.Machine.initial = [];
          rounds = 1;
          step =
            (fun ~round:_ ~inbox ->
              List.assoc tag got := inbox;
              []);
          finish = ignore;
          cells = [];
        }
      in
      let synced = ref false in
      let net =
        {
          Net.self = Party_id.left 0;
          stride = 1;
          send = (fun _ _ -> ());
          send_many = (fun _ _ -> ());
          sync =
            (fun () ->
              if !synced then []
              else begin
                synced := true;
                inbox
              end);
          register_state = ignore;
        }
      in
      ignore (B.Session.run_parallel net (List.map (fun tag -> tag, machine tag) tags));
      List.iter
        (fun tag ->
          let expected =
            List.filter_map
              (fun (src, m) ->
                match reference_route tags m with
                | Some (tag', inner) when String.equal tag tag' -> Some (src, inner)
                | Some _ | None -> None)
              inbox
          in
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "inbox of %S" tag)
            (List.map (fun (p, m) -> Party_id.to_string p, m) expected)
            (List.map (fun (p, m) -> Party_id.to_string p, m) !(List.assoc tag got)))
        tags)
    [ known; "" :: known ]

(* The table-based [first_per_sender] the sorted-run scan replaced,
   kept as the oracle it must agree with on every inbox, sorted or not. *)
let reference_first_per_sender inbox =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (src, _) ->
      if Hashtbl.mem seen src then false
      else begin
        Hashtbl.add seen src ();
        true
      end)
    inbox

let test_first_per_sender_matches_reference () =
  let rng = Rng.make 8 in
  let roster = Party_id.all ~k:4 @ [ Party_id.left 70; Party_id.right 200 ] in
  for trial = 1 to 400 do
    let inbox = List.init (Rng.int rng 14) (fun i -> Rng.choose rng roster, i) in
    let inbox =
      match trial mod 3 with
      | 0 -> inbox
      | 1 -> List.stable_sort (fun (a, _) (b, _) -> Party_id.compare a b) inbox
      | _ ->
        List.sort_uniq (fun (a, _) (b, _) -> Party_id.compare a b) inbox
    in
    Alcotest.(check (list (pair string int)))
      (Printf.sprintf "trial %d" trial)
      (List.map (fun (p, i) -> Party_id.to_string p, i) (reference_first_per_sender inbox))
      (List.map (fun (p, i) -> Party_id.to_string p, i) (B.Machine.first_per_sender inbox))
  done

(* --- in-place vote readers ------------------------------------------------ *)

module Msg = B.Phase_king.Msg
module Votes = B.Phase_king.Votes
module Chain = B.Dolev_strong.Chain

(* The decode-first vote handling the in-place readers replaced, kept as
   the oracle they must agree with: decode every payload, group the
   decoded values in a table, sort the candidates. *)
module Reference = struct
  let relevant extract inbox =
    List.filter_map
      (fun (src, payload) ->
        match Wire.decode Msg.codec payload with
        | Ok msg -> Option.map (fun v -> src, v) (extract msg)
        | Error _ -> None)
      (B.Machine.first_per_sender inbox)

  let tally pairs =
    Util.group_by ~key:snd pairs
    |> List.map (fun (v, items) -> v, Party_set.of_list (List.map fst items))

  let pick pred tallied =
    let candidates = List.filter (fun (_, senders) -> pred senders) tallied in
    let by_support (v1, s1) (v2, s2) =
      match Int.compare (Party_set.cardinal s2) (Party_set.cardinal s1) with
      | 0 -> String.compare v1 v2
      | c -> c
    in
    match List.sort by_support candidates with
    | [] -> None
    | (value, _) :: _ -> Some value

  let locked possibly_corrupt complement tallied =
    List.exists (fun (_, senders) -> possibly_corrupt (complement senders)) tallied

  (* The first message of [king] in the whole inbox that decodes as
     [King]. *)
  let king_value king inbox =
    List.find_map
      (fun (src, payload) ->
        if not (Party_id.equal src king) then None
        else
          match Wire.decode Msg.codec payload with
          | Ok (Msg.King x) -> Some x
          | Ok (Msg.Value _ | Msg.Propose _ | Msg.Echo _ | Msg.Sender _) | Error _ -> None)
      inbox

  (* Π_BA's echo rule: the first value, own echo first, whose
     non-echoers are possibly corrupt. *)
  let echo possibly_corrupt everyone ~self ~own inbox =
    let echoes =
      relevant
        (function
          | Msg.Echo z -> Some z
          | Msg.Value _ | Msg.Propose _ | Msg.King _ | Msg.Sender _ -> None)
        inbox
    in
    List.find_map
      (fun (z, items) ->
        let senders = Party_set.of_list (List.map fst items) in
        if possibly_corrupt (Party_set.diff everyone senders) then Some z else None)
      (Util.group_by ~key:snd ((self, own) :: echoes))

  (* Dolev–Strong's step, decoding every chain before judging it. *)
  let ds_step p ~signer ~sender ~others ~round extracted inbox =
    let relay = ref [] in
    List.iter
      (fun (_, payload) ->
        match Wire.decode Chain.codec payload with
        | Error _ -> ()
        | Ok chain ->
          if
            List.length !extracted < 2
            && (not (List.mem chain.Chain.value !extracted))
            && Chain.valid p ~sender ~length:round chain
          then begin
            extracted := chain.Chain.value :: !extracted;
            if round <= p.B.Dolev_strong.t then begin
              let payload = Wire.encode Chain.codec (Chain.sign_onto signer chain) in
              relay := List.map (fun dst -> dst, payload) others @ !relay
            end
          end)
      inbox;
    !relay
end

(* LEB128 of [n] with [pad] redundant continuation bytes: the decoder
   accepts up to 10 bytes in all. *)
let varint ?(pad = 0) n =
  let b = Buffer.create 12 in
  let rec go n =
    if n >= 0x80 then begin
      Buffer.add_char b (Char.chr (n land 0x7f lor 0x80));
      go (n lsr 7)
    end
    else if pad = 0 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (n lor 0x80));
      for _ = 2 to pad do
        Buffer.add_char b '\x80'
      done;
      Buffer.add_char b '\x00'
    end
  in
  go n;
  Buffer.contents b

let vote_pool = [ "a"; "b"; ""; "ab"; "\xff"; "a\x00"; String.make 130 'v' ]
let tag_byte t = String.make 1 (Char.chr t)
let random_bytes rng n = String.init n (fun _ -> Char.chr (Rng.int rng 256))

(* A payload for the phase-king family: mostly a vote for [hot] (a tag
   and a value), otherwise a vote of any case or any of the frames a
   reader must reject or must not be fooled by. *)
let gen_vote_payload rng ~hot:(hot_tag, hot_value) =
  let tag, v =
    if Rng.bool rng then hot_tag, hot_value else Rng.int rng 5, Rng.choose rng vote_pool
  in
  let vote = tag_byte tag ^ varint (String.length v) ^ v in
  match Rng.int rng 14 with
  | 0 | 1 | 2 | 3 | 4 | 5 -> vote
  | 6 -> tag_byte (5 + Rng.int rng 251) ^ varint (String.length v) ^ v
  | 7 -> ""
  | 8 -> tag_byte tag ^ varint ~pad:(1 + Rng.int rng 9) (String.length v) ^ v
  | 9 -> tag_byte tag ^ varint (String.length v + 1 + Rng.int rng 3) ^ v
  | 10 -> vote ^ random_bytes rng (1 + Rng.int rng 3)
  | 11 -> String.sub vote 0 (Rng.int rng (String.length vote))
  | 12 -> tag_byte tag ^ "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" ^ v
  | _ -> random_bytes rng (Rng.int rng 9)

(* An inbox of votes for [tag] and noise. Half the inboxes are a crowd:
   each party of [roster] but about one in eight sends one message,
   three in four of them a valid vote for [tag] and most of those for
   the first of [values], so quorums, locks and support ties all occur;
   the rest are up to 11 messages from random senders. Two in three are
   sender-sorted, as nets deliver them, and one in four starts with a
   sender whose first frame is malformed and whose second is a valid
   vote. *)
let gen_inbox rng roster ~tag ~values =
  let hot () =
    tag, if Rng.int rng 4 = 0 then Rng.choose rng values else List.hd values
  in
  let msgs =
    if Rng.bool rng then
      List.filter_map
        (fun src ->
          if Rng.int rng 8 = 0 then None
          else if Rng.int rng 4 = 0 then Some (src, gen_vote_payload rng ~hot:(hot ()))
          else begin
            let _, v = hot () in
            Some (src, tag_byte tag ^ varint (String.length v) ^ v)
          end)
        roster
    else List.init (Rng.int rng 12) (fun _ -> Rng.choose rng roster, gen_vote_payload rng ~hot:(hot ()))
  in
  let msgs =
    if Rng.int rng 4 = 0 then begin
      let src = Rng.choose rng roster in
      let _, v = hot () in
      (src, tag_byte tag ^ varint (String.length v + 2) ^ v)
      :: (src, tag_byte tag ^ varint (String.length v) ^ v)
      :: msgs
    end
    else msgs
  in
  if Rng.int rng 3 = 0 then msgs
  else List.stable_sort (fun (a, _) (b, _) -> Party_id.compare a b) msgs

let cell_value (m : _ B.Machine.t) i codec =
  Wire.decode_exn codec ((List.nth m.B.Machine.cells i).Engine.cell_encode ())

(* The value of [msg] if it is the case of [tag], by pattern. *)
let case_value tag (msg : Msg.t) =
  match msg with
  | Msg.Value v when tag = Msg.value_tag -> Some v
  | Msg.Propose v when tag = Msg.propose_tag -> Some v
  | Msg.King v when tag = Msg.king_tag -> Some v
  | Msg.Echo v when tag = Msg.echo_tag -> Some v
  | Msg.Sender v when tag = Msg.sender_tag -> Some v
  | Msg.Value _ | Msg.Propose _ | Msg.King _ | Msg.Echo _ | Msg.Sender _ -> None

let show_outbox outbox =
  List.concat_map
    (fun (dsts, payload) -> List.map (fun d -> Party_id.to_string d, payload) dsts)
    outbox

let show_pairs pairs = List.map (fun (d, payload) -> Party_id.to_string d, payload) pairs
let outbox_t = Alcotest.(list (pair string string))

(* Every payload of an inbox against the codecs: [Votes.body] accepts it
   for the tag of a case exactly when it decodes as that case, with the
   value at that offset — under [Msg.codec] and under [Gradecast.codec],
   whose cases share the layout. *)
let check_accept_set inbox =
  let check ~codec_name ~tags decoded_case payload =
    List.iter
      (fun tag ->
        let expected = decoded_case tag in
        let off = Votes.body ~tag payload in
        let got =
          if off < 0 then None else Some (String.sub payload off (String.length payload - off))
        in
        if got <> expected then
          Alcotest.failf "%s tag %d of %S: reader %s, codec %s" codec_name tag payload
            (Option.value got ~default:"none")
            (Option.value expected ~default:"none"))
      tags
  in
  List.iter
    (fun (_, payload) ->
      let msg = Wire.decode Msg.codec payload in
      check ~codec_name:"phase king" ~tags:[ 0; 1; 2; 3; 4 ]
        (fun tag -> Result.fold ~ok:(case_value tag) ~error:(fun _ -> None) msg)
        payload;
      let msg = Wire.decode B.Gradecast.codec payload in
      check ~codec_name:"gradecast" ~tags:[ 0; 1; 2 ]
        (fun tag ->
          match msg with
          | Ok (B.Gradecast.Value v) when tag = 0 -> Some v
          | Ok (B.Gradecast.Echo v) when tag = 1 -> Some v
          | Ok (B.Gradecast.Ready v) when tag = 2 -> Some v
          | Ok (B.Gradecast.Value _ | B.Gradecast.Echo _ | B.Gradecast.Ready _) | Error _ -> None)
        payload)
    inbox

(* One Π_BA machine (phase king with one king, then the echo round) per
   case, driven through its four steps on generated inboxes; after each
   step its outbox and registered state (value, locked, proposal, output)
   must be what the decode-first reference computes. Each inbox's
   payloads are also checked against the codec, and [Votes.pick] and
   [Votes.first] against the reference under size thresholds that let
   several groups qualify, so support ties are broken by value. 3,000
   cases are 12,000 inboxes. *)
let test_vote_readers_match_reference () =
  let rng = Rng.make 2025 in
  let participants = Party_id.side_members Side.Left ~k:7 in
  let structure = B.Adversary_structure.Threshold 2 in
  let possibly_corrupt = B.Adversary_structure.possibly_corrupt structure in
  let everyone = Party_set.of_list participants in
  let complement s = Party_set.diff everyone s in
  let king = Party_id.left 0 and self = Party_id.left 3 in
  let params = { (B.Phase_king.params ~structure ~participants) with kings = [ king ] } in
  (* Votes from self (forged) and from a non-participant are possible. *)
  let roster = Party_id.right 0 :: participants in
  let others = List.filter (fun p -> not (Party_id.equal p self)) participants in
  let fan_out msg = show_pairs (List.map (fun d -> d, Wire.encode Msg.codec msg) others) in
  let check_votes ~what ~tag ~own inbox =
    check_accept_set inbox;
    let reference =
      Reference.tally
        ((match own with
         | Some v -> [ self, v ]
         | None -> [])
        @ Reference.relevant (case_value tag) inbox)
    in
    let groups = Votes.tally ~tag ~self ~own inbox in
    List.iter
      (fun m ->
        let pred s = Party_set.cardinal s >= m in
        Alcotest.(check (option string)) (what ^ " pick") (Reference.pick pred reference)
          (Votes.pick pred groups);
        Alcotest.(check (option string)) (what ^ " first")
          (List.find_map (fun (v, s) -> if pred s then Some v else None) reference)
          (Votes.first pred groups))
      [ 1; 2; 3 ]
  in
  (* How often the quorum branches fire, so a weaker generator shows. *)
  let proposals = ref 0 and locks = ref 0 and outputs = ref 0 in
  for case = 1 to 3_000 do
    let what = Printf.sprintf "case %d" case in
    let values = [ Rng.choose rng vote_pool; Rng.choose rng vote_pool ] in
    let input = Rng.choose rng values in
    let m = B.Pi_ba.make params ~self ~input in
    (* Round 1: values in, proposal out. *)
    let i1 = gen_inbox rng roster ~tag:Msg.value_tag ~values in
    check_votes ~what ~tag:Msg.value_tag ~own:(Some input) i1;
    let out = m.B.Machine.step ~round:1 ~inbox:i1 in
    let proposal =
      Reference.pick
        (fun s -> possibly_corrupt (complement s))
        (Reference.tally
           ((self, input)
           :: Reference.relevant (case_value Msg.value_tag) i1))
    in
    if Option.is_some proposal then incr proposals;
    Alcotest.(check (option string)) (what ^ " proposal") proposal
      (cell_value m 2 (Wire.option Wire.string));
    Alcotest.check outbox_t (what ^ " round 1 outbox")
      (match proposal with
      | Some w -> fan_out (Msg.Propose w)
      | None -> [])
      (show_outbox out);
    (* Round 2: proposals in, value adopted, lock decided. *)
    let i2 = gen_inbox rng roster ~tag:Msg.propose_tag ~values in
    check_votes ~what ~tag:Msg.propose_tag ~own:proposal i2;
    let out = m.B.Machine.step ~round:2 ~inbox:i2 in
    let tallied =
      Reference.tally
        ((match proposal with
         | Some w -> [ self, w ]
         | None -> [])
        @ Reference.relevant (case_value Msg.propose_tag) i2)
    in
    let v1 =
      Option.value (Reference.pick (fun s -> not (possibly_corrupt s)) tallied) ~default:input
    in
    let locked = Reference.locked possibly_corrupt complement tallied in
    if locked then incr locks;
    Alcotest.(check string) (what ^ " value") v1 (cell_value m 0 Wire.string);
    Alcotest.(check bool) (what ^ " locked") locked (cell_value m 1 Wire.bool);
    Alcotest.check outbox_t (what ^ " round 2 outbox") [] (show_outbox out);
    (* Round 3: the king's value, adopted unless locked; the echo goes out. *)
    let i3 = gen_inbox rng roster ~tag:Msg.king_tag ~values in
    let i3 = if Rng.bool rng then List.map (fun (_, p) -> king, p) i3 else i3 in
    check_accept_set i3;
    let out = m.B.Machine.step ~round:3 ~inbox:i3 in
    let v2 =
      match Reference.king_value king i3 with
      | Some x when not locked -> x
      | Some _ | None -> v1
    in
    Alcotest.(check string) (what ^ " king round") v2 (cell_value m 0 Wire.string);
    Alcotest.check outbox_t (what ^ " round 3 outbox") (fan_out (Msg.Echo v2)) (show_outbox out);
    (* Round 4: Π_BA's echo rule. *)
    let i4 = gen_inbox rng roster ~tag:Msg.echo_tag ~values in
    check_votes ~what ~tag:Msg.echo_tag ~own:(Some v2) i4;
    let out = m.B.Machine.step ~round:4 ~inbox:i4 in
    Alcotest.check outbox_t (what ^ " round 4 outbox") [] (show_outbox out);
    let output = Reference.echo possibly_corrupt everyone ~self ~own:v2 i4 in
    if Option.is_some output then incr outputs;
    Alcotest.(check (option string)) (what ^ " output") output (m.B.Machine.finish ())
  done;
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s in %d cases >= 300" what n) true (n >= 300))
    [ "proposal", !proposals; "lock", !locks; "output", !outputs ]

(* Gradecast's rounds as they were written before the shared reader:
   decode each sender's first message, group by decoded value, sort the
   graded candidates. *)
let reference_gradecast p ~self ~sender ~input (i1, i2, i3) =
  let possibly_corrupt = B.Adversary_structure.possibly_corrupt p.B.Gradecast.structure in
  let everyone = Party_set.of_list p.B.Gradecast.participants in
  let complement s = Party_set.diff everyone s in
  let extract shape inbox =
    List.filter_map
      (fun (src, payload) ->
        match Wire.decode B.Gradecast.codec payload with
        | Ok m -> Option.map (fun v -> src, v) (shape m)
        | Error _ -> None)
      (B.Machine.first_per_sender inbox)
  in
  let own v pairs =
    match v with
    | Some v -> (self, v) :: pairs
    | None -> pairs
  in
  let echo =
    if Party_id.equal self sender then Some input
    else
      List.find_map
        (fun (src, v) -> if Party_id.equal src sender then Some v else None)
        (extract
           (function
             | B.Gradecast.Value v -> Some v
             | B.Gradecast.Echo _ | B.Gradecast.Ready _ -> None)
           i1)
  in
  let echoes =
    own echo
      (extract
         (function
           | B.Gradecast.Echo v -> Some v
           | B.Gradecast.Value _ | B.Gradecast.Ready _ -> None)
         i2)
  in
  let ready =
    List.find_map
      (fun (v, senders) -> if possibly_corrupt (complement senders) then Some v else None)
      (Reference.tally echoes)
  in
  let readies =
    own ready
      (extract
         (function
           | B.Gradecast.Ready v -> Some v
           | B.Gradecast.Value _ | B.Gradecast.Echo _ -> None)
         i3)
  in
  let graded =
    List.filter_map
      (fun (v, senders) ->
        if possibly_corrupt (complement senders) then Some (v, 2)
        else if not (possibly_corrupt senders) then Some (v, 1)
        else None)
      (Reference.tally readies)
  in
  let verdict =
    match List.sort (fun (_, a) (_, b) -> Int.compare b a) graded with
    | (v, g) :: _ -> Some v, g
    | [] -> None, 0
  in
  echo, ready, verdict

(* Gradecast on the shared reader against its decode-first rounds, 2,000
   runs of three generated inboxes each (tags 3 and 4 of the phase-king
   payloads are unknown tags here). *)
let test_gradecast_matches_reference () =
  let rng = Rng.make 11 in
  let participants = Party_id.side_members Side.Left ~k:7 in
  let p = { B.Gradecast.structure = B.Adversary_structure.Threshold 2; participants } in
  let sender = Party_id.left 0 in
  let roster = Party_id.right 0 :: participants in
  let grades = Array.make 3 0 in
  for run = 1 to 2_000 do
    let what = Printf.sprintf "run %d" run in
    let self = if run mod 5 = 0 then sender else Party_id.left 3 in
    let values = [ Rng.choose rng vote_pool; Rng.choose rng vote_pool ] in
    let input = Rng.choose rng values in
    let i1 = gen_inbox rng roster ~tag:0 ~values in
    let i2 = gen_inbox rng roster ~tag:1 ~values in
    let i3 = gen_inbox rng roster ~tag:2 ~values in
    let echo, ready, (value, grade) =
      reference_gradecast p ~self ~sender ~input (i1, i2, i3)
    in
    let m = B.Gradecast.make p ~self ~sender ~input in
    ignore (m.B.Machine.step ~round:1 ~inbox:i1);
    Alcotest.(check (option string)) (what ^ " echo") echo
      (cell_value m 0 (Wire.option Wire.string));
    ignore (m.B.Machine.step ~round:2 ~inbox:i2);
    Alcotest.(check (option string)) (what ^ " ready") ready
      (cell_value m 1 (Wire.option Wire.string));
    ignore (m.B.Machine.step ~round:3 ~inbox:i3);
    let got = m.B.Machine.finish () in
    Alcotest.(check (pair (option string) int)) (what ^ " verdict") (value, grade)
      (got.B.Gradecast.value, got.B.Gradecast.grade);
    grades.(grade) <- grades.(grade) + 1
  done;
  Array.iteri
    (fun g n ->
      Alcotest.(check bool) (Printf.sprintf "grade %d in %d runs >= 300" g n) true (n >= 300))
    grades

(* A Dolev–Strong payload for round [round]: mostly a chain of [round]
   distinct signers, else a chain one short or one long, one not started
   by the sender, one with a padded value length, a truncated or padded
   frame, or noise. *)
let gen_chain_payload rng pki ~participants ~sender ~round =
  let value = Rng.choose rng [ "x"; "y"; "z"; "" ] in
  let chain first length =
    let rest = List.filter (fun p -> not (Party_id.equal p first)) participants in
    let rec extend c n pool =
      if n <= 1 || pool = [] then c
      else begin
        let q = Rng.choose rng pool in
        extend
          (Chain.sign_onto (Crypto.Pki.signer pki q) c)
          (n - 1)
          (List.filter (fun p -> not (Party_id.equal p q)) pool)
      end
    in
    Wire.encode Chain.codec (extend (Chain.start (Crypto.Pki.signer pki first) value) length rest)
  in
  let valid () = chain sender round in
  match Rng.int rng 10 with
  | 0 | 1 | 2 | 3 -> valid ()
  | 4 -> chain sender (max 1 (round + if Rng.bool rng then 1 else -1))
  | 5 -> chain (Rng.choose rng participants) round
  | 6 ->
    (* The same chain with its value length padded: it decodes, and
       verifies, as the unpadded one does. *)
    let e = valid () in
    let skip = String.length (varint (String.length value)) in
    varint ~pad:(1 + Rng.int rng 3) (String.length value)
    ^ String.sub e skip (String.length e - skip)
  | 7 ->
    let e = valid () in
    if Rng.bool rng then e ^ "\x00" else String.sub e 0 (Rng.int rng (String.length e))
  | 8 -> varint (String.length value + 40) ^ value
  | _ -> random_bytes rng (Rng.int rng 12)

(* A non-sender's Dolev–Strong machine over t + 1 = 4 rounds of
   generated inboxes, 2,500 runs (10,000 inboxes): after every step the
   relay outbox and the extracted list must be what decoding every chain
   first gives. *)
let test_dolev_strong_skip_matches_reference () =
  let rng = Rng.make 77 in
  let k = 3 in
  let pki = ds_setup ~k ~seed:5 in
  let participants = Party_id.all ~k in
  let p = { B.Dolev_strong.participants; t = 3; verifier = Crypto.Pki.verifier pki } in
  let sender = Party_id.left 0 and self = Party_id.left 1 in
  let signer = Crypto.Pki.signer pki self in
  let others = List.filter (fun q -> not (Party_id.equal q self)) participants in
  let relays = ref 0 and doubles = ref 0 in
  for run = 1 to 2_500 do
    let m = B.Dolev_strong.make p ~signer ~sender ~input:"unused" ~default:"default" in
    let extracted = ref [] in
    for round = 1 to B.Dolev_strong.rounds p do
      let what = Printf.sprintf "run %d round %d" run round in
      let inbox =
        List.init (Rng.int rng 7) (fun _ ->
            ( Rng.choose rng participants,
              gen_chain_payload rng pki ~participants ~sender ~round ))
      in
      let expected = Reference.ds_step p ~signer ~sender ~others ~round extracted inbox in
      let got = m.B.Machine.step ~round ~inbox in
      Alcotest.check outbox_t (what ^ " relay") (show_pairs expected) (show_outbox got);
      Alcotest.(check (list string)) (what ^ " extracted") !extracted
        (cell_value m 0 (Wire.list Wire.string));
      if expected <> [] then incr relays
    done;
    if List.length !extracted = 2 then incr doubles
  done;
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool) (Printf.sprintf "%s in %d >= 300" what n) true (n >= 300))
    [ "steps that relay", !relays; "runs that extract two values", !doubles ]

(* --- allocation and promotion guards ------------------------------------ *)

(* Minor words of a value step of phase king with [votes] honest votes
   for one value and the machine's own: reading and grouping in place
   cost one supporter cell (3 words) per vote. Decoding every vote into a
   string and grouping through a table took 1,054 words at 16 votes and
   55 more per vote. *)
let phase_king_step_words ~votes =
  let k = (votes / 2) + 1 in
  let participants = Party_id.all ~k in
  let self = Party_id.left 0 in
  let params =
    B.Phase_king.params ~structure:(B.Adversary_structure.Threshold 1) ~participants
  in
  let value = "agreed value" in
  let vote = Wire.encode Msg.codec (Msg.Value value) in
  let voters = List.filteri (fun i _ -> i < votes) (List.tl participants) in
  let inbox = List.map (fun q -> q, vote) voters in
  let m = B.Phase_king.make params ~self ~input:value in
  let before = Gc.minor_words () in
  let out = m.B.Machine.step ~round:1 ~inbox in
  let words = Gc.minor_words () -. before in
  (match out with
  | [ (dsts, _) ] -> Alcotest.(check int) "one fan-out to the others" (2 * k - 1) (List.length dsts)
  | _ -> Alcotest.fail "expected one proposal fan-out");
  words

let test_phase_king_step_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let w16 = phase_king_step_words ~votes:16 in
    let w64 = phase_king_step_words ~votes:64 in
    let per_vote = (w64 -. w16) /. 48. in
    Alcotest.(check bool)
      (Printf.sprintf "16 votes: %.0f words <= 200" w16)
      true (w16 <= 200.);
    Alcotest.(check bool)
      (Printf.sprintf "16 -> 64 votes: %.1f words per vote <= 4" per_vote)
      true (per_vote <= 4.)
  end

(* A session of phase-king machines keeps no vote state past its step
   (DESIGN.md § 6, the park rule): eight parties run four instances each
   over 17 kings (51 rounds) with 200-byte values, and L0 collects the
   minor heap before every sync, so anything a machine still holds from
   its last step is promoted there. The run promotes ~47k words; a
   machine that keeps its last inbox's payloads in a per-machine array
   promotes ~269k. *)
let test_session_promotes_little () =
  if Sys.backend_type = Sys.Native then begin
    let k = 4 in
    let participants = Party_id.all ~k in
    let kings = List.init 17 (fun i -> List.nth participants (i mod (2 * k))) in
    let params =
      {
        (B.Phase_king.params ~structure:(B.Adversary_structure.Threshold 2) ~participants) with
        kings;
      }
    in
    let programs p (env : Engine.env) =
      let net = Net.direct env in
      let net =
        if Party_id.equal p (Party_id.left 0) then
          {
            net with
            sync =
              (fun () ->
                Gc.minor ();
                net.Net.sync ());
          }
        else net
      in
      let machines =
        List.init 4 (fun i ->
            ( Printf.sprintf "PK%d" i,
              B.Phase_king.make params ~self:p ~input:(String.make 200 (Char.chr (97 + i))) ))
      in
      ignore (Sys.opaque_identity (B.Session.run_parallel net machines))
    in
    let cfg =
      Engine.config ~k ~link:(Engine.Of_topology Bsm_topology.Topology.Fully_connected) ()
    in
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.promoted_words in
    ignore (Engine.run cfg ~programs);
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
    Alcotest.(check bool)
      (Printf.sprintf "promoted %.0f words <= 100000" promoted)
      true (promoted <= 100_000.)
  end

(* Every Dolev–Strong machine of a party broadcasts to the same parties,
   so the party builds that list once and its 2k machines share it
   ([Machine.others]). The honest Dolev–Strong mechanism runs at k = 12
   after a warm-up run on this domain, with L0 collecting the minor heap
   before every round, so what the parties keep across rounds is
   promoted there: ~125k words, and ~163k when each machine filters its
   own list, 24 × 24 lists of 23 cells that live the whole run. *)
let test_dolev_strong_session_promotes_little () =
  if Sys.backend_type = Sys.Native then begin
    let k = 12 in
    let setting =
      Bsm_core.Setting.make_exn ~k ~topology:Bsm_topology.Topology.Fully_connected
        ~auth:Bsm_core.Setting.Authenticated ~t_left:k ~t_right:k
    in
    let pki = Crypto.Pki.setup ~k ~seed:1 in
    let input = Bsm_stable_matching.Prefs.identity k in
    let programs ~collect p (env : Engine.env) =
      let env =
        if collect && Party_id.equal p (Party_id.left 0) then
          {
            env with
            next_round =
              (fun () ->
                Gc.minor ();
                env.Engine.next_round ());
          }
        else env
      in
      Bsm_core.Bb_based.program setting ~pki ~input ~self:p env
    in
    let cfg =
      Engine.config ~k ~link:(Engine.Of_topology Bsm_topology.Topology.Fully_connected) ()
    in
    ignore (Engine.run cfg ~programs:(programs ~collect:false));
    Gc.full_major ();
    let before = (Gc.quick_stat ()).Gc.promoted_words in
    ignore (Engine.run cfg ~programs:(programs ~collect:true));
    let promoted = (Gc.quick_stat ()).Gc.promoted_words -. before in
    Alcotest.(check bool)
      (Printf.sprintf "promoted %.0f words <= 140000" promoted)
      true (promoted <= 140_000.)
  end

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "broadcast"
    [
      ( "adversary-structure",
        [
          Alcotest.test_case "threshold membership" `Quick test_possibly_corrupt_threshold;
          Alcotest.test_case "two-sided membership" `Quick test_possibly_corrupt_two_sided;
          Alcotest.test_case "q3 two-sided = Lemma 4 formula" `Quick
            test_q3_two_sided_matches_lemma4;
          Alcotest.test_case "q3 explicit agrees with two-sided" `Slow
            test_q3_explicit_agrees_with_two_sided;
          Alcotest.test_case "king sequence honest" `Quick test_king_sequence_not_corruptible;
          Alcotest.test_case "king sequence picks cheap side" `Quick
            test_king_sequence_picks_cheap_side;
        ] );
      ( "session",
        [
          Alcotest.test_case "routing matches the reference" `Quick
            test_session_routing_matches_reference;
          Alcotest.test_case "first per sender matches the table" `Quick
            test_first_per_sender_matches_reference;
          Alcotest.test_case "vote readers match the reference" `Quick
            test_vote_readers_match_reference;
          Alcotest.test_case "gradecast matches the reference" `Quick
            test_gradecast_matches_reference;
          Alcotest.test_case "dolev-strong skip matches the reference" `Quick
            test_dolev_strong_skip_matches_reference;
          Alcotest.test_case "dolev-strong session shares its lists" `Quick
            test_dolev_strong_session_promotes_little;
          Alcotest.test_case "phase-king step allocation" `Quick
            test_phase_king_step_allocation;
          Alcotest.test_case "session promotes no vote state" `Quick
            test_session_promotes_little;
        ] );
      ( "phase-king",
        [
          Alcotest.test_case "all honest validity" `Quick test_phase_king_all_honest_validity;
          Alcotest.test_case "agreement under byzantine" `Quick
            test_phase_king_agreement_under_byzantine;
          Alcotest.test_case "two-sided structure, one side fully byzantine" `Quick
            test_phase_king_two_sided_structure;
          Alcotest.test_case "round complexity = 3(t+1)" `Quick
            test_phase_king_round_complexity;
          Alcotest.test_case "explicit adversary structure" `Quick
            test_phase_king_explicit_structure;
          Alcotest.test_case "single participant" `Quick
            test_phase_king_single_participant;
          qcheck prop_phase_king_agreement_random;
          qcheck test_phase_king_unanimity_persistence;
        ] );
      ( "pi-ba",
        [
          Alcotest.test_case "no omissions: full BA" `Quick test_pi_ba_no_omissions_is_ba;
          Alcotest.test_case "omissions: weak agreement + termination" `Quick
            test_pi_ba_weak_agreement_under_omissions;
        ] );
      ( "pi-bb",
        [
          Alcotest.test_case "honest sender validity" `Quick test_pi_bb_honest_sender_validity;
          Alcotest.test_case "byzantine sender agreement" `Quick
            test_pi_bb_byzantine_sender_agreement;
          Alcotest.test_case "silent sender default" `Quick test_pi_bb_silent_sender_default;
          Alcotest.test_case "rounds formula" `Quick test_pi_bb_rounds_formula;
        ] );
      ( "gradecast",
        [
          Alcotest.test_case "honest sender: grade 2" `Quick
            test_gradecast_honest_sender_grade2;
          Alcotest.test_case "silent sender: grade 0" `Quick
            test_gradecast_silent_sender_grade0;
          Alcotest.test_case "equivocating sender: consistent" `Quick
            test_gradecast_equivocating_sender_consistent;
          qcheck prop_gradecast_consistency_random;
        ] );
      ( "dolev-strong",
        [
          Alcotest.test_case "honest sender, t=n-1" `Quick test_dolev_strong_honest_sender;
          Alcotest.test_case "equivocating sender + late helper" `Quick
            test_dolev_strong_equivocating_sender;
          Alcotest.test_case "forgery impossible" `Quick test_dolev_strong_forgery_impossible;
          Alcotest.test_case "silent sender" `Quick test_dolev_strong_silent_sender;
          Alcotest.test_case "truncated chain rejected" `Quick
            test_dolev_strong_truncated_chain_rejected;
        ] );
    ]
