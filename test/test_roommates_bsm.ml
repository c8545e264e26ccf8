(* Tests for byzantine stable roommates (the paper's future-work direction,
   implemented over Dolev-Strong): honest runs reproduce Irving's solution,
   unsolvable instances yield consistent abstention, and byzantine parties
   within the threshold cannot break any property. *)

open Bsm_prelude
module Core = Bsm_core
module Engine = Bsm_runtime.Engine
module B = Bsm_broadcast
module H = Bsm_harness
module Crypto = Bsm_crypto.Crypto
module Wire = Bsm_wire.Wire
module Topology = Bsm_topology.Topology

let run ~k ~t ~inputs ~byzantine =
  let pki = Crypto.Pki.setup ~k ~seed:11 in
  let programs p =
    match List.assoc_opt p byzantine with
    | Some program -> program
    | None -> Core.Roommates_bsm.program ~k ~t ~pki ~input:(inputs p) ~self:p
  in
  let cfg =
    Engine.config ~k ~link:(Engine.Of_topology Topology.Fully_connected)
      ~max_rounds:500 ()
  in
  let res = Engine.run cfg ~programs:(fun p -> programs p) in
  let byz = Party_set.of_list (List.map fst byzantine) in
  let decisions =
    List.filter_map
      (fun (r : Engine.party_result) ->
        if Party_set.mem r.Engine.id byz then None
        else
          Some
            ( r.Engine.id,
              match r.Engine.status, r.Engine.out with
              | Engine.Terminated, Some payload ->
                Some (Wire.decode_exn Core.Problem.decision_codec payload)
              | _ -> None ))
      res.Engine.parties
  in
  decisions, Core.Roommates_bsm.check ~k ~inputs ~byzantine:byz ~decisions

let check_clean what violations =
  match violations with
  | [] -> ()
  | vs ->
    Alcotest.failf "%s: %s" what
      (String.concat "; "
         (List.map (Format.asprintf "%a" Core.Roommates_bsm.pp_violation) vs))

let test_honest_solvable_matches_reference () =
  let k = 3 in
  let rng = Rng.make 1 in
  (* Find a solvable random instance. *)
  let rec find () =
    let inputs = Core.Roommates_bsm.random_inputs rng ~k in
    match Core.Roommates_bsm.solve_reference ~k ~inputs with
    | Some partner -> inputs, partner
    | None -> find ()
  in
  let inputs, partner = find () in
  let decisions, violations = run ~k ~t:0 ~inputs ~byzantine:[] in
  check_clean "honest solvable" violations;
  List.iter
    (fun (p, d) ->
      let expected = Party_id.of_dense ~k partner.(Party_id.to_dense ~k p) in
      match d with
      | Some (Some q) ->
        Alcotest.(check bool)
          (Party_id.to_string p ^ " matches reference")
          true (Party_id.equal q expected)
      | Some None | None -> Alcotest.fail "expected a match")
    decisions

let test_honest_unsolvable_consistent_abstention () =
  let k = 2 in
  (* The classic unsolvable 4-person instance, in dense indices: persons
     0,1,2 form a cyclic preference and all rank person 3 last. *)
  let lists = [| [ 1; 2; 3 ]; [ 2; 0; 3 ]; [ 0; 1; 3 ]; [ 0; 1; 2 ] |] in
  let inputs p = lists.(Party_id.to_dense ~k p) in
  Alcotest.(check bool) "reference unsolvable" true
    (Core.Roommates_bsm.solve_reference ~k ~inputs = None);
  let decisions, violations = run ~k ~t:0 ~inputs ~byzantine:[] in
  check_clean "honest unsolvable" violations;
  List.iter
    (fun (_, d) ->
      Alcotest.(check bool) "abstained" true (d = Some None))
    decisions

let test_byzantine_cannot_break_properties () =
  let k = 3 in
  let n = 2 * k in
  let rng = Rng.make 5 in
  for trial = 1 to 15 do
    let inputs = Core.Roommates_bsm.random_inputs rng ~k in
    let bad = Rng.sample rng 2 (Party_id.all ~k) in
    let strategy i p =
      if i mod 2 = 0 then H.Adversaries.silent
      else
        H.Adversaries.flood ~seed:(trial * 10 + Party_id.hash p) ~rounds:20 ~burst:5
          ~targets:(Party_id.all ~k)
    in
    let byzantine = List.mapi (fun i p -> p, strategy i p) bad in
    let _, violations = run ~k ~t:2 ~inputs ~byzantine in
    check_clean (Printf.sprintf "byzantine trial %d" trial) violations
  done;
  ignore n

let test_garbage_prefs_become_default () =
  (* A byzantine party broadcasting a malformed list: honest parties must
     still produce a consistent outcome (the default list is substituted
     identically everywhere thanks to BB agreement). *)
  let k = 2 in
  let rng = Rng.make 9 in
  let inputs = Core.Roommates_bsm.random_inputs rng ~k in
  let liar_id = Party_id.right 1 in
  let liar (env : Engine.env) =
    (* Broadcast a syntactically-valid but semantically-invalid list (too
       short) via a real Dolev-Strong chain, so every honest party decodes
       and must reject it. *)
    let pki = Crypto.Pki.setup ~k ~seed:11 in
    let signer = Crypto.Pki.signer pki liar_id in
    let bytes = Wire.encode (Wire.list Wire.uint) [ 0 ] in
    let chain = B.Dolev_strong.Chain.start signer bytes in
    let payload =
      B.Session.wrap (Party_id.to_string liar_id)
        (Wire.encode B.Dolev_strong.Chain.codec chain)
    in
    List.iter
      (fun p -> if not (Party_id.equal p liar_id) then env.Engine.send p payload)
      (Party_id.all ~k);
    ignore (env.Engine.next_round ())
  in
  let _, violations = run ~k ~t:1 ~inputs ~byzantine:[ liar_id, liar ] in
  check_clean "garbage prefs" violations

let test_validate_and_defaults () =
  let n = 6 in
  Alcotest.(check bool) "default valid" true
    (Core.Roommates_bsm.validate ~n ~self_dense:2
       (Core.Roommates_bsm.default_prefs ~n ~self_dense:2));
  Alcotest.(check bool) "self in list invalid" false
    (Core.Roommates_bsm.validate ~n ~self_dense:2 [ 0; 1; 2; 3; 4 ]);
  Alcotest.(check bool) "short list invalid" false
    (Core.Roommates_bsm.validate ~n ~self_dense:2 [ 0; 1 ])

let () =
  Alcotest.run "roommates_bsm"
    [
      ( "byzantine-stable-roommates",
        [
          Alcotest.test_case "honest solvable run matches Irving" `Quick
            test_honest_solvable_matches_reference;
          Alcotest.test_case "unsolvable: consistent abstention" `Quick
            test_honest_unsolvable_consistent_abstention;
          Alcotest.test_case "byzantine within threshold" `Quick
            test_byzantine_cannot_break_properties;
          Alcotest.test_case "garbage prefs become default" `Quick
            test_garbage_prefs_become_default;
          Alcotest.test_case "validation" `Quick test_validate_and_defaults;
        ] );
    ]
