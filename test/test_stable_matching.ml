(* Tests for the classic stable-matching substrate: Gale–Shapley and its
   optimality/truthfulness properties, the stable-matching lattice, and
   Irving's stable-roommates algorithm — each cross-checked against
   factorial-time brute force on small instances. *)

open Bsm_prelude
module SM = Bsm_stable_matching

let prefs = Alcotest.testable SM.Prefs.pp SM.Prefs.equal
let matching = Alcotest.testable SM.Matching.pp SM.Matching.equal

(* --- Prefs -------------------------------------------------------------- *)

let test_prefs_basics () =
  let p = SM.Prefs.of_list_exn [ 2; 0; 1 ] in
  Alcotest.(check int) "favorite" 2 (SM.Prefs.favorite p);
  Alcotest.(check int) "rank of 1" 2 (SM.Prefs.rank p 1);
  Alcotest.(check int) "at 1" 0 (SM.Prefs.at p 1);
  Alcotest.(check bool) "prefers 2 over 0" true (SM.Prefs.prefers p 2 0);
  Alcotest.(check bool) "not prefers 1 over 0" false (SM.Prefs.prefers p 1 0)

let test_prefs_rejects_non_permutation () =
  let is_error l = Result.is_error (SM.Prefs.of_list l) in
  Alcotest.(check bool) "duplicate" true (is_error [ 0; 0; 1 ]);
  Alcotest.(check bool) "out of range" true (is_error [ 0; 3; 1 ]);
  Alcotest.(check bool) "negative" true (is_error [ 0; -1; 1 ]);
  Alcotest.(check bool) "valid" false (is_error [ 1; 0; 2 ])

let test_prefs_codec_roundtrip () =
  let rng = Rng.make 7 in
  for _ = 1 to 50 do
    let p = SM.Prefs.random rng 9 in
    let bytes = Bsm_wire.Wire.encode SM.Prefs.codec p in
    match Bsm_wire.Wire.decode SM.Prefs.codec bytes with
    | Ok p' -> Alcotest.check prefs "roundtrip" p p'
    | Error e -> Alcotest.fail e
  done

let test_prefs_codec_rejects_malformed () =
  (* A non-permutation list is a structurally valid encoding but must be
     rejected semantically — this is how honest parties sanitize byzantine
     preference lists. *)
  let bad = Bsm_wire.Wire.encode (Bsm_wire.Wire.list Bsm_wire.Wire.uint) [ 0; 0; 1 ] in
  Alcotest.(check bool) "rejected" true
    (Result.is_error (Bsm_wire.Wire.decode SM.Prefs.codec bad))

let test_prefs_similar_is_permutation () =
  let rng = Rng.make 11 in
  for _ = 1 to 30 do
    let base = SM.Prefs.random rng 8 in
    let p = SM.Prefs.similar rng ~swaps:5 base in
    Alcotest.(check bool) "valid permutation" true
      (Util.is_permutation (SM.Prefs.to_list p) ~n:8)
  done

let test_prefs_lookups_and_order () =
  (* Each list is one packed block: lookups, the list view, equality and
     ordering must all read as the plain order array they encode — the
     ordering being the polymorphic compare of those arrays (shorter
     first, then rank by rank). *)
  let rng = Rng.make 5 in
  let sign c = Int.compare c 0 in
  let draw () =
    let k = 1 + Rng.int rng 12 in
    SM.Prefs.random rng k
  in
  for _ = 1 to 300 do
    let a = draw () in
    let b = if Rng.int rng 4 = 0 then SM.Prefs.of_list_exn (SM.Prefs.to_list a) else draw () in
    let order p = Array.of_list (SM.Prefs.to_list p) in
    Array.iteri
      (fun r c ->
        Alcotest.(check int) "at" c (SM.Prefs.at a r);
        Alcotest.(check int) "rank" r (SM.Prefs.rank a c))
      (order a);
    Alcotest.(check int) "compare" (sign (Stdlib.compare (order a) (order b)))
      (sign (SM.Prefs.compare a b));
    Alcotest.(check bool) "equal" (order a = order b) (SM.Prefs.equal a b)
  done

(* --- Gale–Shapley ------------------------------------------------------- *)

let test_gs_textbook_instance () =
  (* Gale & Shapley's original 3x3 example structure: check output is the
     known left-optimal matching. *)
  let profile =
    SM.Profile.make_exn
      ~left:
        [|
          SM.Prefs.of_list_exn [ 0; 1; 2 ];
          SM.Prefs.of_list_exn [ 1; 2; 0 ];
          SM.Prefs.of_list_exn [ 2; 0; 1 ];
        |]
      ~right:
        [|
          SM.Prefs.of_list_exn [ 1; 2; 0 ];
          SM.Prefs.of_list_exn [ 2; 0; 1 ];
          SM.Prefs.of_list_exn [ 0; 1; 2 ];
        |]
  in
  (* Every left party gets its favorite: favorites are distinct. *)
  let m = SM.Gale_shapley.run profile in
  Alcotest.check matching "left-optimal"
    (SM.Matching.of_l2r_exn [| 0; 1; 2 |])
    m;
  Alcotest.(check bool) "stable" true (SM.Verify.is_stable profile m)

let test_gs_worst_case_proposals () =
  let k = 10 in
  let profile = SM.Profile.worst_case k in
  let m, stats = SM.Gale_shapley.run_with_stats profile in
  Alcotest.(check bool) "stable" true (SM.Verify.is_stable profile m);
  Alcotest.(check int) "k(k+1)/2 proposals" (k * (k + 1) / 2) stats.proposals

let test_gs_deterministic () =
  let rng = Rng.make 3 in
  let profile = SM.Profile.random rng 12 in
  let m1 = SM.Gale_shapley.run profile in
  let m2 = SM.Gale_shapley.run profile in
  Alcotest.check matching "same output" m1 m2

let test_gs_right_proposing_stable () =
  let rng = Rng.make 5 in
  for _ = 1 to 20 do
    let profile = SM.Profile.random rng 8 in
    let m = SM.Gale_shapley.run ~proposers:Side.Right profile in
    Alcotest.(check bool) "stable" true (SM.Verify.is_stable profile m)
  done

let test_gs_proposer_optimal_acceptor_pessimal () =
  (* Left-proposing GS must give every left party its best stable partner
     and every right party its worst stable partner (checked against the
     full lattice). *)
  let rng = Rng.make 17 in
  for _ = 1 to 25 do
    let profile = SM.Profile.random rng 6 in
    let m = SM.Gale_shapley.run profile in
    let all = SM.Lattice.all_stable_brute profile in
    let lp = SM.Profile.left profile in
    let rp = SM.Profile.right profile in
    List.iter
      (fun m' ->
        for i = 0 to 5 do
          let mine = SM.Matching.partner_of_left m i in
          let other = SM.Matching.partner_of_left m' i in
          Alcotest.(check bool) "left no better stable partner" false
            (SM.Prefs.prefers lp.(i) other mine)
        done;
        for j = 0 to 5 do
          let mine = SM.Matching.partner_of_right m j in
          let other = SM.Matching.partner_of_right m' j in
          Alcotest.(check bool) "right no worse stable partner" false
            (SM.Prefs.prefers rp.(j) mine other)
        done)
      all
  done

let qcheck_profile k =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "profile seed %d" seed)
    QCheck.Gen.(int_bound 1_000_000)
  |> fun arb -> arb, fun seed -> SM.Profile.random (Rng.make seed) k

let prop_gs_always_stable =
  let arb, profile_of = qcheck_profile 15 in
  QCheck.Test.make ~name:"gale-shapley output is always stable" ~count:200 arb
    (fun seed ->
      let profile = profile_of seed in
      SM.Verify.is_stable profile (SM.Gale_shapley.run profile))

let prop_gs_right_stable =
  let arb, profile_of = qcheck_profile 11 in
  QCheck.Test.make ~name:"right-proposing output is always stable" ~count:200 arb
    (fun seed ->
      let profile = profile_of seed in
      SM.Verify.is_stable profile (SM.Gale_shapley.run ~proposers:Side.Right profile))

let prop_similar_profiles_stable =
  let arb = QCheck.make QCheck.Gen.(int_bound 1_000_000) in
  QCheck.Test.make ~name:"similar-preferences workload is handled" ~count:100 arb
    (fun seed ->
      let profile = SM.Profile.similar (Rng.make seed) ~swaps:4 10 in
      SM.Verify.is_stable profile (SM.Gale_shapley.run profile))

(* --- Verify ------------------------------------------------------------- *)

let test_blocking_pair_detection () =
  (* Two couples who each prefer the other's partner: swap is forced. *)
  let profile =
    SM.Profile.make_exn
      ~left:
        [| SM.Prefs.of_list_exn [ 1; 0 ]; SM.Prefs.of_list_exn [ 0; 1 ] |]
      ~right:
        [| SM.Prefs.of_list_exn [ 1; 0 ]; SM.Prefs.of_list_exn [ 0; 1 ] |]
  in
  let bad = SM.Matching.of_l2r_exn [| 0; 1 |] in
  Alcotest.(check bool) "unstable" false (SM.Verify.is_stable profile bad);
  Alcotest.(check int) "two blocking pairs" 2 (SM.Verify.instability profile bad);
  let good = SM.Matching.of_l2r_exn [| 1; 0 |] in
  Alcotest.(check bool) "stable" true (SM.Verify.is_stable profile good)

let test_partial_unmatched_mutually_acceptable_blocks () =
  (* Paper convention: two single parties on opposite sides always block. *)
  let profile = SM.Profile.worst_case 2 in
  let pairs =
    SM.Verify.blocking_pairs_partial profile
      ~left_partner:(fun _ -> None)
      ~right_partner:(fun _ -> None)
      ~consider_left:(fun l -> l = 0)
      ~consider_right:(fun r -> r = 0)
  in
  Alcotest.(check int) "singles block" 1 (List.length pairs)

let test_partial_respects_consider_filters () =
  let profile = SM.Profile.worst_case 2 in
  let pairs =
    SM.Verify.blocking_pairs_partial profile
      ~left_partner:(fun _ -> None)
      ~right_partner:(fun _ -> None)
      ~consider_left:(fun _ -> false)
      ~consider_right:(fun _ -> true)
  in
  Alcotest.(check int) "byzantine left ignored" 0 (List.length pairs)

(* A random perfect matching — typically unstable, exercising the
   counting paths on inputs with many blocking pairs. *)
let random_matching rng k =
  SM.Matching.of_l2r_exn (Array.of_list (Rng.permutation rng k))

(* The early-exit/allocation-free fast paths must agree with the
   list-building reference scan on both stable (GS) and arbitrary
   matchings. *)
let prop_fast_paths_match_reference =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000) in
  QCheck.Test.make ~name:"is_stable/instability match blocking_pairs" ~count:150
    arb (fun seed ->
      let rng = Rng.make seed in
      let k = 2 + Rng.int rng 11 in
      let profile = SM.Profile.random rng k in
      List.for_all
        (fun m ->
          let reference = SM.Verify.blocking_pairs profile m in
          SM.Verify.is_stable profile m = (reference = [])
          && SM.Verify.instability profile m = List.length reference)
        [ SM.Gale_shapley.run profile; random_matching rng k ])

let prop_eps_zero_matches_is_stable =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000) in
  QCheck.Test.make ~name:"is_eps_stable ~eps:0. agrees with is_stable"
    ~count:150 arb (fun seed ->
      let rng = Rng.make seed in
      let k = 2 + Rng.int rng 11 in
      let profile = SM.Profile.random rng k in
      List.for_all
        (fun m ->
          SM.Verify.is_eps_stable ~eps:0. profile m = SM.Verify.is_stable profile m)
        [ SM.Gale_shapley.run profile; random_matching rng k ])

let test_eps_budget_semantics () =
  let rng = Rng.make 0xE9 in
  let checked = ref 0 in
  for _ = 1 to 40 do
    let k = 3 + Rng.int rng 8 in
    let profile = SM.Profile.random rng k in
    let m = random_matching rng k in
    let c = SM.Verify.instability profile m in
    let k2 = float_of_int (k * k) in
    Alcotest.(check bool) "eps = 1 always accepts" true
      (SM.Verify.is_eps_stable ~eps:1.0 profile m);
    (* Budget at the exact count accepts ([+1] absorbs float rounding),
       half the count rejects. *)
    Alcotest.(check bool) "sufficient budget accepts" true
      (SM.Verify.is_eps_stable ~eps:(float_of_int (c + 1) /. k2) profile m);
    if c >= 2 then begin
      incr checked;
      Alcotest.(check bool) "insufficient budget rejects" false
        (SM.Verify.is_eps_stable ~eps:(float_of_int c /. 2. /. k2) profile m)
    end
  done;
  Alcotest.(check bool) "rejection branch exercised" true (!checked > 10);
  match SM.Verify.is_eps_stable ~eps:(-0.1) (SM.Profile.worst_case 2)
          (SM.Matching.of_l2r_exn [| 0; 1 |])
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative eps accepted"

(* Disjoint row ranges partition the blocking pairs: the sharded counts
   must sum to [instability], whatever the split. *)
let test_shard_partition () =
  let rng = Rng.make 0x5A in
  for _ = 1 to 30 do
    let k = 4 + Rng.int rng 9 in
    let profile = SM.Profile.random rng k in
    let m = random_matching rng k in
    let v = SM.Verify.view_of_matching profile m in
    let total = SM.Verify.instability profile m in
    List.iter
      (fun shards ->
        let counts =
          List.init shards (fun s ->
              SM.Verify.count_blocking_rows v ~lo:(s * k / shards)
                ~hi:((s + 1) * k / shards))
        in
        Alcotest.(check int) "shards sum to total" total
          (List.fold_left ( + ) 0 counts))
      [ 1; 2; 3; 8; k; 2 * k ];
    Alcotest.(check bool) "exists agrees" (total > 0)
      (SM.Verify.exists_blocking v)
  done

(* --- Gale-Shapley free-proposer counter -------------------------------- *)

(* The pre-counter algorithm, verbatim (round termination by rescanning
   [matched] with [Array.exists]): the production path maintains a free
   counter instead and must stay bit-identical, matchings and stats. *)
let reference_run_oriented proposer_prefs acceptor_prefs =
  let k = Array.length proposer_prefs in
  let next_rank = Array.make k 0 in
  let held = Array.make k (-1) in
  let matched = Array.make k false in
  let proposals = ref 0 in
  let rounds = ref 0 in
  let someone_free () = Array.exists not matched in
  while someone_free () do
    incr rounds;
    let proposals_now = ref [] in
    for p = 0 to k - 1 do
      if not matched.(p) then begin
        let a = SM.Prefs.at proposer_prefs.(p) next_rank.(p) in
        next_rank.(p) <- next_rank.(p) + 1;
        incr proposals;
        proposals_now := (p, a) :: !proposals_now
      end
    done;
    let consider (p, a) =
      let current = held.(a) in
      if current = -1 then begin
        held.(a) <- p;
        matched.(p) <- true
      end
      else if SM.Prefs.prefers acceptor_prefs.(a) p current then begin
        matched.(current) <- false;
        held.(a) <- p;
        matched.(p) <- true
      end
    in
    List.iter consider (List.rev !proposals_now)
  done;
  let proposer_to_acceptor = Array.make k (-1) in
  Array.iteri (fun a p -> proposer_to_acceptor.(p) <- a) held;
  proposer_to_acceptor, (!proposals, !rounds)

let test_gs_free_counter_matches_reference () =
  let check_profile profile =
    List.iter
      (fun proposers ->
        let m, stats = SM.Gale_shapley.run_with_stats ~proposers profile in
        let proposer_prefs, acceptor_prefs =
          match proposers with
          | Side.Left -> SM.Profile.left profile, SM.Profile.right profile
          | Side.Right -> SM.Profile.right profile, SM.Profile.left profile
        in
        let p2a, (proposals, rounds) =
          reference_run_oriented proposer_prefs acceptor_prefs
        in
        let k = Array.length p2a in
        let l2r =
          match proposers with
          | Side.Left -> p2a
          | Side.Right ->
            let l2r = Array.make k (-1) in
            Array.iteri (fun r l -> l2r.(l) <- r) p2a;
            l2r
        in
        Alcotest.check matching "matching identical"
          (SM.Matching.of_l2r_exn l2r) m;
        Alcotest.(check (pair int int))
          "stats identical" (proposals, rounds)
          (stats.SM.Gale_shapley.proposals, stats.SM.Gale_shapley.rounds))
      [ Side.Left; Side.Right ]
  in
  let rng = Rng.make 0xF5EE in
  for _ = 1 to 40 do
    check_profile (SM.Profile.random rng (2 + Rng.int rng 14))
  done;
  for _ = 1 to 10 do
    check_profile (SM.Profile.similar rng ~swaps:4 10)
  done;
  check_profile (SM.Profile.worst_case 12)

(* --- Flat (implicit profiles) ------------------------------------------- *)

let test_flat_perm_is_bijection () =
  List.iter
    (fun k ->
      let f = SM.Flat.make ~family:SM.Flat.Uniform ~seed:0x1DE ~k in
      List.iter
        (fun (order, rank) ->
          for who = 0 to min 2 (k - 1) do
            let order_who = order f who and rank_who = rank f who in
            let seen = Array.make k false in
            for r = 0 to k - 1 do
              let c = order_who r in
              Alcotest.(check bool) "in range" true (c >= 0 && c < k);
              Alcotest.(check bool) "not seen" false seen.(c);
              seen.(c) <- true;
              Alcotest.(check int) "rank inverts order" r (rank_who c)
            done
          done)
        [ SM.Flat.left_order, SM.Flat.left_rank;
          SM.Flat.right_order, SM.Flat.right_rank ])
    [ 1; 2; 3; 7; 16; 33; 100 ]

let prop_flat_gs_matches_explicit =
  let arb = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000) in
  QCheck.Test.make ~name:"flat GS bit-identical to explicit GS" ~count:60 arb
    (fun seed ->
      let rng = Rng.make seed in
      let k = 1 + Rng.int rng 30 in
      let family =
        if Rng.bool rng then SM.Flat.Uniform else SM.Flat.Common_acceptors
      in
      let f = SM.Flat.make ~family ~seed ~k in
      let l2r, stats = SM.Flat.gale_shapley f in
      let m, stats' = SM.Gale_shapley.run_with_stats (SM.Flat.to_profile f) in
      l2r = Array.init k (SM.Matching.partner_of_left m) && stats = stats')

let test_flat_verify_view_matches_explicit () =
  let rng = Rng.make 0xF1A7 in
  for _ = 1 to 25 do
    let k = 2 + Rng.int rng 12 in
    let family =
      if Rng.bool rng then SM.Flat.Uniform else SM.Flat.Common_acceptors
    in
    let f = SM.Flat.make ~family ~seed:(Rng.int rng 1_000_000) ~k in
    let profile = SM.Flat.to_profile f in
    let m = random_matching rng k in
    let l2r = Array.init k (SM.Matching.partner_of_left m) in
    Alcotest.(check int) "view count = explicit instability"
      (SM.Verify.instability profile m)
      (SM.Verify.count_blocking (SM.Flat.verify_view f ~l2r))
  done

let test_flat_deterministic () =
  let mk () =
    SM.Flat.gale_shapley (SM.Flat.make ~family:SM.Flat.Uniform ~seed:77 ~k:500)
  in
  let l2r_a, stats_a = mk () in
  let l2r_b, stats_b = mk () in
  Alcotest.(check bool) "same matching" true (l2r_a = l2r_b);
  Alcotest.(check bool) "same stats" true (stats_a = stats_b);
  (* And the output is in fact stable, checked on the implicit view. *)
  Alcotest.(check int) "stable" 0
    (SM.Verify.count_blocking
       (SM.Flat.verify_view
          (SM.Flat.make ~family:SM.Flat.Uniform ~seed:77 ~k:500)
          ~l2r:l2r_a))

(* Literals computed by the permutation-per-probe implementation this
   one replaced: probes, matchings and counts must stay bit-identical.
   Rows are (family, k, party, x, (left_order, left_rank, right_order,
   right_rank) of party at x), all at seed 0x5EED. *)
let flat_pinned_probes =
  SM.Flat.
    [
      Uniform, 1, 0, 0, (0, 0, 0, 0);
      Uniform, 2, 0, 0, (0, 0, 0, 0);
      Uniform, 2, 1, 1, (0, 0, 1, 1);
      Uniform, 3, 1, 0, (1, 1, 0, 0);
      Uniform, 3, 2, 1, (2, 0, 1, 1);
      Uniform, 64, 21, 0, (13, 57, 39, 54);
      Uniform, 64, 63, 32, (61, 20, 7, 54);
      Uniform, 1000, 333, 0, (996, 888, 614, 932);
      Uniform, 1000, 999, 500, (290, 953, 71, 122);
      Uniform, 4096, 1365, 0, (2051, 1085, 3985, 1658);
      Uniform, 4096, 4095, 2048, (2447, 76, 555, 1709);
      Common_acceptors, 1, 0, 0, (0, 0, 0, 0);
      Common_acceptors, 2, 0, 0, (0, 0, 0, 0);
      Common_acceptors, 2, 1, 1, (0, 0, 1, 1);
      Common_acceptors, 3, 1, 0, (1, 1, 0, 0);
      Common_acceptors, 3, 2, 1, (2, 0, 2, 2);
      Common_acceptors, 64, 21, 0, (13, 57, 52, 11);
      Common_acceptors, 64, 63, 32, (61, 20, 9, 57);
      Common_acceptors, 1000, 333, 0, (996, 888, 576, 29);
      Common_acceptors, 1000, 999, 500, (290, 953, 200, 948);
      Common_acceptors, 4096, 1365, 0, (2051, 1085, 1579, 345);
      Common_acceptors, 4096, 4095, 2048, (2447, 76, 2429, 4012);
    ]

let test_flat_pinned_probes () =
  List.iter
    (fun (family, k, who, x, expected) ->
      let f = SM.Flat.make ~family ~seed:0x5EED ~k in
      let got =
        ( SM.Flat.left_order f who x,
          SM.Flat.left_rank f who x,
          SM.Flat.right_order f who x,
          SM.Flat.right_rank f who x )
      in
      Alcotest.(check (pair (pair int int) (pair int int)))
        (Printf.sprintf "%s k=%d party %d at %d"
           (SM.Flat.family_to_string family) k who x)
        (let a, b, c, d = expected in (a, b), (c, d))
        (let a, b, c, d = got in (a, b), (c, d)))
    flat_pinned_probes

(* (family, k, (proposals, rounds)) of GS at seed 1. *)
let flat_pinned_gs =
  SM.Flat.
    [
      Uniform, 64, (255, 43);
      Uniform, 1000, (9078, 2480);
      Uniform, 4096, (36596, 5375);
      Common_acceptors, 64, (304, 54);
      Common_acceptors, 1000, (6310, 772);
      Common_acceptors, 4096, (28722, 1722);
    ]

let test_flat_pinned_gs () =
  List.iter
    (fun (family, k, (proposals, rounds)) ->
      let f = SM.Flat.make ~family ~seed:1 ~k in
      let _, stats = SM.Flat.gale_shapley f in
      let name = Printf.sprintf "%s k=%d" (SM.Flat.family_to_string family) k in
      Alcotest.(check int) (name ^ " proposals") proposals stats.proposals;
      Alcotest.(check int) (name ^ " rounds") rounds stats.rounds)
    flat_pinned_gs

let test_flat_rejects_out_of_range () =
  List.iter
    (fun family ->
      let f = SM.Flat.make ~family ~seed:3 ~k:10 in
      List.iter
        (fun (name, probe, who, x) ->
          match probe f who x with
          | v ->
            Alcotest.failf "%s %s %d %d: expected Invalid_argument, got %d"
              (SM.Flat.family_to_string family) name who x v
          | exception Invalid_argument _ -> ())
        [
          "left_order", SM.Flat.left_order, 99, 0;
          "left_order", SM.Flat.left_order, 0, 10;
          "left_rank", SM.Flat.left_rank, -1, 2;
          "left_rank", SM.Flat.left_rank, 2, -1;
          "right_order", SM.Flat.right_order, 10, 0;
          "right_order", SM.Flat.right_order, 0, 99;
          "right_rank", SM.Flat.right_rank, -3, 2;
          "right_rank", SM.Flat.right_rank, 2, 10;
        ])
    [ SM.Flat.Uniform; SM.Flat.Common_acceptors ]

(* [solve] is [gale_shapley], the scan of [verify_view] and
   [fingerprint] in one pass over a reused slab; sizes up and down (and
   past the retain limit) must not leak state between calls. *)
let test_flat_solve_matches_parts () =
  let check family seed k =
    let f = SM.Flat.make ~family ~seed ~k in
    let l2r, stats = SM.Flat.gale_shapley f in
    let s = SM.Flat.solve f ~salt:0x5E27EL in
    let name = Printf.sprintf "%s k=%d" (SM.Flat.family_to_string family) k in
    Alcotest.(check bool) (name ^ " stats") true (s.stats = stats);
    Alcotest.(check bool) (name ^ " stable") true s.stable;
    Alcotest.(check bool) (name ^ " scan agrees") false
      (SM.Verify.exists_blocking (SM.Flat.verify_view f ~l2r));
    Alcotest.(check int64) (name ^ " fingerprint")
      (Array.fold_left Rng.mix64_absorb (Rng.mix64 0x5E27EL) l2r)
      s.fingerprint;
    Alcotest.(check int64) (name ^ " fingerprint fold")
      s.fingerprint
      (SM.Flat.fingerprint ~salt:0x5E27EL l2r)
  in
  List.iter
    (fun (family, seed, k) -> check family seed k)
    SM.Flat.
      [
        Uniform, 1, 100; Common_acceptors, 2, 37; Uniform, 3, 1;
        Uniform, 4, 513; Common_acceptors, 5, 100; Uniform, 6, 70_000;
        Uniform, 7, 64;
      ]

let test_flat_probes_allocate_nothing () =
  if Sys.backend_type = Sys.Native then begin
    let f = SM.Flat.make ~family:SM.Flat.Common_acceptors ~seed:11 ~k:4096 in
    let words n =
      let acc = ref 0 in
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        let a = i land 4095 and b = (i * 7) land 4095 in
        acc :=
          !acc + SM.Flat.left_order f a b + SM.Flat.left_rank f b a
          + SM.Flat.right_order f a b + SM.Flat.right_rank f b a
      done;
      let w = Gc.minor_words () -. w0 in
      ignore (Sys.opaque_identity !acc);
      w
    in
    let small = words 10_000 and large = words 100_000 in
    Alcotest.(check (float 0.)) "10x the probes, same words" small large;
    Alcotest.(check bool)
      (Printf.sprintf "constant overhead (%.0f words)" large)
      true (large <= 16.)
  end

(* A view promises that concurrent scans of it are safe: each scan makes
   its own row cursor, and the partner-rank memo they share is only ever
   written with the value already due there. Two domains scan disjoint
   halves of the same fresh views at once (racing on the memo of every
   right party both halves reach); every shard count must equal the
   sequential one, and the halves must sum to [count_blocking]. *)
let test_flat_concurrent_scans () =
  let k = 1024 and reps = 60 in
  List.iter
    (fun family ->
      let f = SM.Flat.make ~family ~seed:0xC0C ~k in
      let gs, _ = SM.Flat.gale_shapley f in
      (* Rotate the partners of every 32nd left party, over both
         halves, so each half holds blocking pairs. *)
      let l2r = Array.copy gs and moved = k / 32 in
      for i = 0 to moved - 1 do
        l2r.(32 * i) <- gs.(32 * ((i + 1) mod moved))
      done;
      let half = k / 2 in
      let shard ~lo ~hi =
        SM.Verify.count_blocking_rows (SM.Flat.verify_view f ~l2r) ~lo ~hi
      in
      let lo_count = shard ~lo:0 ~hi:half and hi_count = shard ~lo:half ~hi:k in
      let name = SM.Flat.family_to_string family in
      Alcotest.(check int) (name ^ " halves sum to the total")
        (SM.Verify.count_blocking (SM.Flat.verify_view f ~l2r))
        (lo_count + hi_count);
      Alcotest.(check bool) (name ^ " both halves block") true
        (lo_count > 0 && hi_count > 0);
      let views = Array.init reps (fun _ -> SM.Flat.verify_view f ~l2r) in
      let ready = Atomic.make 0 in
      let scan ~lo ~hi =
        Atomic.incr ready;
        while Atomic.get ready < 2 do Domain.cpu_relax () done;
        Array.map (fun v -> SM.Verify.count_blocking_rows v ~lo ~hi) views
      in
      let other = Domain.spawn (fun () -> scan ~lo:half ~hi:k) in
      let lows = scan ~lo:0 ~hi:half in
      let highs = Domain.join other in
      Array.iter (Alcotest.(check int) (name ^ " low shard") lo_count) lows;
      Array.iter (Alcotest.(check int) (name ^ " high shard") hi_count) highs)
    [ SM.Flat.Uniform; SM.Flat.Common_acceptors ]

(* A scan makes one row cursor, whatever the number of rows: the words
   it allocates do not grow with k. *)
let test_flat_scan_allocates_one_cursor () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun family ->
        let words k =
          let f = SM.Flat.make ~family ~seed:5 ~k in
          let l2r, _ = SM.Flat.gale_shapley f in
          let v = SM.Flat.verify_view f ~l2r in
          let w0 = Gc.minor_words () in
          let count = SM.Verify.count_blocking v in
          let w = Gc.minor_words () -. w0 in
          Alcotest.(check int) "GS output is stable" 0 count;
          w
        in
        let small = words 64 and large = words 65_536 in
        let name = SM.Flat.family_to_string family in
        Alcotest.(check (float 0.)) (name ^ ": 1024x the rows, same words") small large;
        Alcotest.(check bool)
          (Printf.sprintf "%s: one cursor (%.0f words)" name large)
          true (large <= 64.))
      [ SM.Flat.Uniform; SM.Flat.Common_acceptors ]

(* --- Lattice ------------------------------------------------------------ *)

let test_lattice_meet_join_stable () =
  let rng = Rng.make 23 in
  for _ = 1 to 30 do
    let profile = SM.Profile.random rng 6 in
    let all = SM.Lattice.all_stable_brute profile in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            Alcotest.(check bool) "meet stable" true
              (SM.Verify.is_stable profile (SM.Lattice.meet profile a b));
            Alcotest.(check bool) "join stable" true
              (SM.Verify.is_stable profile (SM.Lattice.join profile a b)))
          all)
      all
  done

let test_all_stable_matches_brute_force () =
  let rng = Rng.make 29 in
  for _ = 1 to 60 do
    let profile = SM.Profile.random rng 6 in
    let fast = List.sort SM.Matching.compare (SM.Lattice.all_stable profile) in
    let brute = List.sort SM.Matching.compare (SM.Lattice.all_stable_brute profile) in
    Alcotest.(check (list matching)) "same set" brute fast
  done

let test_all_stable_contains_both_optima () =
  let rng = Rng.make 31 in
  let profile = SM.Profile.random rng 7 in
  let all = SM.Lattice.all_stable profile in
  let mem m = List.exists (SM.Matching.equal m) all in
  Alcotest.(check bool) "left-optimal present" true
    (mem (SM.Gale_shapley.run ~proposers:Side.Left profile));
  Alcotest.(check bool) "right-optimal present" true
    (mem (SM.Gale_shapley.run ~proposers:Side.Right profile))

let test_egalitarian_minimizes () =
  let rng = Rng.make 37 in
  for _ = 1 to 20 do
    let profile = SM.Profile.random rng 6 in
    let e = SM.Lattice.egalitarian profile in
    let cost = SM.Lattice.egalitarian_cost profile e in
    List.iter
      (fun m ->
        Alcotest.(check bool) "no cheaper stable matching" true
          (cost <= SM.Lattice.egalitarian_cost profile m))
      (SM.Lattice.all_stable_brute profile);
    Alcotest.(check bool) "egalitarian is stable" true
      (SM.Verify.is_stable profile e)
  done

let test_minimum_regret_minimizes () =
  let rng = Rng.make 41 in
  for _ = 1 to 20 do
    let profile = SM.Profile.random rng 6 in
    let e = SM.Lattice.minimum_regret profile in
    let r = SM.Lattice.regret profile e in
    List.iter
      (fun m ->
        Alcotest.(check bool) "no lower-regret stable matching" true
          (r <= SM.Lattice.regret profile m))
      (SM.Lattice.all_stable_brute profile)
  done

let test_worst_case_has_unique_stable_matching () =
  (* With identical lists on both sides the lattice collapses. *)
  let profile = SM.Profile.worst_case 5 in
  Alcotest.(check int) "singleton lattice" 1
    (List.length (SM.Lattice.all_stable profile))

(* --- Truthfulness ------------------------------------------------------- *)

let test_roth_instance_manipulation () =
  let profile, m = SM.Truthfulness.roth_instance () in
  let truth = SM.Profile.prefs profile m.manipulator in
  Alcotest.(check bool) "lying strictly improves" true
    (SM.Prefs.prefers truth m.lying_partner m.honest_partner);
  Alcotest.(check bool) "manipulator is an acceptor" true
    (Side.equal (Party_id.side m.manipulator) Side.Right)

let test_proposers_cannot_gain () =
  (* Dubins–Freedman/Roth: the proposing side is truthful in GS. Exhaustive
     over all k! lies for each left party, on random small instances. *)
  let rng = Rng.make 43 in
  for _ = 1 to 15 do
    let profile = SM.Profile.random rng 4 in
    Alcotest.(check bool) "no profitable lie for proposers" false
      (SM.Truthfulness.proposer_can_gain profile)
  done

(* --- Roommates ---------------------------------------------------------- *)

let test_roommates_mutual_favorites () =
  (* Persons 0-1, 2-3 and 4-5 are mutual favorites; any stable matching
     must pair mutual favorites, so the outcome is forced. *)
  let inst =
    SM.Roommates.make_exn
      [|
        [ 1; 2; 3; 4; 5 ];
        [ 0; 3; 4; 5; 2 ];
        [ 3; 0; 1; 5; 4 ];
        [ 2; 4; 5; 0; 1 ];
        [ 5; 0; 2; 1; 3 ];
        [ 4; 1; 3; 2; 0 ];
      |]
  in
  match SM.Roommates.solve inst with
  | Some partner ->
    Alcotest.(check bool) "stable" true (SM.Roommates.is_stable inst partner);
    Alcotest.(check (array int)) "mutual favorites paired"
      [| 1; 0; 3; 2; 5; 4 |] partner
  | None -> Alcotest.fail "expected a stable matching"

let test_roommates_unsolvable_instance () =
  (* Classic 4-person unsolvable instance: persons 0,1,2 each rank person 3
     last and form a cyclic preference among themselves. *)
  let inst =
    SM.Roommates.make_exn
      [| [ 1; 2; 3 ]; [ 2; 0; 3 ]; [ 0; 1; 3 ]; [ 0; 1; 2 ] |]
  in
  Alcotest.(check bool) "no stable matching" true (SM.Roommates.solve inst = None);
  Alcotest.(check int) "brute force agrees" 0
    (List.length (SM.Roommates.all_stable_brute inst))

let test_roommates_differential () =
  (* Differential test against brute force: solver finds a stable matching
     iff one exists, and its output is stable. *)
  let rng = Rng.make 47 in
  for n = 4 to 8 do
    if n mod 2 = 0 then
      for _ = 1 to 120 do
        let inst = SM.Roommates.random rng n in
        let brute = SM.Roommates.all_stable_brute inst in
        match SM.Roommates.solve inst with
        | Some partner ->
          Alcotest.(check bool) "solver output stable" true
            (SM.Roommates.is_stable inst partner);
          Alcotest.(check bool) "brute force agrees solvable" true (brute <> [])
        | None -> Alcotest.(check int) "brute force agrees unsolvable" 0 (List.length brute)
      done
  done

let test_roommates_rejects_odd_n () =
  Alcotest.(check bool) "odd n rejected" true
    (Result.is_error (SM.Roommates.make [| [ 1; 2 ]; [ 0; 2 ]; [ 0; 1 ] |]))

(* --- Incomplete lists & ties ------------------------------------------- *)

let test_smi_basic () =
  (* L0 accepts only R0; L1 accepts both; R0 prefers L1; R1 accepts only
     L1. Extended GS: L1 takes R0 (R0 prefers L1), L0 stays single —
     wait: L0 proposes R0 first... final stable outcome must leave L0
     unmatched only if no mutually-acceptable partner is free; here R1
     doesn't accept L0, and R0 prefers L1, so L0 is single. *)
  let inst =
    SM.Incomplete.make_exn
      ~left:[| [ 0 ]; [ 0; 1 ] |]
      ~right:[| [ 1; 0 ]; [ 1 ] |]
  in
  let m = SM.Incomplete.solve inst in
  Alcotest.(check bool) "stable" true (SM.Incomplete.is_stable inst m);
  Alcotest.(check (list int)) "L1 matched, L0 single" [ 1 ]
    (SM.Incomplete.matched_left m)

let test_smi_non_mutual_ignored () =
  (* L0 lists R0 but R0 does not list L0: the pair can never match nor
     block. *)
  let inst = SM.Incomplete.make_exn ~left:[| [ 0 ] |] ~right:[| [] |] in
  let m = SM.Incomplete.solve inst in
  Alcotest.(check bool) "stable" true (SM.Incomplete.is_stable inst m);
  Alcotest.(check (list int)) "nobody matched" [] (SM.Incomplete.matched_left m)

let test_smi_rejects_bad_lists () =
  Alcotest.(check bool) "duplicate" true
    (Result.is_error (SM.Incomplete.make ~left:[| [ 0; 0 ] |] ~right:[| [] |]));
  Alcotest.(check bool) "out of range" true
    (Result.is_error (SM.Incomplete.make ~left:[| [ 3 ] |] ~right:[| [] |]))

let test_smi_solver_stable_random () =
  let rng = Rng.make 53 in
  for _ = 1 to 150 do
    let inst = SM.Incomplete.random rng ~k:6 ~acceptance:0.6 in
    let m = SM.Incomplete.solve inst in
    if not (SM.Incomplete.is_stable inst m) then Alcotest.fail "unstable output"
  done

let test_smi_rural_hospitals () =
  (* Gale-Sotomayor: every stable matching of an SMI instance matches the
     same set of parties. Checked against brute-force enumeration. *)
  let rng = Rng.make 59 in
  for _ = 1 to 60 do
    let inst = SM.Incomplete.random rng ~k:4 ~acceptance:0.7 in
    let all = SM.Incomplete.all_stable_brute inst in
    Alcotest.(check bool) "at least one stable matching" true (all <> []);
    let solved = SM.Incomplete.solve inst in
    let reference = SM.Incomplete.matched_left solved, SM.Incomplete.matched_right solved in
    List.iter
      (fun m ->
        Alcotest.(check (pair (list int) (list int)))
          "same matched sets" reference
          (SM.Incomplete.matched_left m, SM.Incomplete.matched_right m))
      all
  done

let test_smi_solve_in_brute_set () =
  let rng = Rng.make 61 in
  for _ = 1 to 40 do
    let inst = SM.Incomplete.random rng ~k:4 ~acceptance:0.8 in
    let m = SM.Incomplete.solve inst in
    let all = SM.Incomplete.all_stable_brute inst in
    Alcotest.(check bool) "solver output among stable matchings" true
      (List.exists (fun m' -> m'.SM.Incomplete.l2r = m.SM.Incomplete.l2r) all)
  done

let test_ties_weakly_stable () =
  let rng = Rng.make 67 in
  for _ = 1 to 80 do
    (* Random tiered preferences: partition 0..k-1 into tiers. *)
    let k = 5 in
    let tiers () =
      Array.init k (fun _ ->
          let order = Rng.permutation rng k in
          (* Split into groups of random sizes. *)
          let rec chop = function
            | [] -> []
            | xs ->
              let n = 1 + Rng.int rng (List.length xs) in
              Util.take n xs :: chop (List.filteri (fun i _ -> i >= n) xs)
          in
          chop order)
    in
    let left = tiers () and right = tiers () in
    match SM.Incomplete.solve_with_ties rng ~left ~right with
    | Ok m ->
      Alcotest.(check bool) "weakly stable" true
        (SM.Incomplete.is_weakly_stable ~left ~right m)
    | Error e -> Alcotest.fail e
  done

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "stable_matching"
    [
      ( "prefs",
        [
          Alcotest.test_case "basics" `Quick test_prefs_basics;
          Alcotest.test_case "rejects non-permutations" `Quick
            test_prefs_rejects_non_permutation;
          Alcotest.test_case "codec roundtrip" `Quick test_prefs_codec_roundtrip;
          Alcotest.test_case "codec rejects malformed" `Quick
            test_prefs_codec_rejects_malformed;
          Alcotest.test_case "similar keeps permutation" `Quick
            test_prefs_similar_is_permutation;
          Alcotest.test_case "lookups and order" `Quick test_prefs_lookups_and_order;
        ] );
      ( "gale-shapley",
        [
          Alcotest.test_case "textbook instance" `Quick test_gs_textbook_instance;
          Alcotest.test_case "worst-case proposal count" `Quick
            test_gs_worst_case_proposals;
          Alcotest.test_case "deterministic" `Quick test_gs_deterministic;
          Alcotest.test_case "right-proposing stable" `Quick
            test_gs_right_proposing_stable;
          Alcotest.test_case "proposer-optimal acceptor-pessimal" `Slow
            test_gs_proposer_optimal_acceptor_pessimal;
          qcheck prop_gs_always_stable;
          qcheck prop_gs_right_stable;
          qcheck prop_similar_profiles_stable;
        ] );
      ( "verify",
        [
          Alcotest.test_case "blocking pair detection" `Quick
            test_blocking_pair_detection;
          Alcotest.test_case "unmatched singles block" `Quick
            test_partial_unmatched_mutually_acceptable_blocks;
          Alcotest.test_case "consider filters" `Quick
            test_partial_respects_consider_filters;
          qcheck prop_fast_paths_match_reference;
          qcheck prop_eps_zero_matches_is_stable;
          Alcotest.test_case "eps budget semantics" `Quick
            test_eps_budget_semantics;
          Alcotest.test_case "shard counts partition" `Quick test_shard_partition;
          Alcotest.test_case "free counter matches reference" `Quick
            test_gs_free_counter_matches_reference;
        ] );
      ( "flat",
        [
          Alcotest.test_case "perm is a bijection" `Quick
            test_flat_perm_is_bijection;
          qcheck prop_flat_gs_matches_explicit;
          Alcotest.test_case "verify view matches explicit" `Quick
            test_flat_verify_view_matches_explicit;
          Alcotest.test_case "deterministic in the seed" `Quick
            test_flat_deterministic;
          Alcotest.test_case "pinned probe values" `Quick test_flat_pinned_probes;
          Alcotest.test_case "pinned GS stats" `Quick test_flat_pinned_gs;
          Alcotest.test_case "probes reject out-of-range parties" `Quick
            test_flat_rejects_out_of_range;
          Alcotest.test_case "solve matches its parts" `Quick
            test_flat_solve_matches_parts;
          Alcotest.test_case "probes allocate nothing" `Quick
            test_flat_probes_allocate_nothing;
          Alcotest.test_case "concurrent scans of one view" `Quick
            test_flat_concurrent_scans;
          Alcotest.test_case "a scan allocates one cursor" `Quick
            test_flat_scan_allocates_one_cursor;
        ] );
      ( "lattice",
        [
          Alcotest.test_case "meet/join stable" `Slow test_lattice_meet_join_stable;
          Alcotest.test_case "enumeration matches brute force" `Slow
            test_all_stable_matches_brute_force;
          Alcotest.test_case "contains both optima" `Quick
            test_all_stable_contains_both_optima;
          Alcotest.test_case "egalitarian optimum" `Slow test_egalitarian_minimizes;
          Alcotest.test_case "minimum regret optimum" `Slow
            test_minimum_regret_minimizes;
          Alcotest.test_case "identical prefs: unique matching" `Quick
            test_worst_case_has_unique_stable_matching;
        ] );
      ( "truthfulness",
        [
          Alcotest.test_case "roth manipulation exists" `Quick
            test_roth_instance_manipulation;
          Alcotest.test_case "proposers cannot gain" `Slow test_proposers_cannot_gain;
        ] );
      ( "incomplete-and-ties",
        [
          Alcotest.test_case "basic SMI instance" `Quick test_smi_basic;
          Alcotest.test_case "non-mutual acceptability ignored" `Quick
            test_smi_non_mutual_ignored;
          Alcotest.test_case "rejects bad lists" `Quick test_smi_rejects_bad_lists;
          Alcotest.test_case "solver always stable" `Slow test_smi_solver_stable_random;
          Alcotest.test_case "rural hospitals theorem" `Slow test_smi_rural_hospitals;
          Alcotest.test_case "solver output in brute-force set" `Slow
            test_smi_solve_in_brute_set;
          Alcotest.test_case "ties: weak stability" `Slow test_ties_weakly_stable;
        ] );
      ( "roommates",
        [
          Alcotest.test_case "mutual favorites instance" `Quick
            test_roommates_mutual_favorites;
          Alcotest.test_case "unsolvable instance" `Quick
            test_roommates_unsolvable_instance;
          Alcotest.test_case "differential vs brute force" `Slow
            test_roommates_differential;
          Alcotest.test_case "odd n rejected" `Quick test_roommates_rejects_odd_n;
        ] );
    ]
