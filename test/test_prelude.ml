(* Tests for the prelude: identifiers, party sets, utilities, rng. *)

open Bsm_prelude

let party_id = Alcotest.testable Party_id.pp Party_id.equal

(* --- Side / Party_id ------------------------------------------------------ *)

let test_side_opposite () =
  Alcotest.(check bool) "L<->R" true
    (Side.equal (Side.opposite Side.Left) Side.Right
    && Side.equal (Side.opposite Side.Right) Side.Left)

let test_party_id_string_roundtrip () =
  List.iter
    (fun p -> Alcotest.check party_id "roundtrip" p (Party_id.of_string (Party_id.to_string p)))
    (Party_id.all ~k:13)

let test_party_id_make_shares_small_ids () =
  (* Small ids are preallocated: making one twice (from any entry point)
     yields the same value, and large ids still behave like any other. *)
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("shared " ^ Party_id.to_string p)
        true
        (Party_id.make (Party_id.side p) (Party_id.index p) == p))
    (Party_id.all ~k:128);
  let big = Party_id.make Side.Right 1_000_000 in
  Alcotest.check party_id "large index roundtrip" big
    (Party_id.of_string (Party_id.to_string big));
  Alcotest.(check int) "large index" 1_000_000 (Party_id.index big)

let test_party_id_of_string_rejects () =
  List.iter
    (fun s ->
      match Party_id.of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted %S" s)
    [ ""; "L"; "X3"; "L-1"; "Lx"; "3L" ]

let test_party_id_order_is_roster_order () =
  let roster = Party_id.all ~k:4 in
  let sorted = List.sort Party_id.compare roster in
  Alcotest.(check (list party_id)) "already sorted" roster sorted

let test_dense_roundtrip () =
  let k = 7 in
  List.iter
    (fun p ->
      Alcotest.check party_id "dense roundtrip" p
        (Party_id.of_dense ~k (Party_id.to_dense ~k p)))
    (Party_id.all ~k);
  Alcotest.(check bool) "dense is injective" true
    (List.length
       (List.sort_uniq compare (List.map (Party_id.to_dense ~k) (Party_id.all ~k)))
    = 2 * k)

(* --- Party_set ------------------------------------------------------------ *)

let test_party_set_side_counts () =
  let s = Party_set.of_list [ Party_id.left 0; Party_id.left 2; Party_id.right 1 ] in
  Alcotest.(check int) "left count" 2 (Party_set.count_side Side.Left s);
  Alcotest.(check int) "right count" 1 (Party_set.count_side Side.Right s);
  Alcotest.(check int) "restrict left" 2
    (Party_set.cardinal (Party_set.restrict_side Side.Left s))

let test_party_set_complement () =
  let k = 3 in
  let s = Party_set.of_list [ Party_id.left 0; Party_id.right 2 ] in
  let c = Party_set.complement ~k s in
  Alcotest.(check int) "size" (2 * k - 2) (Party_set.cardinal c);
  Alcotest.(check bool) "disjoint" true (Party_set.is_empty (Party_set.inter s c));
  Alcotest.(check bool) "union is full" true
    (Party_set.equal (Party_set.union s c) (Party_set.full ~k))

let test_power_set () =
  let sets = Party_set.power_set [ Party_id.left 0; Party_id.left 1 ] in
  Alcotest.(check int) "2^2 subsets" 4 (List.length sets)

(* The enumeration order of [power_set] is pinned: solvability sweeps
   iterate it, and their reports/regression baselines depend on the
   order. The original [Set.Make]-era implementation folded
   [fun subsets p -> subsets @ List.map (add p) subsets] over the
   parties; the tail-recursive rebuild must enumerate identically. *)
let test_power_set_order_pinned () =
  let parties = [ Party_id.left 0; Party_id.right 1; Party_id.left 2 ] in
  let reference =
    let add_party subsets p = subsets @ List.map (fun s -> Party_set.add p s) subsets in
    List.fold_left add_party [ Party_set.empty ] parties
  in
  let got = Party_set.power_set parties in
  Alcotest.(check int) "size" (List.length reference) (List.length got);
  List.iteri
    (fun i (r, g) ->
      if not (Party_set.equal r g) then
        Alcotest.failf "position %d: %a <> %a" i Party_set.pp r Party_set.pp g)
    (List.combine reference got)

(* Model-based: the bit-packed representation must agree with a
   [Set.Make (Party_id)] reference under randomized operation
   sequences, including indices straddling the 62-bit word boundary. *)
module Ref_set = Set.Make (Party_id)

let test_party_set_vs_model () =
  let rng = Rng.make 0xBEE5 in
  (* Indices clustered around word boundaries plus small ones. *)
  let indices = [ 0; 1; 5; 31; 60; 61; 62; 63; 64; 100; 123; 124; 125; 200 ] in
  let random_party () =
    let side = if Rng.bool rng then Side.Left else Side.Right in
    Party_id.make side (Rng.choose rng indices)
  in
  let check_agree label (s : Party_set.t) (m : Ref_set.t) =
    Alcotest.(check (list party_id))
      (label ^ ": elements") (Ref_set.elements m)
      (Party_set.elements s);
    Alcotest.(check int) (label ^ ": cardinal") (Ref_set.cardinal m)
      (Party_set.cardinal s);
    List.iter
      (fun side ->
        Alcotest.(check int)
          (label ^ ": count_side")
          (Ref_set.cardinal
             (Ref_set.filter (fun p -> Side.equal (Party_id.side p) side) m))
          (Party_set.count_side side s))
      Side.all
  in
  let s = ref Party_set.empty and m = ref Ref_set.empty in
  (* A second pair evolving independently, for the binary operations. *)
  let s2 = ref Party_set.empty and m2 = ref Ref_set.empty in
  for step = 1 to 400 do
    let p = random_party () in
    (match Rng.int rng 4 with
    | 0 ->
      s := Party_set.add p !s;
      m := Ref_set.add p !m
    | 1 ->
      s := Party_set.remove p !s;
      m := Ref_set.remove p !m
    | 2 ->
      s2 := Party_set.add p !s2;
      m2 := Ref_set.add p !m2
    | _ ->
      s2 := Party_set.remove p !s2;
      m2 := Ref_set.remove p !m2);
    Alcotest.(check bool)
      "mem agrees" (Ref_set.mem p !m) (Party_set.mem p !s);
    if step mod 20 = 0 then begin
      check_agree "s" !s !m;
      check_agree "union" (Party_set.union !s !s2) (Ref_set.union !m !m2);
      check_agree "inter" (Party_set.inter !s !s2) (Ref_set.inter !m !m2);
      check_agree "diff" (Party_set.diff !s !s2) (Ref_set.diff !m !m2);
      Alcotest.(check bool)
        "subset agrees"
        (Ref_set.subset !m !m2)
        (Party_set.subset !s !s2);
      Alcotest.(check bool)
        "subset of union" true
        (Party_set.subset !s (Party_set.union !s !s2));
      Alcotest.(check bool)
        "equal agrees"
        (Ref_set.equal !m !m2)
        (Party_set.equal !s !s2)
    end
  done;
  (* Removal back to empty must normalize: equal to the empty value. *)
  let drained = Ref_set.fold Party_set.remove !m !s in
  Alcotest.(check bool) "drained set equals empty" true
    (Party_set.equal Party_set.empty drained && Party_set.is_empty drained)

let test_party_set_word_boundary_full () =
  (* k spanning multiple 62-bit words, exact popcounts. *)
  List.iter
    (fun k ->
      let f = Party_set.full ~k in
      Alcotest.(check int) "cardinal" (2 * k) (Party_set.cardinal f);
      Alcotest.(check int) "left" k (Party_set.count_side Side.Left f);
      let no_left0 = Party_set.remove (Party_id.left 0) f in
      Alcotest.(check int) "after remove" (2 * k - 1) (Party_set.cardinal no_left0);
      Alcotest.(check bool) "complement of empty is full" true
        (Party_set.equal f (Party_set.complement ~k Party_set.empty)))
    [ 1; 61; 62; 63; 124; 125; 200 ]

(* --- Util ------------------------------------------------------------------ *)

let test_most_common () =
  Alcotest.(check (option (pair string int)))
    "majority" (Some ("b", 2))
    (Util.most_common ~equal:String.equal [ "a"; "b"; "b" ]);
  Alcotest.(check (option (pair string int)))
    "first wins ties" (Some ("a", 1))
    (Util.most_common ~equal:String.equal [ "a"; "b" ]);
  Alcotest.(check (option (pair string int)))
    "empty" None
    (Util.most_common ~equal:String.equal [])

let test_strict_majority () =
  Alcotest.(check (option int)) "5 of 9" (Some 1)
    (Util.strict_majority ~equal:Int.equal ~total:9 [ 1; 1; 1; 1; 1; 2; 2; 2; 2 ]);
  Alcotest.(check (option int)) "exactly half is not majority" None
    (Util.strict_majority ~equal:Int.equal ~total:4 [ 1; 1; 2 ])

let test_group_by_preserves_order () =
  let groups = Util.group_by ~key:(fun x -> x mod 2) [ 1; 2; 3; 4 ] in
  Alcotest.(check (list (pair int (list int)))) "keyed in first-seen order"
    [ 1, [ 1; 3 ]; 0, [ 2; 4 ] ]
    groups

(* The two-pass grouping [Util.group_by] used to be, with its [dedup]
   inlined: collect the distinct keys in first-seen order, then filter
   the whole input once per key. Quadratic, and it re-evaluates [key]
   for every element on every pass — kept as the reference the one-pass
   version must agree with. *)
let reference_group_by ~key ~equal_key xs =
  let keep seen x = if List.exists (equal_key x) seen then seen else x :: seen in
  let keys = List.rev (List.fold_left keep [] (List.map key xs)) in
  List.map (fun k -> k, List.filter (fun x -> equal_key (key x) k) xs) keys

let test_group_by_matches_reference () =
  (* Elements are (position, draw) pairs, so equal keys still carry
     distinguishable elements and within-group order is observable. Few
     distinct draws against long lists give heavy key repetition. *)
  let rng = Rng.make 2024 in
  let counted key =
    let calls = ref 0 in
    (fun x ->
      incr calls;
      key x),
    calls
  in
  for trial = 1 to 300 do
    let n = Rng.int rng 120 in
    let distinct = 1 + Rng.int rng 6 in
    let xs = List.init n (fun i -> i, Rng.int rng distinct) in
    let check_keys (type k) name (key : int * int -> k) (equal_key : k -> k -> bool)
        (key_t : k Alcotest.testable) =
      let expected = reference_group_by ~key ~equal_key xs in
      let key', calls = counted key in
      let got = Util.group_by ~key:key' xs in
      Alcotest.(check (list (pair key_t (list (pair int int)))))
        (Printf.sprintf "%s keys, trial %d" name trial)
        expected got;
      Alcotest.(check int)
        (Printf.sprintf "%s keys, trial %d: key once per element" name trial)
        n !calls
    in
    check_keys "int" snd Int.equal Alcotest.int;
    check_keys "string" (fun (_, v) -> "key-" ^ string_of_int v) String.equal
      Alcotest.string
  done

(* [Party_set.of_list] and [diff] build a one-word side with a single
   allocation; the fold of [add] that [of_list] was is the oracle, and a
   [Set.Make] model the reference for [diff]. Equality is structural, so
   normalization (no trailing zero word) is checked too. *)
let test_party_set_one_word_paths () =
  let rng = Rng.make 0x5E7 in
  let fold_of_list ps = List.fold_left (fun t p -> Party_set.add p t) Party_set.empty ps in
  let random_list () =
    let wide = Rng.int rng 4 = 0 in
    List.init (Rng.int rng 12) (fun _ ->
        let side = if Rng.bool rng then Side.Left else Side.Right in
        let index = if wide && Rng.int rng 3 = 0 then 62 + Rng.int rng 70 else Rng.int rng 62 in
        Party_id.make side index)
  in
  for trial = 1 to 500 do
    let a = random_list () and b = random_list () in
    let label what = Printf.sprintf "%s, trial %d" what trial in
    Alcotest.(check bool) (label "of_list = fold of add") true
      (Party_set.of_list a = fold_of_list a);
    let diff = Party_set.diff (Party_set.of_list a) (Party_set.of_list b) in
    let model = Ref_set.diff (Ref_set.of_list a) (Ref_set.of_list b) in
    Alcotest.(check (list party_id)) (label "diff elements") (Ref_set.elements model)
      (Party_set.elements diff);
    Alcotest.(check bool) (label "diff normalized") true
      (diff = fold_of_list (Ref_set.elements model))
  done

let test_is_permutation () =
  Alcotest.(check bool) "valid" true (Util.is_permutation [ 2; 0; 1 ] ~n:3);
  Alcotest.(check bool) "duplicate" false (Util.is_permutation [ 0; 0; 1 ] ~n:3);
  Alcotest.(check bool) "short" false (Util.is_permutation [ 0; 1 ] ~n:3);
  Alcotest.(check bool) "out of range" false (Util.is_permutation [ 0; 1; 3 ] ~n:3)

let test_cdiv () =
  Alcotest.(check int) "7/3" 3 (Util.cdiv 7 3);
  Alcotest.(check int) "6/3" 2 (Util.cdiv 6 3);
  Alcotest.(check int) "1/3" 1 (Util.cdiv 1 3)

let test_dedup_take_range () =
  Alcotest.(check (list int)) "dedup keeps first" [ 3; 1; 2 ]
    (List.map fst (Util.group_by ~key:Fun.id [ 3; 1; 3; 2; 1 ]));
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Util.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take beyond" [ 1 ] (Util.take 5 [ 1 ]);
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Util.range 2 5);
  Alcotest.(check (list int)) "empty range" [] (Util.range 5 2)

(* --- Rng -------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let xs rng = List.init 20 (fun _ -> Rng.int rng 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b)

let test_rng_permutation_valid () =
  let rng = Rng.make 1 in
  for n = 1 to 20 do
    Alcotest.(check bool) "permutation" true
      (Util.is_permutation (Rng.permutation rng n) ~n)
  done

let test_rng_sample_distinct () =
  let rng = Rng.make 2 in
  let sample = Rng.sample rng 5 (List.init 10 Fun.id) in
  Alcotest.(check int) "5 distinct" 5 (List.length (List.sort_uniq compare sample))

let test_rng_split_independent () =
  let a = Rng.make 7 in
  let b = Rng.split a in
  let before = Rng.int b 1000000 in
  ignore (Rng.int a 1000000);
  (* Recreate the same split stream: split is a function of a's state at
     split time, so an identical setup must reproduce [before]. *)
  let a' = Rng.make 7 in
  let b' = Rng.split a' in
  Alcotest.(check int) "split reproducible" before (Rng.int b' 1000000)

let test_mix64_deterministic () =
  List.iter
    (fun x ->
      Alcotest.(check int64)
        "pure function" (Rng.mix64 x) (Rng.mix64 x))
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x123456789ABCDEFL ];
  let h = Rng.mix64_absorb (Rng.mix64 5L) 17 in
  Alcotest.(check int64) "absorb deterministic" h (Rng.mix64_absorb (Rng.mix64 5L) 17)

let test_mix64_avalanche () =
  (* Flipping one input bit must flip roughly half the output bits —
     splitmix64's finalizer is a strong avalanche mixer. *)
  let popcount x =
    let n = ref 0 in
    for i = 0 to 63 do
      if Int64.(logand (shift_right_logical x i) 1L) = 1L then incr n
    done;
    !n
  in
  List.iter
    (fun x ->
      for bit = 0 to 63 do
        let y = Int64.logxor x (Int64.shift_left 1L bit) in
        let flipped = popcount (Int64.logxor (Rng.mix64 x) (Rng.mix64 y)) in
        if flipped < 10 || flipped > 54 then
          Alcotest.failf "avalanche too weak: bit %d flipped only %d output bits"
            bit flipped
      done)
    [ 0L; 42L; 0xDEADBEEFL ]

let test_mix64_distinct_streams () =
  (* Distinct (seed, salt, round) coordinates must hash to distinct
     values once the seed is pre-mixed (the discipline Schedule.compile
     follows): the stateless coin never correlates across components. *)
  let hashes =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun salt ->
            List.map
              (fun round ->
                Rng.mix64_absorb
                  (Rng.mix64_absorb (Rng.mix64 (Int64.of_int seed)) salt)
                  round)
              (Util.range 0 10))
          (Util.range 0 10))
      (Util.range 0 10)
  in
  Alcotest.(check int)
    "all distinct" (List.length hashes)
    (List.length (List.sort_uniq compare hashes))

let test_uniform_of_hash () =
  let xs =
    List.init 10_000 (fun i -> Rng.uniform_of_hash (Rng.mix64 (Int64.of_int i)))
  in
  List.iter
    (fun u ->
      if not (u >= 0. && u < 1.) then Alcotest.failf "out of [0,1): %g" u)
    xs;
  let mean = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
  Alcotest.(check bool)
    "mean near 1/2" true
    (mean > 0.48 && mean < 0.52)

(* --- Stats ------------------------------------------------------------------ *)

let test_stats_summary () =
  let s = Stats.summarize [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
  Alcotest.(check int) "n" 8 s.Stats.n;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "stddev" 2.0 s.Stats.stddev;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.Stats.max

let test_stats_percentile () =
  let xs = List.map float_of_int (Util.range 1 101) in
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.percentile 50. xs);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile 95. xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile 100. xs)

let test_stats_rate () =
  Alcotest.(check (float 1e-9)) "3 of 4" 75.0 (Stats.rate 3 4);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.rate 0 0)

let test_stats_rejects_empty () =
  (match Stats.summarize [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "summarize accepted empty");
  match Stats.percentile 50. [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "percentile accepted empty"

(* --- Table ------------------------------------------------------------------ *)

let test_table_renders () =
  let t = Table.make ~title:"demo" ~header:[ "col"; "value" ] in
  Table.add_row t [ "a"; "1" ];
  Table.add_row t [ "bb"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has title" true (String.length s > 0);
  Alcotest.(check bool) "aligned" true
    (String.split_on_char '\n' s |> List.exists (fun l -> l = "| a   | 1     |"))

let test_table_rejects_bad_row () =
  let t = Table.make ~title:"demo" ~header:[ "a"; "b" ] in
  match Table.add_row t [ "only-one" ] with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "accepted short row"

(* --- Json ------------------------------------------------------------------- *)

let json_testable =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Json.to_string v)) ( = )

let parses s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%S: %s" s (Json.error_to_string e)

(* Finite floats over the whole range: raw bit patterns (non-finite
   ones replaced), QCheck's spread around 1, and the edge cases. *)
let finite_float_gen =
  QCheck.Gen.(
    oneof
      [
        map
          (fun bits ->
            let f = Int64.float_of_bits bits in
            if Float.is_finite f then f else 0.)
          ui64;
        float;
        oneofl
          [ 0.; -0.; 1.; 0.1; 1e21; 1e-7; max_float; -.max_float; min_float; 5e-324 ];
      ])

let json_gen =
  let open QCheck.Gen in
  let bytes = string_size ~gen:char (int_bound 8) in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ int; oneofl [ min_int; max_int; 0; -1 ] ]);
        map (fun f -> Json.Float f) finite_float_gen;
        map (fun s -> Json.String s) bytes;
      ]
  in
  sized_size (int_bound 4)
  @@ fix (fun self depth ->
         if depth = 0 then scalar
         else
           frequency
             [
               2, scalar;
               ( 1,
                 map (fun l -> Json.List l) (list_size (int_bound 4) (self (depth - 1))) );
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_bound 4) (pair bytes (self (depth - 1)))) );
             ])

let json_arb = QCheck.make ~print:Json.to_string json_gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json: of_string (to_string v) = Ok v" ~count:1000 json_arb
    (fun v -> Json.of_string (Json.to_string v) = Ok v)

let prop_json_prefixes_rejected =
  QCheck.Test.make ~name:"json: every proper prefix of an object is rejected"
    ~count:200
    (QCheck.make ~print:Json.to_string
       QCheck.Gen.(
         map
           (fun kvs -> Json.Obj kvs)
           (list_size (int_bound 4) (pair (string_size (int_bound 4)) json_gen))))
    (fun v ->
      let s = Json.to_string v in
      List.for_all
        (fun len -> Result.is_error (Json.of_string (String.sub s 0 len)))
        (Util.range 0 (String.length s)))

let prop_json_random_bytes_rejected =
  QCheck.Test.make ~name:"json: random bytes are an Error, never an exception"
    ~count:2000
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(string_size ~gen:char (int_range 8 64)))
    (fun s ->
      match Json.of_string s with
      | Error e -> e.Json.offset >= 0 && e.Json.offset <= String.length s
      | Ok _ -> false)

let test_json_rejects_malformed () =
  List.iter
    (fun (s, offset) ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error e ->
        Alcotest.(check int) (Printf.sprintf "offset of %S" s) offset e.Json.offset)
    [
      "", 0;
      "  ", 2;
      "{} x", 3;
      "[1] [2]", 4;
      "+1", 0;
      "01", 1;
      "-01", 2;
      "-", 1;
      "1.", 2;
      ".5", 0;
      "1e", 2;
      "1e400", 0;
      "4611686018427387904", 0;
      "[1,]", 3;
      "[1 2]", 3;
      "{\"a\" 1}", 5;
      "{\"a\": 1,}", 8;
      "{a: 1}", 1;
      "tru", 0;
      "nulll", 4;
      "\"abc", 4;
      "\"a\\x\"", 2;
      "\"\\u12G4\"", 1;
      "\"\\u12\"", 1;
      "\"\\ud83d\\ude00\"", 1;
      "\"\\ud800\"", 1;
      "\"\\udc00x\"", 1;
      "\"a\nb\"", 2;
      "\"\001\"", 1;
      "[{\"rows\": [{\"gs_ms\": 15.", 24;
      String.make 100_000 '[', 513;
    ]

let test_json_accepts_rfc_forms () =
  Alcotest.check json_testable "whitespace, escapes, exponents"
    (Json.Obj
       [
         "a", Json.List [ Json.Int 1; Json.Float (-2500.); Json.Bool true; Json.Null ];
         "s\n", Json.String "\"\\/\b\012\n\r\t\001\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80";
         "e", Json.Float 1e-3;
       ])
    (parses
       " {\"a\" : [1, -2.5E+3,true ,null],\r\n\
        \"s\\n\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0001\\u00e9\\u20AC\xf0\x9f\x98\x80\", \"e\": 1e-3}\t")

let test_json_printer_layout () =
  let v =
    Json.Obj
      [
        "jobs", Json.Int 2;
        "eps", Json.rounded "%.3e" 0.0025291;
        "ms", Json.rounded "%.3f" 15.5501;
        "whole_run", Json.Obj [ "tasks", Json.Int 3; "speedup", Json.Float 2. ];
        ( "rows",
          Json.List [ Json.Obj [ "row", Json.String "k=1"; "x", Json.List [] ]; Json.Obj [] ] );
        "empty", Json.List [];
      ]
  in
  Alcotest.(check string) "one record per line"
    "{\n\
    \  \"jobs\": 2,\n\
    \  \"eps\": 0.002529,\n\
    \  \"ms\": 15.55,\n\
    \  \"whole_run\": {\"tasks\": 3, \"speedup\": 2.0},\n\
    \  \"rows\": [\n\
    \    {\"row\": \"k=1\", \"x\": []},\n\
    \    {}\n\
    \  ],\n\
    \  \"empty\": []\n\
     }"
    (Json.to_string v);
  Alcotest.(check (option (float 0.))) "member + number" (Some 15.55)
    (Option.bind (Json.member "ms" v) Json.number);
  Alcotest.(check bool) "absent member" true (Json.member "nope" v = None);
  match Json.to_string (Json.Float Float.nan) with
  | exception Invalid_argument _ -> ()
  | s -> Alcotest.failf "printed nan as %s" s

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "prelude"
    [
      ( "ids",
        [
          Alcotest.test_case "side opposite" `Quick test_side_opposite;
          Alcotest.test_case "party id string roundtrip" `Quick
            test_party_id_string_roundtrip;
          Alcotest.test_case "of_string rejects" `Quick test_party_id_of_string_rejects;
          Alcotest.test_case "small ids shared" `Quick test_party_id_make_shares_small_ids;
          Alcotest.test_case "roster order" `Quick test_party_id_order_is_roster_order;
          Alcotest.test_case "dense roundtrip" `Quick test_dense_roundtrip;
        ] );
      ( "party-set",
        [
          Alcotest.test_case "side counts" `Quick test_party_set_side_counts;
          Alcotest.test_case "complement" `Quick test_party_set_complement;
          Alcotest.test_case "power set" `Quick test_power_set;
          Alcotest.test_case "power set order pinned" `Quick
            test_power_set_order_pinned;
          Alcotest.test_case "bit-packed vs model" `Quick test_party_set_vs_model;
          Alcotest.test_case "one-word of_list and diff" `Quick
            test_party_set_one_word_paths;
          Alcotest.test_case "word boundaries" `Quick
            test_party_set_word_boundary_full;
        ] );
      ( "util",
        [
          Alcotest.test_case "most common" `Quick test_most_common;
          Alcotest.test_case "strict majority" `Quick test_strict_majority;
          Alcotest.test_case "group by" `Quick test_group_by_preserves_order;
          Alcotest.test_case "group by matches two-pass reference" `Quick
            test_group_by_matches_reference;
          Alcotest.test_case "is permutation" `Quick test_is_permutation;
          Alcotest.test_case "ceiling division" `Quick test_cdiv;
          Alcotest.test_case "dedup/take/range" `Quick test_dedup_take_range;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "permutations valid" `Quick test_rng_permutation_valid;
          Alcotest.test_case "samples distinct" `Quick test_rng_sample_distinct;
          Alcotest.test_case "split reproducible" `Quick test_rng_split_independent;
          Alcotest.test_case "mix64 deterministic" `Quick test_mix64_deterministic;
          Alcotest.test_case "mix64 avalanche" `Quick test_mix64_avalanche;
          Alcotest.test_case "mix64 distinct streams" `Quick
            test_mix64_distinct_streams;
          Alcotest.test_case "uniform of hash" `Quick test_uniform_of_hash;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "rate" `Quick test_stats_rate;
          Alcotest.test_case "rejects empty" `Quick test_stats_rejects_empty;
        ] );
      ( "table",
        [
          Alcotest.test_case "renders aligned" `Quick test_table_renders;
          Alcotest.test_case "rejects bad row" `Quick test_table_rejects_bad_row;
        ] );
      ( "json",
        [
          qcheck prop_json_roundtrip;
          qcheck prop_json_prefixes_rejected;
          qcheck prop_json_random_bytes_rejected;
          Alcotest.test_case "rejects malformed input at its offset" `Quick
            test_json_rejects_malformed;
          Alcotest.test_case "accepts RFC 8259 forms" `Quick
            test_json_accepts_rfc_forms;
          Alcotest.test_case "printer layout pinned" `Quick test_json_printer_layout;
        ] );
    ]
