(* The decoder-fuzz corpus as a tier-1 test: every codec fed mutated
   encodings must round-trip, reinterpret, or raise Wire.Malformed —
   never crash. The CLI's `bsm fuzz` and `make fuzz-quick` run the same
   corpus with a bigger budget. *)

module Fuzz = Bsm_wire.Fuzz

let corpus () = Bsm_chaos.Codec_corpus.entries () @ Bsm_serve.Frame.fuzz_entries

let test_corpus_holds_serve_frames () =
  (* The serve frames are what byzantine clients send the daemon; the
     tier-1 corpus must fuzz them, not only the CLI's. *)
  let names = List.map (fun (Fuzz.Entry e) -> e.name) (corpus ()) in
  List.iter
    (fun name -> Alcotest.(check bool) name true (List.mem name names))
    [ "serve.workload"; "serve.request"; "serve.response" ]

let test_corpus_never_crashes () =
  let stats = Fuzz.run ~seed:7 ~cases:200 (corpus ()) in
  List.iter
    (fun (s : Fuzz.stats) ->
      match s.Fuzz.first_failure with
      | Some failure -> Alcotest.failf "%s: %s" s.Fuzz.name failure
      | None -> Alcotest.(check int) (s.Fuzz.name ^ " crashes") 0 s.Fuzz.crashed)
    stats;
  Alcotest.(check bool) "corpus is non-trivial" true (List.length stats >= 15)

let test_clean_roundtrips_always_pass () =
  (* Half of each entry's cases are unmutated encodings; every one must
     come back Roundtrip, so per entry roundtrip >= cases given. *)
  let cases = 100 in
  let stats = Fuzz.run ~seed:3 ~cases (corpus ()) in
  List.iter
    (fun (s : Fuzz.stats) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d roundtrips >= %d clean cases" s.Fuzz.name
           s.Fuzz.roundtrip cases)
        true
        (s.Fuzz.roundtrip >= cases))
    stats

let test_mutations_are_exercised () =
  (* The mutator must actually perturb decoders: across the corpus some
     mutated frames get rejected and some decode to different values. *)
  let stats = Fuzz.run ~seed:7 ~cases:200 (corpus ()) in
  Alcotest.(check bool) "some rejections" true
    (List.exists (fun (s : Fuzz.stats) -> s.Fuzz.rejected > 0) stats);
  Alcotest.(check bool) "some reinterpretations" true
    (List.exists (fun (s : Fuzz.stats) -> s.Fuzz.reinterpreted > 0) stats)

let test_deterministic_in_the_seed () =
  let a = Fuzz.run ~seed:7 ~cases:50 (corpus ()) in
  let b = Fuzz.run ~seed:7 ~cases:50 (corpus ()) in
  Alcotest.(check bool) "same seed, same stats" true (a = b);
  let c = Fuzz.run ~seed:8 ~cases:50 (corpus ()) in
  Alcotest.(check bool) "different seed, different stats" false (a = c)

let () =
  Alcotest.run "fuzz"
    [
      ( "corpus",
        [
          Alcotest.test_case "never crashes" `Quick test_corpus_never_crashes;
          Alcotest.test_case "clean roundtrips pass" `Quick
            test_clean_roundtrips_always_pass;
          Alcotest.test_case "mutations exercised" `Quick
            test_mutations_are_exercised;
          Alcotest.test_case "deterministic in the seed" `Quick
            test_deterministic_in_the_seed;
          Alcotest.test_case "holds the serve frames" `Quick
            test_corpus_holds_serve_frames;
        ] );
    ]
