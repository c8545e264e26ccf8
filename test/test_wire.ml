(* Tests for the binary wire format: roundtrips (including property-based),
   canonical encoding, and the malformed-input paths byzantine messages
   exercise. *)

open Bsm_prelude
module Wire = Bsm_wire.Wire

let roundtrip codec value = Wire.decode codec (Wire.encode codec value)

let check_roundtrip name codec eq value =
  match roundtrip codec value with
  | Ok v when eq v value -> ()
  | Ok _ -> Alcotest.failf "%s: decoded to a different value" name
  | Error e -> Alcotest.failf "%s: %s" name e

(* --- primitives ------------------------------------------------------------ *)

let test_uint_roundtrip () =
  List.iter
    (fun n -> check_roundtrip "uint" Wire.uint Int.equal n)
    [ 0; 1; 127; 128; 300; 16383; 16384; 1 lsl 30; max_int ]

let test_uint_rejects_negative () =
  match Wire.encode Wire.uint (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encoded a negative uint"

let test_int_roundtrip () =
  List.iter
    (fun n -> check_roundtrip "int" Wire.int Int.equal n)
    [ 0; 1; -1; 63; -64; 64; -65; 1000000; -1000000; max_int; min_int ]

let test_string_roundtrip () =
  List.iter
    (fun s -> check_roundtrip "string" Wire.string String.equal s)
    [ ""; "a"; String.make 1000 'x'; "\x00\xff\x80 binary" ]

let test_bool_roundtrip () =
  check_roundtrip "bool" Wire.bool Bool.equal true;
  check_roundtrip "bool" Wire.bool Bool.equal false

let test_bool_rejects_junk () =
  Alcotest.(check bool) "bad byte" true (Result.is_error (Wire.decode Wire.bool "\x07"))

(* --- combinators ------------------------------------------------------------ *)

let test_list_roundtrip () =
  check_roundtrip "list" (Wire.list Wire.int) (List.equal Int.equal) [];
  check_roundtrip "list" (Wire.list Wire.int) (List.equal Int.equal) [ 1; -2; 3 ]

let test_option_pair_triple () =
  check_roundtrip "option none" (Wire.option Wire.string) ( = ) None;
  check_roundtrip "option some" (Wire.option Wire.string) ( = ) (Some "x");
  check_roundtrip "pair" (Wire.pair Wire.int Wire.string) ( = ) (-5, "y");
  check_roundtrip "triple" (Wire.triple Wire.bool Wire.int Wire.string) ( = )
    (true, 9, "z")

let test_trailing_bytes_rejected () =
  let bytes = Wire.encode Wire.uint 5 ^ "extra" in
  Alcotest.(check bool) "trailing" true (Result.is_error (Wire.decode Wire.uint bytes))

let test_truncated_rejected () =
  let bytes = Wire.encode (Wire.pair Wire.string Wire.string) ("hello", "world") in
  let truncated = String.sub bytes 0 (String.length bytes - 3) in
  Alcotest.(check bool) "truncated" true
    (Result.is_error (Wire.decode (Wire.pair Wire.string Wire.string) truncated))

let test_variant_unknown_tag_rejected () =
  (* party_id's side is a uint-coded enum: value 9 is invalid. *)
  let e = Wire.Enc.create () in
  Wire.Enc.uint e 9;
  Wire.Enc.uint e 0;
  Alcotest.(check bool) "unknown side" true
    (Result.is_error (Wire.decode Wire.party_id (Wire.Enc.to_string e)))

let test_canonical_encoding () =
  (* Equal values encode to equal bytes (no nondeterminism anywhere). *)
  let v = [ Some (Party_id.left 3, "payload"); None ] in
  let codec = Wire.list (Wire.option (Wire.pair Wire.party_id Wire.string)) in
  Alcotest.(check string) "canonical" (Wire.encode codec v) (Wire.encode codec v)

(* --- encoder reuse ---------------------------------------------------------- *)

let test_encode_into_matches_encode () =
  (* One caller-owned encoder reused across messages must produce the same
     bytes as a fresh encode, and returned strings must stay intact when
     the encoder is reused. *)
  let codec = Wire.pair Wire.party_id Wire.string in
  let enc = Wire.Enc.create () in
  let values = [ Party_id.left 0, "alpha"; Party_id.right 7, ""; Party_id.left 3, "z" ] in
  let reused = List.map (fun v -> Wire.encode_into enc codec v) values in
  let fresh = List.map (fun v -> Wire.encode codec v) values in
  List.iteri
    (fun i (r, f) -> Alcotest.(check string) (Printf.sprintf "message %d" i) f r)
    (List.combine reused fresh)

let test_enc_reset_clears () =
  let e = Wire.Enc.create () in
  Wire.Enc.string e "junk to forget";
  Wire.Enc.reset e;
  Wire.Enc.uint e 5;
  Alcotest.(check string) "only the post-reset bytes" (Wire.encode Wire.uint 5)
    (Wire.Enc.to_string e)

let test_nested_encode_safe () =
  (* A codec whose [write] itself calls [encode] mid-write: the per-domain
     scratch encoder must not be clobbered by the nested call. *)
  let nested =
    {
      Wire.write = (fun e v -> Wire.Enc.string e (Wire.encode Wire.uint v));
      read = (fun d -> Wire.decode_exn Wire.uint (Wire.Dec.string d));
    }
  in
  List.iter
    (fun n -> check_roundtrip "nested encode" nested Int.equal n)
    [ 0; 127; 128; 1 lsl 20 ];
  (* and the scratch path still works for plain encodes afterwards *)
  check_roundtrip "plain encode after nested" Wire.uint Int.equal 300

(* --- hardening: forged prefixes, overlong varints, hex ----------------------- *)

let test_overlong_varint_rejected () =
  (* 11 continuation bytes: more than any int fits in. The decoder must
     stop at its 10-byte cap, not shift forever. *)
  let bytes = String.make 11 '\x80' ^ "\x00" in
  Alcotest.(check bool) "overlong" true (Result.is_error (Wire.decode Wire.uint bytes))

let test_overflowing_varint_rejected () =
  (* 10 bytes whose high bits overflow a 63-bit int. *)
  let bytes = String.make 9 '\xff' ^ "\x7f" in
  Alcotest.(check bool) "overflow" true (Result.is_error (Wire.decode Wire.uint bytes))

let test_noncanonical_varint_roundtrip_boundary () =
  (* max_int is exactly the 10-byte boundary: it must still decode. *)
  check_roundtrip "max_int" Wire.uint Int.equal max_int

let test_forged_string_length_rejected () =
  (* A length prefix claiming ~2^40 bytes followed by 3 actual bytes: the
     decoder must reject against the remaining input, not allocate. *)
  let e = Wire.Enc.create () in
  Wire.Enc.uint e (1 lsl 40);
  Wire.Enc.to_string e ^ "abc" |> fun bytes ->
  Alcotest.(check bool) "forged string length" true
    (Result.is_error (Wire.decode Wire.string bytes))

let test_forged_string_length_near_max_int () =
  (* Near max_int the naive [pos + len] bound check overflows to a
     negative number and admits the read; the decoder must compare
     against the remaining byte count instead. *)
  let e = Wire.Enc.create () in
  Wire.Enc.uint e (max_int - 1);
  Wire.Enc.to_string e ^ "abc" |> fun bytes ->
  Alcotest.(check bool) "near-max_int length" true
    (Result.is_error (Wire.decode Wire.string bytes))

let test_forged_list_count_rejected () =
  (* A count prefix claiming 2^30 elements with one byte of payload: the
     decoder must reject before materializing the list. *)
  let e = Wire.Enc.create () in
  Wire.Enc.uint e (1 lsl 30);
  Wire.Enc.uint e 1;
  Alcotest.(check bool) "forged list count" true
    (Result.is_error (Wire.decode (Wire.list Wire.uint) (Wire.Enc.to_string e)))

let test_float_roundtrip () =
  let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  List.iter
    (fun f -> check_roundtrip "float" Wire.float bits_equal f)
    [ 0.; -0.; 1.; -1.5; 0.3; Float.max_float; Float.min_float; epsilon_float;
      Float.infinity; Float.neg_infinity; Float.nan ]

let test_hex_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) "hex roundtrip" s (Wire.of_hex (Wire.to_hex s)))
    [ ""; "\x00"; "abc"; "\xff\x00\x80"; String.init 256 Char.chr ]

let test_hex_rejects_junk () =
  let rejects s =
    match Wire.of_hex s with
    | exception Wire.Malformed _ -> ()
    | _ -> Alcotest.failf "of_hex accepted %S" s
  in
  rejects "a";
  rejects "0g";
  rejects "zz";
  rejects "0A Z"

(* Each cursor reader against its decoder on the same bytes: every clean
   varint, string and header run, every truncation, overlong and
   overflowing forms, and random bytes, at a random offset inside a
   padded string with a random limit. Agreement means the same value or
   span and the same end position, or [-1] exactly where the decoder
   raises; [peek_uint_partial] answers [-2] exactly where [uint] raises
   only because the input ends. *)
let header_fields = Wire.Dec.[| Side; Uint; Side; Uint; Uint; Uint |]

let test_peek_uint_matches_uint () =
  let rng = Rng.make 77 in
  let encoded n =
    let e = Wire.Enc.create () in
    Wire.Enc.uint e n;
    Wire.Enc.to_string e
  in
  let ints = [ 0; 1; 2; 127; 128; 300; 16383; 16384; 1 lsl 35; max_int - 1; max_int ] in
  let clean = List.map encoded ints in
  let odd =
    [ "\x80\x00"; "\x81\x00"; "\xff\xff\xff\xff\xff\xff\xff\xff\x7f";
      "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x00"; "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01";
      "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x00";
      "\x81\x80\x80\x80\x80\x80\x80\x80\x80\x02"; "\xff\xff\xff\xff\xff\xff\xff\xff\x40"; "" ]
  in
  let strings =
    List.map (Wire.encode Wire.string) [ ""; "a"; "abc"; String.make 130 's' ]
    @ [ "\x83\x00abc"; "\x03abcd"; "\x05ab"; "\xff\xff\xff\xff\xff\xff\xff\xff\x7fx" ]
  in
  let runs =
    List.init 40 (fun _ ->
        String.concat ""
          (List.map
             (fun _ ->
               match Rng.int rng 5 with
               | 0 -> encoded (Rng.int rng 3)
               | 1 -> "\x81\x00"
               | _ -> List.nth clean (Rng.int rng (List.length clean)))
             (Array.to_list header_fields)))
  in
  let random = List.init 400 (fun _ -> String.init (Rng.int rng 12) (fun _ -> Char.chr (Rng.int rng 256))) in
  let cases =
    List.concat_map
      (fun f -> f :: List.init (String.length f) (fun n -> String.sub f 0 n))
      (clean @ odd @ strings @ runs)
    @ random
  in
  (* The decoder's answer on [bytes] inside [s]: [Some (value, end)], or
     [None] where it raises. *)
  let decode s ~off bytes read =
    let d = Wire.Dec.of_slice (Wire.Slice.make s ~off ~len:(String.length bytes)) in
    match read d with
    | v -> Some (v, off + String.length bytes - Wire.Dec.remaining d)
    | exception Wire.Malformed _ -> None
  in
  (* A reject must leave the cursor where it was. *)
  let rejected pos ~off =
    if !pos <> off then Alcotest.failf "a cursor reader moved the cursor on a reject";
    None
  in
  let peek s ~off ~limit read =
    let pos = ref off in
    match read s pos ~limit with
    | -1 -> rejected pos ~off
    | v -> Some (v, !pos)
  in
  let span s ~off ~limit read =
    let pos = ref off in
    match read s pos ~limit with
    | -1 -> rejected pos ~off
    | o -> Some (String.sub s o (!pos - o), !pos)
  in
  let outcomes = Hashtbl.create 8 in
  let seen name v = Hashtbl.replace outcomes (name, Option.is_some v) () in
  List.iter
    (fun bytes ->
      let pad = String.make (Rng.int rng 3) '\x81' in
      let s = pad ^ bytes ^ "\x05" in
      let off = String.length pad in
      let limit = off + String.length bytes in
      let agree name expected got =
        seen name got;
        if expected <> got then
          Alcotest.failf "%s disagrees with its decoder on %s" name (Wire.to_hex bytes)
      in
      agree "peek_uint" (decode s ~off bytes Wire.Dec.uint)
        (peek s ~off ~limit Wire.Dec.peek_uint);
      let partial =
        let pos = ref off in
        match Wire.Dec.peek_uint_partial s pos ~limit with
        | -1 -> `Bad
        | -2 -> `Short
        | v -> `Value (v, !pos)
      in
      let expected_partial =
        let d = Wire.Dec.of_slice (Wire.Slice.make s ~off ~len:(String.length bytes)) in
        match Wire.Dec.uint d with
        | v -> `Value (v, limit - Wire.Dec.remaining d)
        | exception Wire.Malformed "unexpected end of input" -> `Short
        | exception Wire.Malformed _ -> `Bad
      in
      if partial <> expected_partial then
        Alcotest.failf "peek_uint_partial disagrees with uint on %s" (Wire.to_hex bytes);
      agree "peek_string"
        (decode s ~off bytes Wire.Dec.string)
        (span s ~off ~limit Wire.Dec.peek_string);
      agree "peek_last_string"
        (decode s ~off bytes (fun d ->
             let v = Wire.Dec.string d in
             if Wire.Dec.remaining d <> 0 then raise (Wire.Malformed "trailing bytes");
             v))
        (span s ~off ~limit Wire.Dec.peek_last_string);
      let values = Array.make (Array.length header_fields) (-1) in
      agree "peek_fields"
        (decode s ~off bytes (fun d ->
             Array.to_list
               (Array.map
                  (function
                    | Wire.Dec.Uint -> Wire.Dec.uint d
                    | Wire.Dec.Side -> Side.to_int (Wire.side.Wire.read d))
                  header_fields)))
        (match peek s ~off ~limit (fun s pos ~limit -> Wire.Dec.peek_fields s pos ~limit header_fields values) with
        | Some (stop, pos) when stop = pos -> Some (Array.to_list values, pos)
        | Some _ -> Alcotest.failf "peek_fields returned an end that is not its cursor"
        | None -> None))
    cases;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " accepts and rejects") true
        (Hashtbl.mem outcomes (name, true) && Hashtbl.mem outcomes (name, false)))
    [ "peek_uint"; "peek_string"; "peek_last_string"; "peek_fields" ]

(* [Enc.uint] into a reused encoder and every cursor reader allocate
   nothing: a varint write or a field read on the message path costs no
   minor words. *)
let test_cursor_readers_allocate_nothing () =
  let e = Wire.Enc.create () in
  let pair = Wire.encode (Wire.pair Wire.string Wire.string) ("tag", String.make 200 'p') in
  let run = Wire.encode (Wire.pair Wire.party_id Wire.party_id) (Party_id.right 3, Party_id.left 300) in
  let header = run ^ Wire.encode (Wire.pair Wire.uint Wire.uint) (70_000, 12) in
  let values = Array.make (Array.length header_fields) 0 in
  let pos = ref 0 in
  let pass () =
    for i = 0 to 999 do
      Wire.Enc.reset e;
      Wire.Enc.uint e (i * 1_000_003);
      Wire.Enc.uint e max_int;
      pos := 0;
      ignore (Wire.Dec.peek_uint header pos ~limit:(String.length header));
      pos := 0;
      ignore (Wire.Dec.peek_uint_partial pair pos ~limit:1);
      pos := 0;
      ignore (Wire.Dec.peek_string pair pos ~limit:(String.length pair));
      ignore (Wire.Dec.peek_last_string pair pos ~limit:(String.length pair));
      pos := 0;
      ignore (Wire.Dec.peek_fields header pos ~limit:(String.length header) header_fields values)
    done
  in
  pass ();
  let before = Gc.minor_words () in
  pass ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.)) "minor words over 1000 passes" 0. words

(* --- random fuzzing ---------------------------------------------------------- *)

let nested_codec =
  Wire.list (Wire.pair Wire.party_id (Wire.option (Wire.list Wire.int)))

let gen_value rng =
  List.init (Rng.int rng 6) (fun _ ->
      ( Party_id.make (if Rng.bool rng then Side.Left else Side.Right) (Rng.int rng 50),
        if Rng.bool rng then None
        else Some (List.init (Rng.int rng 5) (fun _ -> Rng.int rng 2000 - 1000)) ))

let prop_nested_roundtrip =
  QCheck.Test.make ~name:"nested codec roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let v = gen_value (Rng.make seed) in
      match roundtrip nested_codec v with
      | Ok v' -> v = v'
      | Error _ -> false)

let prop_decoder_never_crashes_on_garbage =
  (* Decoders must return Error, never raise, on arbitrary bytes — this is
     the byzantine-input path of every protocol. *)
  QCheck.Test.make ~name:"garbage never crashes decoders" ~count:500
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Rng.make seed in
      let garbage =
        String.init (Rng.int rng 60) (fun _ -> Char.chr (Rng.int rng 256))
      in
      match Wire.decode nested_codec garbage with
      | Ok _ | Error _ -> true)

let qcheck = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "wire"
    [
      ( "primitives",
        [
          Alcotest.test_case "uint roundtrip" `Quick test_uint_roundtrip;
          Alcotest.test_case "uint rejects negative" `Quick test_uint_rejects_negative;
          Alcotest.test_case "int roundtrip" `Quick test_int_roundtrip;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "bool roundtrip" `Quick test_bool_roundtrip;
          Alcotest.test_case "bool rejects junk" `Quick test_bool_rejects_junk;
        ] );
      ( "combinators",
        [
          Alcotest.test_case "list" `Quick test_list_roundtrip;
          Alcotest.test_case "option/pair/triple" `Quick test_option_pair_triple;
          Alcotest.test_case "trailing bytes rejected" `Quick test_trailing_bytes_rejected;
          Alcotest.test_case "truncated rejected" `Quick test_truncated_rejected;
          Alcotest.test_case "unknown variant tag rejected" `Quick
            test_variant_unknown_tag_rejected;
          Alcotest.test_case "canonical encoding" `Quick test_canonical_encoding;
        ] );
      ( "encoder reuse",
        [
          Alcotest.test_case "encode_into matches encode" `Quick
            test_encode_into_matches_encode;
          Alcotest.test_case "reset clears" `Quick test_enc_reset_clears;
          Alcotest.test_case "nested encode safe" `Quick test_nested_encode_safe;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "overlong varint rejected" `Quick
            test_overlong_varint_rejected;
          Alcotest.test_case "overflowing varint rejected" `Quick
            test_overflowing_varint_rejected;
          Alcotest.test_case "peek_uint matches uint" `Quick test_peek_uint_matches_uint;
          Alcotest.test_case "cursor readers allocate nothing" `Quick
            test_cursor_readers_allocate_nothing;
          Alcotest.test_case "10-byte boundary still decodes" `Quick
            test_noncanonical_varint_roundtrip_boundary;
          Alcotest.test_case "forged string length rejected" `Quick
            test_forged_string_length_rejected;
          Alcotest.test_case "string length near max_int rejected" `Quick
            test_forged_string_length_near_max_int;
          Alcotest.test_case "forged list count rejected" `Quick
            test_forged_list_count_rejected;
          Alcotest.test_case "float roundtrip (incl. specials)" `Quick
            test_float_roundtrip;
          Alcotest.test_case "hex roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "hex rejects junk" `Quick test_hex_rejects_junk;
        ] );
      ( "fuzz",
        [ qcheck prop_nested_roundtrip; qcheck prop_decoder_never_crashes_on_garbage ] );
    ]
