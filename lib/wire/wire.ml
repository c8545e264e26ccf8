open Bsm_prelude

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

(* The side rule, written once: side [s] travels as the uint
   [Side.to_int s], so a side field holds 0 or 1 and nothing else. *)
let is_side_code n = n = 0 || n = 1

module Enc = struct
  type t = Buffer.t

  let create ?(size = 64) () = Buffer.create size
  let to_string = Buffer.contents

  (* Forget the written bytes but keep the underlying storage, so one
     encoder can serve a whole protocol run without reallocating. *)
  let reset = Buffer.clear

  (* LEB128 over the full word, treating it as unsigned ([lsr], no sign
     check) so that zigzagged extreme values survive. A top-level loop,
     so a call allocates no closure. *)
  let rec raw t n =
    if n land lnot 0x7f = 0 then Buffer.add_char t (Char.unsafe_chr n)
    else begin
      Buffer.add_char t (Char.unsafe_chr (0x80 lor (n land 0x7f)));
      raw t (n lsr 7)
    end

  let uint t n =
    if n < 0 then invalid_arg "Wire.Enc.uint: negative";
    raw t n

  (* Zigzag: maps 0,-1,1,-2,... to 0,1,2,3,... *)
  let int t n = raw t ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

  let bool t b = Buffer.add_char t (if b then '\001' else '\000')

  let string t s =
    uint t (String.length s);
    Buffer.add_string t s

  let tag t n =
    if n < 0 || n > 255 then invalid_arg "Wire.Enc.tag: out of range";
    Buffer.add_char t (Char.chr n)

  (* Arena view: the message plane appends many frames into one encoder
     and carves them back out as [(offset, len)] spans, so the write
     position and raw appends are part of the interface. *)
  let length = Buffer.length
  let append t s = Buffer.add_string t s
  let append_sub t s ~off ~len = Buffer.add_substring t s off len
  let append_enc t e = Buffer.add_buffer t e
  let blit = Buffer.blit

  (* Roll back a failed in-place encode: a codec that raises mid-write
     must not leave half a frame in the arena. *)
  let truncate = Buffer.truncate
end

module Slice = struct
  type t = {
    base : string;
    off : int;
    len : int;
  }

  let of_string base = { base; off = 0; len = String.length base }

  (* The guard is phrased to avoid [off + len] overflow on forged
     lengths near [max_int]. *)
  let make base ~off ~len =
    if off < 0 || len < 0 || off > String.length base - len then
      invalid_arg "Wire.Slice.make: out of bounds";
    { base; off; len }

  let length t = t.len
  let is_empty t = t.len = 0

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Wire.Slice.get: out of bounds";
    String.unsafe_get t.base (t.off + i)

  let to_string t =
    if t.off = 0 && t.len = String.length t.base then t.base
    else String.sub t.base t.off t.len

  let rec equal_from a b i =
    i >= a.len
    || String.unsafe_get a.base (a.off + i) = String.unsafe_get b.base (b.off + i)
       && equal_from a b (i + 1)

  let equal a b = a.len = b.len && equal_from a b 0

  (* FNV-1a over the view's bytes. *)
  let hash t =
    let h = ref 0x811c9dc5 in
    for i = t.off to t.off + t.len - 1 do
      h := (!h lxor Char.code (String.unsafe_get t.base i)) * 0x01000193
    done;
    !h land max_int
end

module Dec = struct
  (* A decoder is a bounds-pinned view [pos .. limit) into [data]: for a
     whole-string decode [limit] is the string length, for an arena span
     it is the span's end. Every hardening check compares against
     [limit], never [String.length data], so adversarial lengths cannot
     read a neighbouring frame's bytes out of the shared arena. *)
  type t = {
    data : string;
    mutable pos : int;
    limit : int;
  }

  let of_string data = { data; pos = 0; limit = String.length data }

  let of_slice (s : Slice.t) =
    { data = s.Slice.base; pos = s.Slice.off; limit = s.Slice.off + s.Slice.len }

  let byte t =
    if t.pos >= t.limit then malformed "unexpected end of input";
    let c = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    c

  (* Varints are bounded at 10 bytes (the LEB128 width of a 64-bit word)
     and every continuation must fit the OCaml word: a byzantine frame of
     0x80 repeated can neither loop nor shift bits off the end of the
     accumulator unnoticed. *)
  let max_varint_bytes = 10

  let rec raw_from t n shift acc =
    if n >= max_varint_bytes then malformed "varint longer than 10 bytes";
    let b = byte t in
    let bits = b land 0x7f in
    let acc =
      if shift >= Sys.int_size then
        if bits = 0 then acc else malformed "varint overflows the word"
      else begin
        if bits lsr (Sys.int_size - shift) <> 0 then malformed "varint overflows the word";
        acc lor (bits lsl shift)
      end
    in
    if b land 0x80 = 0 then acc else raw_from t (n + 1) (shift + 7) acc

  (* A top-level loop, so a call allocates no closure. *)
  let raw t = raw_from t 0 0 0

  let uint t =
    let n = raw t in
    if n < 0 then malformed "varint overflow";
    n

  (* --- cursor readers (contract in the interface) ----------------------- *)

  (* [raw] and [uint]'s checks, with [-1] where they raise [Malformed]
     for a malformed varint and [-2] where they raise it only because
     the input ends at [limit]. *)
  let rec varint_from s pos limit p n shift acc =
    if n >= max_varint_bytes then -1
    else if p >= limit then -2
    else begin
      let b = Char.code (String.unsafe_get s p) in
      let bits = b land 0x7f in
      if shift >= Sys.int_size && bits <> 0 then -1
      else if shift < Sys.int_size && bits lsr (Sys.int_size - shift) <> 0 then -1
      else begin
        let acc = if shift >= Sys.int_size then acc else acc lor (bits lsl shift) in
        if b land 0x80 <> 0 then varint_from s pos limit (p + 1) (n + 1) (shift + 7) acc
        else if acc < 0 then -1
        else begin
          pos := p + 1;
          acc
        end
      end
    end

  (* A varint that is not one byte. Two bytes cannot overflow, so they
     skip the loop's checks: the common long case, ids and lengths below
     16,384. *)
  let long_varint s pos limit p =
    if p + 1 < limit && Char.code (String.unsafe_get s (p + 1)) < 0x80 then begin
      pos := p + 2;
      Char.code (String.unsafe_get s p) land 0x7f
      lor (Char.code (String.unsafe_get s (p + 1)) lsl 7)
    end
    else varint_from s pos limit p 0 0 0

  let[@inline] varint s pos limit =
    let p = !pos in
    if p < limit && Char.code (String.unsafe_get s p) < 0x80 then begin
      (* A one-byte varint: the value is the byte. *)
      pos := p + 1;
      Char.code (String.unsafe_get s p)
    end
    else long_varint s pos limit p

  let peek_uint_partial s pos ~limit = varint s pos limit

  let peek_uint s pos ~limit =
    let n = varint s pos limit in
    if n = -2 then -1 else n

  (* [string]'s checks; [last] adds [expect_end]'s. *)
  let[@inline] span s pos limit ~last =
    let start = !pos in
    let len = varint s pos limit in
    let off = !pos in
    if len < 0 || len > limit - off || (last && len < limit - off) then begin
      pos := start;
      -1
    end
    else begin
      pos := off + len;
      off
    end

  let peek_string s pos ~limit = span s pos limit ~last:false
  let peek_last_string s pos ~limit = span s pos limit ~last:true

  type field =
    | Uint
    | Side

  (* Whether [v], what [uint] read or [-1], is a value of [field]. *)
  let[@inline] field_ok field v =
    match field with
    | Uint -> v >= 0
    | Side -> is_side_code v

  (* Field [i] onwards from [p], [n] fields in all. A one-byte varint is
     read in the loop; a longer one leaves it through a tail call, so the
     loop keeps its state in registers. *)
  let rec fields_from s pos limit fields values n start i p =
    if i = n then begin
      pos := p;
      p
    end
    else if p < limit && Char.code (String.unsafe_get s p) < 0x80 then begin
      let v = Char.code (String.unsafe_get s p) in
      if field_ok (Array.unsafe_get fields i) v then begin
        Array.unsafe_set values i v;
        fields_from s pos limit fields values n start (i + 1) (p + 1)
      end
      else begin
        pos := start;
        -1
      end
    end
    else long_field s pos limit fields values n start i p

  and long_field s pos limit fields values n start i p =
    pos := p;
    let v = long_varint s pos limit p in
    if field_ok (Array.unsafe_get fields i) v then begin
      Array.unsafe_set values i v;
      fields_from s pos limit fields values n start (i + 1) !pos
    end
    else begin
      pos := start;
      -1
    end

  let peek_fields s pos ~limit fields values =
    if Array.length values < Array.length fields then
      invalid_arg "Wire.Dec.peek_fields: values shorter than fields"
    else fields_from s pos limit fields values (Array.length fields) !pos 0 !pos

  let int t =
    let n = raw t in
    (n lsr 1) lxor (- (n land 1))

  let bool t =
    match byte t with
    | 0 -> false
    | 1 -> true
    | b -> malformed "invalid bool byte %d" b

  let remaining t = t.limit - t.pos

  (* Compare against [remaining], never [t.pos + len]: a forged length
     near [max_int] would overflow the addition and sail past the bounds
     check into a giant allocation. *)
  let string t =
    let len = uint t in
    if len > remaining t then malformed "string length %d exceeds %d remaining bytes" len (remaining t);
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  (* For length-prefixed sequences: every well-formed element consumes at
     least [per_element] bytes (0 allowed), so a count beyond the
     remaining input is malformed — reject it before allocating
     anything. *)
  let check_count t n =
    if n > remaining t then
      malformed "count %d exceeds %d remaining bytes" n (remaining t)

  let tag = byte

  let expect_end t =
    if t.pos <> t.limit then malformed "trailing bytes: %d remaining" (t.limit - t.pos)
end

type 'a t = {
  write : Enc.t -> 'a -> unit;
  read : Dec.t -> 'a;
}

let encode_into e c v =
  Enc.reset e;
  c.write e v;
  Enc.to_string e

(* [encode] serves every protocol's per-message serialization, so it reuses
   one scratch encoder per domain instead of allocating a fresh [Buffer.t]
   (struct + backing bytes) each call. The slot is emptied while in use: a
   nested [encode] (a codec whose argument was itself encoded mid-write)
   falls back to a fresh buffer rather than clobbering the outer one.
   Domain-local storage keeps parallel sweeps race-free. *)
type scratch = { mutable spare : Enc.t option }

let scratch_key = Domain.DLS.new_key (fun () -> { spare = None })

(* Don't let one huge message pin a large buffer for the domain's
   lifetime. *)
let scratch_retain_limit = 1 lsl 16

let give_back slot e =
  if Buffer.length e <= scratch_retain_limit then begin
    Enc.reset e;
    slot.spare <- Some e
  end

let encode c v =
  let slot = Domain.DLS.get scratch_key in
  let e =
    match slot.spare with
    | Some e ->
      slot.spare <- None;
      e
    | None -> Enc.create ()
  in
  match c.write e v with
  | () ->
    let s = Enc.to_string e in
    give_back slot e;
    s
  | exception exn ->
    give_back slot e;
    raise exn

let decode_exn c s =
  let d = Dec.of_string s in
  let v = c.read d in
  Dec.expect_end d;
  v

let decode c s =
  match decode_exn c s with
  | v -> Ok v
  | exception Malformed msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let decode_slice_exn c s =
  let d = Dec.of_slice s in
  let v = c.read d in
  Dec.expect_end d;
  v

let decode_slice c s =
  match decode_slice_exn c s with
  | v -> Ok v
  | exception Malformed msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let uint = { write = Enc.uint; read = Dec.uint }
let int = { write = Enc.int; read = Dec.int }
let bool = { write = Enc.bool; read = Dec.bool }
let string = { write = Enc.string; read = Dec.string }
let unit = { write = (fun _ () -> ()); read = (fun _ -> ()) }

(* Two 32-bit halves, low first, each a non-negative varint on any OCaml
   word size. Canonical: a half outside 32 bits is never written, so
   reading one is malformed. *)
let int64 =
  let write e v =
    Enc.uint e (Int64.to_int (Int64.logand v 0xFFFFFFFFL));
    Enc.uint e (Int64.to_int (Int64.shift_right_logical v 32))
  in
  let read d =
    let lo = Dec.uint d in
    let hi = Dec.uint d in
    if lo land lnot 0xFFFFFFFF <> 0 || hi land lnot 0xFFFFFFFF <> 0 then
      malformed "int64 half out of 32-bit range";
    Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)
  in
  { write; read }

let list c =
  let write e xs =
    Enc.uint e (List.length xs);
    List.iter (c.write e) xs
  in
  let read d =
    let n = Dec.uint d in
    Dec.check_count d n;
    List.init n (fun _ -> c.read d)
  in
  { write; read }

let option c =
  let write e = function
    | None -> Enc.bool e false
    | Some v ->
      Enc.bool e true;
      c.write e v
  in
  let read d = if Dec.bool d then Some (c.read d) else None in
  { write; read }

let pair ca cb =
  let write e (a, b) =
    ca.write e a;
    cb.write e b
  in
  let read d =
    let a = ca.read d in
    let b = cb.read d in
    a, b
  in
  { write; read }

let triple ca cb cc =
  let write e (a, b, c) =
    ca.write e a;
    cb.write e b;
    cc.write e c
  in
  let read d =
    let a = ca.read d in
    let b = cb.read d in
    let c = cc.read d in
    a, b, c
  in
  { write; read }

let map ~inject ~project c =
  { write = (fun e v -> c.write e (project v)); read = (fun d -> inject (c.read d)) }

(* The IEEE-754 bits: equal bit patterns give equal bytes, so nan
   payloads and signed zeros survive the round trip. *)
let float = map ~inject:Int64.float_of_bits ~project:Int64.bits_of_float int64

(* The tag rule of every enumeration, written once: a value travels as
   the uint of its position in [values]. *)
let enum ~name values =
  let table = Array.of_list values in
  let inject n =
    if n < Array.length table then table.(n) else malformed "%s: unknown tag %d" name n
  in
  let rec position v i =
    if i = Array.length table then invalid_arg (name ^ ": value not in the enumeration")
    else if table.(i) = v then i
    else position v (i + 1)
  in
  map ~inject ~project:(fun v -> position v 0) uint

type ('v, 'a) case_ = {
  case_tag : int;
  codec : 'a t;
  inject : 'a -> 'v;
  match_ : 'v -> 'a option;
}

let case case_tag codec ~inject ~match_ = { case_tag; codec; inject; match_ }

type 'v packed_case = Packed : ('v, 'a) case_ -> 'v packed_case

let pack c = Packed c

let variant ~name cases =
  let write e v =
    let rec go = function
      | [] -> invalid_arg (name ^ ": no matching variant case")
      | Packed c :: rest -> begin
        match c.match_ v with
        | Some payload ->
          Enc.tag e c.case_tag;
          c.codec.write e payload
        | None -> go rest
      end
    in
    go cases
  in
  let read d =
    let t = Dec.tag d in
    let rec go = function
      | [] -> malformed "%s: unknown tag %d" name t
      | Packed c :: rest ->
        if c.case_tag = t then c.inject (c.codec.read d) else go rest
    in
    go cases
  in
  { write; read }

let side =
  let inject n = if is_side_code n then Side.of_int n else malformed "invalid side %d" n in
  map ~inject ~project:Side.to_int uint

let party_id =
  map
    ~inject:(fun (s, i) -> Party_id.make s i)
    ~project:(fun p -> Party_id.side p, Party_id.index p)
    (pair side uint)

(* --- hex ---------------------------------------------------------------- *)

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let of_hex s =
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> malformed "invalid hex digit %C" c
  in
  let n = String.length s in
  if n mod 2 <> 0 then malformed "odd-length hex string";
  String.init (n / 2) (fun i -> Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
