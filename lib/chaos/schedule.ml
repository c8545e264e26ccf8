open Bsm_prelude
module Engine = Bsm_runtime.Engine
module Wire = Bsm_wire.Wire

type atom =
  | Bernoulli of float
  | Crash of Party_id.t  (** window start is the crash round *)
  | Send_omission of Party_id.t * float
  | Receive_omission of Party_id.t * float
  | Partition of Party_set.t * Party_set.t
  | Blackout
  | Corrupt of Party_id.t * Mutation.kind * float
  | Sabotage of Party_id.t  (** window start is the sabotage round *)
  | Corrupt_state of Party_id.t * float

type t =
  | Never
  | Atom of {
      atom : atom;
      lo : int;
      hi : int;  (** exclusive; [max_int] = unbounded *)
    }
  | Union of t * t
  | During of int * int * t
  | Restrict of Side.t * t

let check_rate what rate =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg (Printf.sprintf "Schedule.%s: rate %g not in [0, 1]" what rate)

let check_window what from_round until_round =
  if from_round < 0 || until_round < from_round then
    invalid_arg
      (Printf.sprintf "Schedule.%s: bad round window [%d, %d)" what from_round
         until_round)

let never = Never
let unbounded atom = Atom { atom; lo = 0; hi = max_int }

let bernoulli ~rate =
  check_rate "bernoulli" rate;
  if rate = 0. then Never else unbounded (Bernoulli rate)

let crash p ~at_round =
  if at_round < 0 then invalid_arg "Schedule.crash: negative round";
  Atom { atom = Crash p; lo = at_round; hi = max_int }

let send_omission ~rate p =
  check_rate "send_omission" rate;
  if rate = 0. then Never else unbounded (Send_omission (p, rate))

let receive_omission ~rate p =
  check_rate "receive_omission" rate;
  if rate = 0. then Never else unbounded (Receive_omission (p, rate))

let partition ~from_round ~until_round a b =
  check_window "partition" from_round until_round;
  let a = Party_set.of_list a and b = Party_set.of_list b in
  if Party_set.is_empty a || Party_set.is_empty b then Never
  else Atom { atom = Partition (a, b); lo = from_round; hi = until_round }

let blackout ~from_round ~until_round =
  check_window "blackout" from_round until_round;
  Atom { atom = Blackout; lo = from_round; hi = until_round }

let corrupt ~rate ~kind p =
  check_rate "corrupt" rate;
  if rate = 0. then Never else unbounded (Corrupt (p, kind, rate))

let sabotage p ~at_round =
  if at_round < 0 then invalid_arg "Schedule.sabotage: negative round";
  Atom { atom = Sabotage p; lo = at_round; hi = max_int }

let corrupt_state ~rate p ~at_round =
  check_rate "corrupt_state" rate;
  if at_round < 0 then invalid_arg "Schedule.corrupt_state: negative round";
  if rate = 0. then Never
  else Atom { atom = Corrupt_state (p, rate); lo = at_round; hi = at_round + 1 }

let union a b =
  match a, b with
  | Never, s | s, Never -> s
  | a, b -> Union (a, b)

let all ts = List.fold_left union Never ts

let during ~from_round ~until_round s =
  check_window "during" from_round until_round;
  match s with
  | Never -> Never
  | s -> During (from_round, until_round, s)

let restrict_to_side side s =
  match s with
  | Never -> Never
  | s -> Restrict (side, s)

(* --- rendering ----------------------------------------------------------- *)

let pct rate = Printf.sprintf "%g%%" (100. *. rate)

let set_to_string s =
  "{" ^ String.concat "," (List.map Party_id.to_string (Party_set.elements s)) ^ "}"

let window_to_string lo hi =
  if lo = 0 && hi = max_int then ""
  else if hi = max_int then Printf.sprintf ",r%d.." lo
  else Printf.sprintf ",r%d..%d" lo (hi - 1)

let atom_label atom lo hi =
  match atom with
  | Bernoulli rate -> Printf.sprintf "drop(%s%s)" (pct rate) (window_to_string lo hi)
  | Crash p -> Printf.sprintf "crash(%s@%d)" (Party_id.to_string p) lo
  | Send_omission (p, rate) ->
    Printf.sprintf "send-omit(%s,%s%s)" (Party_id.to_string p) (pct rate)
      (window_to_string lo hi)
  | Receive_omission (p, rate) ->
    Printf.sprintf "recv-omit(%s,%s%s)" (Party_id.to_string p) (pct rate)
      (window_to_string lo hi)
  | Partition (a, b) ->
    Printf.sprintf "partition(%s|%s%s)" (set_to_string a) (set_to_string b)
      (window_to_string lo hi)
  | Blackout -> (
    match window_to_string lo hi with
    | "" -> "blackout(all)"
    | w -> Printf.sprintf "blackout(%s)" (String.sub w 1 (String.length w - 1)))
  | Corrupt (p, kind, rate) ->
    Printf.sprintf "corrupt(%s,%s,%s%s)" (Party_id.to_string p)
      (Mutation.to_string kind) (pct rate) (window_to_string lo hi)
  | Sabotage p -> Printf.sprintf "sabotage(%s@%d)" (Party_id.to_string p) lo
  | Corrupt_state (p, rate) ->
    Printf.sprintf "corrupt-state(%s@%d,%s)" (Party_id.to_string p) lo (pct rate)

(* --- compilation --------------------------------------------------------- *)

(* Labels outlive the run that compiled them (the engine's per-label
   counts keep them), and a sweep compiles the same few components over
   and over: keep one copy of each label per domain, up to a bound. *)
let labels = Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let shared_label s =
  let tbl = Domain.DLS.get labels in
  match Hashtbl.find_opt tbl s with
  | Some l -> l
  | None ->
    if Hashtbl.length tbl >= 1024 then Hashtbl.reset tbl;
    Hashtbl.add tbl s s;
    s

(* A schedule flattens to atoms with their effective window, sender-side
   restriction, and a salt (pre-order position) that decorrelates the
   probabilistic components. *)
type flat = {
  f_label : string;
  f_salt : int;
  f_lo : int;
  f_hi : int;
  f_side : Side.t option;
  f_atom : atom;
}

let flatten t =
  let next_salt = ref 0 in
  let rec go lo hi side acc = function
    | Never -> acc
    | Atom { atom; lo = alo; hi = ahi } ->
      let salt = !next_salt in
      incr next_salt;
      let lo = max lo alo and hi = min hi ahi in
      if lo >= hi then acc
      else
        {
          f_label = shared_label (atom_label atom lo hi);
          f_salt = salt;
          f_lo = lo;
          f_hi = hi;
          f_side = side;
          f_atom = atom;
        }
        :: acc
    | Union (a, b) -> go lo hi side (go lo hi side acc a) b
    | During (dlo, dhi, s) -> go (max lo dlo) (min hi dhi) side acc s
    | Restrict (s', s) ->
      let side =
        match side with
        | None -> Some s'
        | Some existing -> if Side.equal existing s' then side else
            (* contradictory restrictions: nothing can match *)
            None
      in
      (match side, s with
      | None, _ -> acc (* contradictory; prune the subtree *)
      | Some _, s -> go lo hi side acc s)
  in
  List.rev (go 0 max_int None [] t)

let is_empty t = flatten t = []

let describe t =
  match flatten t with
  | [] -> "none"
  | flats ->
    String.concat " + "
      (List.map
         (fun f ->
           match f.f_side with
           | None -> f.f_label
           | Some s -> Printf.sprintf "%s-sends:%s" (Side.to_string s) f.f_label)
         flats)

let pp ppf t = Format.pp_print_string ppf (describe t)

let party_key p =
  (2 * Party_id.index p)
  + (match Party_id.side p with Side.Left -> 0 | Side.Right -> 1)

(* The stateless coin: uniform in [0,1) from (seed, salt, round, src, dst). *)
let chance ~seed ~salt ~round ~src ~dst rate =
  let h = Rng.mix64 (Int64.of_int seed) in
  let h = Rng.mix64_absorb h salt in
  let h = Rng.mix64_absorb h round in
  let h = Rng.mix64_absorb h (party_key src) in
  let h = Rng.mix64_absorb h (party_key dst) in
  Rng.uniform_of_hash h < rate

let hits ~seed f ~round ~src ~dst =
  round >= f.f_lo
  && round < f.f_hi
  && (match f.f_side with
     | None -> true
     | Some s -> Side.equal (Party_id.side src) s)
  &&
  match f.f_atom with
  | Bernoulli rate -> chance ~seed ~salt:f.f_salt ~round ~src ~dst rate
  | Crash p -> Party_id.equal src p
  | Send_omission (p, rate) ->
    Party_id.equal src p && chance ~seed ~salt:f.f_salt ~round ~src ~dst rate
  | Receive_omission (p, rate) ->
    Party_id.equal dst p && chance ~seed ~salt:f.f_salt ~round ~src ~dst rate
  | Partition (a, b) ->
    (Party_set.mem src a && Party_set.mem dst b)
    || (Party_set.mem src b && Party_set.mem dst a)
  | Blackout -> true
  | Corrupt _ -> false (* corrupts, never drops *)
  | Corrupt_state _ -> false (* scrambles state, never drops frames *)
  | Sabotage p -> Party_id.equal src p

(* The mutation content hash: same inputs as the {!chance} coin plus one
   extra absorbed constant, so which bytes a mutation rewrites is
   independent of whether it fires. *)
let corrupt_hash ~seed ~salt ~round ~src ~dst =
  let h = Rng.mix64 (Int64.of_int seed) in
  let h = Rng.mix64_absorb h salt in
  let h = Rng.mix64_absorb h round in
  let h = Rng.mix64_absorb h (party_key src) in
  let h = Rng.mix64_absorb h (party_key dst) in
  Rng.mix64_absorb h 0xc0447 (* "corrupt" *)

(* State scrambles hash (seed, component, round, party, cell): the coin
   absorbs the cell index so whether one cell is hit is independent of
   its siblings', and a distinct final constant keeps scramble decisions
   decorrelated from the message-plane coins of the same component. *)
let scramble_base ~seed ~salt ~round ~party ~cell =
  let h = Rng.mix64 (Int64.of_int seed) in
  let h = Rng.mix64_absorb h salt in
  let h = Rng.mix64_absorb h round in
  let h = Rng.mix64_absorb h (party_key party) in
  Rng.mix64_absorb h cell

let scramble_coin ~seed ~salt ~round ~party ~cell rate =
  let h = scramble_base ~seed ~salt ~round ~party ~cell in
  Rng.uniform_of_hash (Rng.mix64_absorb h 0x5c4a) < rate (* "scram" *)

(* The mutation content additionally absorbs the attempt counter: a
   retry after an undecodable candidate draws fresh bytes while the
   firing decision stands. *)
let scramble_hash ~seed ~salt ~round ~party ~cell ~attempt =
  let h = scramble_base ~seed ~salt ~round ~party ~cell in
  Rng.mix64_absorb (Rng.mix64_absorb h 0x57a7e) attempt (* "state" *)

let compile ~seed t =
  let flats = flatten t in
  let drop ~round ~src ~dst =
    List.exists (fun f -> hits ~seed f ~round ~src ~dst) flats
  in
  let label ~round ~src ~dst =
    List.find_map
      (fun f -> if hits ~seed f ~round ~src ~dst then Some f.f_label else None)
      flats
  in
  let corrupters =
    List.filter
      (fun f ->
        match f.f_atom with
        | Corrupt _ -> true
        | _ -> false)
      flats
  in
  let scramblers =
    List.filter
      (fun f ->
        match f.f_atom with
        | Corrupt_state _ -> true
        | _ -> false)
      flats
  in
  (* Hooks stay [None] when no component needs them, so the fault model
     keeps the physical [no_corrupt] / [no_scramble] defaults and the
     engine skips replay-memory upkeep / registry sweeps entirely. *)
  let corrupt =
    match corrupters with
    | [] -> None
    | _ :: _ ->
      Some
        (fun ~round ~src ~dst ~prev payload ->
          List.find_map
            (fun f ->
              match f.f_atom with
              | Corrupt (p, kind, rate)
                when round >= f.f_lo && round < f.f_hi
                     && (match f.f_side with
                        | None -> true
                        | Some s -> Side.equal (Party_id.side src) s)
                     && Party_id.equal src p
                     && chance ~seed ~salt:f.f_salt ~round ~src ~dst rate ->
                let hash = corrupt_hash ~seed ~salt:f.f_salt ~round ~src ~dst in
                Option.map
                  (fun bytes -> bytes, f.f_label)
                  (Mutation.apply ~hash ~src ~prev kind payload)
              | _ -> None)
            corrupters)
  in
  let scramble =
    match scramblers with
    | [] -> None
    | _ :: _ ->
      Some
        (fun ~round ~party ~cell ~attempt payload ->
          List.find_map
            (fun f ->
              match f.f_atom with
              | Corrupt_state (p, rate)
                when round >= f.f_lo && round < f.f_hi
                     && (match f.f_side with
                        | None -> true
                        | Some s -> Side.equal (Party_id.side party) s)
                     && Party_id.equal party p
                     && scramble_coin ~seed ~salt:f.f_salt ~round ~party ~cell
                          rate ->
                let hash =
                  scramble_hash ~seed ~salt:f.f_salt ~round ~party ~cell ~attempt
                in
                Some (Mutation.scramble ~hash payload, f.f_label)
              | _ -> None)
            scramblers)
  in
  match corrupt, scramble with
  | None, None -> Engine.fault_model ~label drop
  | Some c, None -> Engine.fault_model ~label ~corrupt:c drop
  | None, Some s -> Engine.fault_model ~label ~scramble:s drop
  | Some c, Some s -> Engine.fault_model ~label ~corrupt:c ~scramble:s drop

(* --- budget attribution -------------------------------------------------- *)

let charged ~k t =
  let side_roster side_opt =
    match side_opt with
    | None -> Party_set.full ~k
    | Some s -> Party_set.of_list (Party_id.side_members s ~k)
  in
  let one side_opt p =
    (* A party-specific sender atom filtered to the other side never
       fires; don't charge it. *)
    match side_opt with
    | Some s when not (Side.equal (Party_id.side p) s) -> Party_set.empty
    | _ -> Party_set.singleton p
  in
  List.fold_left
    (fun acc f ->
      let c =
        match f.f_atom with
        | Bernoulli _ | Blackout -> side_roster f.f_side
        | Crash p | Send_omission (p, _) | Corrupt (p, _, _)
        | Corrupt_state (p, _) ->
          one f.f_side p
        | Receive_omission (p, _) -> Party_set.singleton p
        | Partition (a, b) ->
          if Party_set.cardinal b < Party_set.cardinal a then b else a
        | Sabotage _ ->
          (* Deliberately uncharged: sabotage silences a party {e without}
             paying for it, which is exactly how the harness injects a
             guaranteed oracle violation to exercise the shrinker. *)
          Party_set.empty
      in
      Party_set.union acc c)
    Party_set.empty (flatten t)

(* --- wire codec ---------------------------------------------------------- *)

let party_set_codec =
  Wire.map ~inject:Party_set.of_list ~project:Party_set.elements
    (Wire.list Wire.party_id)

(* Decoder-side rate validation raises [Malformed], not
   [Invalid_argument]: rejecting forged bytes is the wire contract, not a
   caller bug. *)
let decode_rate r =
  if not (r >= 0. && r <= 1.) then
    raise (Wire.Malformed (Printf.sprintf "rate %g not in [0, 1]" r));
  r

let atom_codec =
  let open Wire in
  variant ~name:"Schedule.atom"
    [
      pack
        (case 0 float
           ~inject:(fun r -> Bernoulli (decode_rate r))
           ~match_:(function
             | Bernoulli r -> Some r
             | _ -> None));
      pack
        (case 1 party_id
           ~inject:(fun p -> Crash p)
           ~match_:(function
             | Crash p -> Some p
             | _ -> None));
      pack
        (case 2 (pair party_id float)
           ~inject:(fun (p, r) -> Send_omission (p, decode_rate r))
           ~match_:(function
             | Send_omission (p, r) -> Some (p, r)
             | _ -> None));
      pack
        (case 3 (pair party_id float)
           ~inject:(fun (p, r) -> Receive_omission (p, decode_rate r))
           ~match_:(function
             | Receive_omission (p, r) -> Some (p, r)
             | _ -> None));
      pack
        (case 4
           (pair party_set_codec party_set_codec)
           ~inject:(fun (a, b) -> Partition (a, b))
           ~match_:(function
             | Partition (a, b) -> Some (a, b)
             | _ -> None));
      pack
        (case 5 unit
           ~inject:(fun () -> Blackout)
           ~match_:(function
             | Blackout -> Some ()
             | _ -> None));
      pack
        (case 6
           (triple party_id Mutation.codec float)
           ~inject:(fun (p, kind, r) -> Corrupt (p, kind, decode_rate r))
           ~match_:(function
             | Corrupt (p, kind, r) -> Some (p, kind, r)
             | _ -> None));
      pack
        (case 7 party_id
           ~inject:(fun p -> Sabotage p)
           ~match_:(function
             | Sabotage p -> Some p
             | _ -> None));
      pack
        (case 8 (pair party_id float)
           ~inject:(fun (p, r) -> Corrupt_state (p, decode_rate r))
           ~match_:(function
             | Corrupt_state (p, r) -> Some (p, r)
             | _ -> None));
    ]

(* [hi = max_int] (unbounded) is the common case; bias the encoding so it
   costs one byte rather than a nine-byte varint. *)
let bound_codec =
  Wire.map
    ~inject:(fun n -> if n = 0 then max_int else n - 1)
    ~project:(fun n -> if n = max_int then 0 else n + 1)
    Wire.uint

let max_codec_depth = 1000

let codec : t Wire.t =
  let rec write depth e t =
    if depth > max_codec_depth then
      raise (Wire.Malformed "schedule deeper than 1000 levels");
    match t with
    | Never -> Wire.Enc.tag e 0
    | Atom { atom; lo; hi } ->
      Wire.Enc.tag e 1;
      atom_codec.Wire.write e atom;
      Wire.Enc.uint e lo;
      bound_codec.Wire.write e hi
    | Union (a, b) ->
      Wire.Enc.tag e 2;
      write (depth + 1) e a;
      write (depth + 1) e b
    | During (lo, hi, s) ->
      Wire.Enc.tag e 3;
      Wire.Enc.uint e lo;
      bound_codec.Wire.write e hi;
      write (depth + 1) e s
    | Restrict (side, s) ->
      Wire.Enc.tag e 4;
      Wire.side.Wire.write e side;
      write (depth + 1) e s
  in
  let rec read depth d =
    if depth > max_codec_depth then
      raise (Wire.Malformed "schedule deeper than 1000 levels");
    match Wire.Dec.tag d with
    | 0 -> Never
    | 1 ->
      let atom = atom_codec.Wire.read d in
      let lo = Wire.Dec.uint d in
      let hi = bound_codec.Wire.read d in
      if lo < 0 || hi < lo then
        raise (Wire.Malformed (Printf.sprintf "bad schedule window [%d, %d)" lo hi));
      Atom { atom; lo; hi }
    | 2 ->
      let a = read (depth + 1) d in
      let b = read (depth + 1) d in
      Union (a, b)
    | 3 ->
      let lo = Wire.Dec.uint d in
      let hi = bound_codec.Wire.read d in
      if lo < 0 || hi < lo then
        raise (Wire.Malformed (Printf.sprintf "bad schedule window [%d, %d)" lo hi));
      let s = read (depth + 1) d in
      During (lo, hi, s)
    | 4 ->
      let side = Wire.side.Wire.read d in
      Restrict (side, read (depth + 1) d)
    | n -> raise (Wire.Malformed (Printf.sprintf "Schedule.t: unknown tag %d" n))
  in
  { Wire.write = write 0; read = read 0 }

(* --- shrinker support ----------------------------------------------------- *)

(* Rebuild one flattened component as a standalone schedule: the atom with
   its {e effective} window baked in, re-wrapped in its sender-side
   restriction. Note that component salts are positional, so a subset of
   components re-rolls the probabilistic coins — sound for shrinking
   because every candidate is re-judged by the oracle, it only means a
   removal can fail for coin reasons and be kept. *)
let of_flat f =
  let t = Atom { atom = f.f_atom; lo = f.f_lo; hi = f.f_hi } in
  match f.f_side with
  | None -> t
  | Some s -> Restrict (s, t)

let components t = List.map of_flat (flatten t)

let window t =
  match flatten t with
  | [] -> None
  | flats ->
    Some
      (List.fold_left
         (fun (lo, hi) f -> min lo f.f_lo, max hi f.f_hi)
         (max_int, 0) flats)

let reframe ~from_round ~until_round t =
  check_window "reframe" from_round until_round;
  all
    (List.filter_map
       (fun f ->
         let lo = max f.f_lo from_round and hi = min f.f_hi until_round in
         if lo >= hi then None else Some (of_flat { f with f_lo = lo; f_hi = hi }))
       (flatten t))

let refinements t =
  let flats = flatten t in
  let shrink_set s = List.map (fun p -> Party_set.remove p s) (Party_set.elements s) in
  List.concat
    (List.mapi
       (fun i f ->
         match f.f_atom with
         | Partition (a, b) when Party_set.cardinal a + Party_set.cardinal b > 2 ->
           let variants =
             List.filter_map
               (fun (a', b') ->
                 if Party_set.is_empty a' || Party_set.is_empty b' then None
                 else Some (Partition (a', b')))
               (List.map (fun a' -> a', b) (shrink_set a)
               @ List.map (fun b' -> a, b') (shrink_set b))
           in
           List.map
             (fun atom ->
               all
                 (List.mapi
                    (fun j g -> of_flat (if i = j then { f with f_atom = atom } else g))
                    flats))
             variants
         | _ -> [])
       flats)
