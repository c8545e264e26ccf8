type t = {
  side : Side.t;
  index : int;
}

(* Identifiers below [interned] on either side are built once and shared:
   decoding one off the wire or enumerating a roster then allocates
   nothing, and results that outlive a run (decisions, per-party reports)
   hold no private copies. Ids are immutable and compared structurally,
   so sharing is invisible. *)
let interned = 128

let table =
  Array.map
    (fun side -> Array.init interned (fun index -> { side; index }))
    [| Side.Left; Side.Right |]

let make side index =
  if index < 0 then invalid_arg "Party_id.make: negative index";
  if index < interned then table.(Side.to_int side).(index) else { side; index }

let left index = make Side.Left index
let right index = make Side.Right index
let side t = t.side
let index t = t.index

let equal a b = Side.equal a.side b.side && Int.equal a.index b.index

let compare a b =
  match Side.compare a.side b.side with
  | 0 -> Int.compare a.index b.index
  | c -> c

let hash t = (Side.compare t.side Side.Left * 1_000_003) + t.index

let to_string t = Side.to_string t.side ^ string_of_int t.index

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  let fail () = invalid_arg ("Party_id.of_string: " ^ s) in
  if String.length s < 2 then fail ();
  let side =
    match s.[0] with
    | 'L' -> Side.Left
    | 'R' -> Side.Right
    | _ -> fail ()
  in
  let index =
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i when i >= 0 -> i
    | Some _ | None -> fail ()
  in
  make side index

let side_members side ~k = List.init k (fun i -> make side i)

let all ~k = side_members Side.Left ~k @ side_members Side.Right ~k

let to_dense ~k t =
  if t.index >= k then invalid_arg "Party_id.to_dense: index out of range";
  match t.side with
  | Side.Left -> t.index
  | Side.Right -> k + t.index

let of_dense ~k i =
  if i < 0 || i >= 2 * k then invalid_arg "Party_id.of_dense: out of range";
  if i < k then left i else right (i - k)
