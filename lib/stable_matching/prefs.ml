open Bsm_prelude
module Wire = Bsm_wire.Wire

(* One int per slot [i]: the low [half] bits hold the candidate at rank
   [i], the high bits the rank of candidate [i]. A list is then a single
   block of [k] words rather than a record and two arrays, and a lookup
   is one load plus a mask or a shift. *)
type t = int array

let half = Sys.int_size / 2
let low = (1 lsl half) - 1

let of_array order =
  let k = Array.length order in
  if k > low then Error "preference list too long"
  else if not (Util.is_permutation (Array.to_list order) ~n:k) then
    Error "preference list is not a permutation"
  else begin
    let t = Array.copy order in
    Array.iteri (fun r c -> t.(c) <- t.(c) lor (r lsl half)) order;
    Ok t
  end

let of_list xs = of_array (Array.of_list xs)

let of_list_exn xs =
  match of_list xs with
  | Ok t -> t
  | Error msg -> invalid_arg ("Prefs.of_list_exn: " ^ msg)

let length = Array.length
let to_list t = List.init (length t) (fun r -> t.(r) land low)

let at t r =
  if r < 0 || r >= length t then invalid_arg "Prefs.at: rank out of range";
  t.(r) land low

let rank t c =
  if c < 0 || c >= length t then invalid_arg "Prefs.rank: unknown candidate";
  t.(c) lsr half

let favorite t = at t 0
let prefers t a b = rank t a < rank t b

let identity k =
  if k <= 0 then invalid_arg "Prefs.identity: k must be positive";
  of_list_exn (List.init k Fun.id)

let random rng k =
  if k <= 0 then invalid_arg "Prefs.random: k must be positive";
  of_list_exn (Rng.permutation rng k)

let similar rng ~swaps base =
  let k = length base in
  let a = Array.init k (fun r -> base.(r) land low) in
  for _ = 1 to swaps do
    if k >= 2 then begin
      let i = Rng.int rng (k - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- tmp
    end
  done;
  match of_array a with
  | Ok t -> t
  | Error _ -> assert false (* transpositions preserve permutation-ness *)

(* Orders determine ranks, so comparing orders is comparing lists:
   shorter lists first, then rank by rank. *)
let equal (a : t) b = a = b

let compare a b =
  match Int.compare (length a) (length b) with
  | 0 ->
    let rec go r =
      if r = length a then 0
      else
        match Int.compare (a.(r) land low) (b.(r) land low) with
        | 0 -> go (r + 1)
        | c -> c
    in
    go 0
  | c -> c

let pp ppf t =
  Format.fprintf ppf "[%a]" (Util.pp_comma_list Format.pp_print_int) (to_list t)

let codec =
  Wire.map
    ~inject:(fun xs ->
      match of_list xs with
      | Ok t -> t
      | Error msg -> raise (Wire.Malformed msg))
    ~project:to_list
    (Wire.list Wire.uint)
