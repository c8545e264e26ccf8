open Bsm_prelude
module Wire = Bsm_wire.Wire

type t = {
  l2r : int array;
  r2l : int array;
}

let of_l2r a =
  let k = Array.length a in
  if k = 0 then Error "empty matching"
  else if not (Util.is_permutation (Array.to_list a) ~n:k) then
    Error "matching is not a bijection"
  else begin
    let r2l = Array.make k 0 in
    Array.iteri (fun i j -> r2l.(j) <- i) a;
    Ok { l2r = a; r2l }
  end

let of_l2r_exn a =
  match of_l2r a with
  | Ok t -> t
  | Error msg -> invalid_arg ("Matching.of_l2r_exn: " ^ msg)

let k t = Array.length t.l2r

let partner_of_left t i =
  if i < 0 || i >= k t then invalid_arg "Matching.partner_of_left";
  t.l2r.(i)

let partner_of_right t j =
  if j < 0 || j >= k t then invalid_arg "Matching.partner_of_right";
  t.r2l.(j)

let partner t p =
  match Party_id.side p with
  | Side.Left -> Party_id.right (partner_of_left t (Party_id.index p))
  | Side.Right -> Party_id.left (partner_of_right t (Party_id.index p))

let to_pairs t = Array.to_list (Array.mapi (fun i j -> i, j) t.l2r)

let equal a b = a.l2r = b.l2r
let compare a b = Stdlib.compare a.l2r b.l2r

let pp ppf t =
  let pair ppf (i, j) = Format.fprintf ppf "L%d-R%d" i j in
  Format.fprintf ppf "{%a}" (Util.pp_comma_list pair) (to_pairs t)

let codec =
  Wire.map
    ~inject:(fun xs ->
      match of_l2r (Array.of_list xs) with
      | Ok t -> t
      | Error msg -> raise (Wire.Malformed msg))
    ~project:(fun t -> Array.to_list t.l2r)
    (Wire.list Wire.uint)

let enumerate k =
  let rec perms = function
    | [] -> [ [] ]
    | xs ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) xs)))
        xs
  in
  List.map (fun p -> of_l2r_exn (Array.of_list p)) (perms (List.init k Fun.id))
