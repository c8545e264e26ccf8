let count ~equal x xs =
  List.fold_left (fun acc y -> if equal x y then acc + 1 else acc) 0 xs

let most_common ~equal xs =
  let better best x =
    let c = count ~equal x xs in
    match best with
    | Some (_, c') when c' >= c -> best
    | Some _ | None -> Some (x, c)
  in
  List.fold_left better None xs

let strict_majority ~equal ~total xs =
  match most_common ~equal xs with
  | Some (x, c) when 2 * c > total -> Some x
  | Some _ | None -> None

(* One pass: each element's key is computed once and hashed to its
   group's accumulator; groups are remembered in first-seen order. Both
   the group list and every group's elements are built reversed, then
   flipped once at the end. *)
let group_by ~key xs =
  let groups = Hashtbl.create 16 in
  let order =
    List.fold_left
      (fun order x ->
        let k = key x in
        match Hashtbl.find_opt groups k with
        | Some members ->
          members := x :: !members;
          order
        | None ->
          let members = ref [ x ] in
          Hashtbl.add groups k members;
          (k, members) :: order)
      [] xs
  in
  List.rev_map (fun (k, members) -> k, List.rev !members) order

let range a b = if a >= b then [] else List.init (b - a) (fun i -> a + i)

let is_permutation xs ~n =
  List.length xs = n
  &&
  let seen = Array.make n false in
  List.for_all
    (fun x ->
      x >= 0 && x < n
      &&
      if seen.(x) then false
      else begin
        seen.(x) <- true;
        true
      end)
    xs

let cdiv a b = (a + b - 1) / b

let rec take n = function
  | [] -> []
  | x :: xs -> if n <= 0 then [] else x :: take (n - 1) xs

let find_index p xs =
  let rec go i = function
    | [] -> None
    | x :: xs -> if p x then Some i else go (i + 1) xs
  in
  go 0 xs

let pp_comma_list pp ppf xs =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp ppf xs
