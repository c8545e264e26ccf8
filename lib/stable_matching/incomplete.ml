open Bsm_prelude

type t = {
  k_left : int;
  k_right : int;
  left_order : int array array; (* left_order.(i) = ranked acceptable right indices *)
  left_rank : int array array; (* left_rank.(i).(j) = rank, or -1 if unacceptable *)
  right_rank : int array array;
}

let rank_table ~rows ~cols order =
  let rank = Array.make_matrix rows cols (-1) in
  let ok = ref true in
  Array.iteri
    (fun i xs ->
      List.iteri
        (fun r j ->
          if j < 0 || j >= cols || rank.(i).(j) <> -1 then ok := false
          else rank.(i).(j) <- r)
        xs)
    order;
  if !ok then Some rank else None

let make ~left ~right =
  let k_left = Array.length left and k_right = Array.length right in
  if k_left = 0 || k_right = 0 then Error "empty side"
  else
    match
      ( rank_table ~rows:k_left ~cols:k_right left,
        rank_table ~rows:k_right ~cols:k_left right )
    with
    | Some left_rank, Some right_rank ->
      Ok
        {
          k_left;
          k_right;
          left_order = Array.map Array.of_list left;
          left_rank;
          right_rank;
        }
    | None, _ | _, None -> Error "list entries must be in-range and duplicate-free"

let make_exn ~left ~right =
  match make ~left ~right with
  | Ok t -> t
  | Error msg -> invalid_arg ("Incomplete.make_exn: " ^ msg)

let random rng ~k ~acceptance =
  let threshold = int_of_float (acceptance *. 1000.) in
  let side () =
    Array.init k (fun _ ->
        let acceptable = List.filter (fun _ -> Rng.int rng 1000 < threshold) (List.init k Fun.id) in
        Rng.shuffle rng acceptable)
  in
  make_exn ~left:(side ()) ~right:(side ())

type matching = {
  l2r : int option array;
  r2l : int option array;
}

let mutual t i j = t.left_rank.(i).(j) >= 0 && t.right_rank.(j).(i) >= 0

(* Extended Gale-Shapley: free left parties propose down their lists,
   skipping non-mutual entries; a right party holds the proposer it ranks
   best; parties that exhaust their lists stay single. *)
let solve t =
  let l2r = Array.make t.k_left None in
  let r2l = Array.make t.k_right None in
  let next = Array.make t.k_left 0 in
  let rec propose i =
    if next.(i) >= Array.length t.left_order.(i) then ()
    else begin
      let j = t.left_order.(i).(next.(i)) in
      next.(i) <- next.(i) + 1;
      if not (mutual t i j) then propose i
      else
        match r2l.(j) with
        | None ->
          r2l.(j) <- Some i;
          l2r.(i) <- Some j
        | Some current ->
          if t.right_rank.(j).(i) < t.right_rank.(j).(current) then begin
            r2l.(j) <- Some i;
            l2r.(i) <- Some j;
            l2r.(current) <- None;
            propose current
          end
          else propose i
    end
  in
  for i = 0 to t.k_left - 1 do
    propose i
  done;
  { l2r; r2l }

let well_formed t m =
  Array.length m.l2r = t.k_left
  && Array.length m.r2l = t.k_right
  && Array.for_all
       (fun j ->
         match j with
         | None -> true
         | Some j -> j >= 0 && j < t.k_right)
       m.l2r
  &&
  let symmetric_l i =
    match m.l2r.(i) with
    | None -> true
    | Some j -> mutual t i j && m.r2l.(j) = Some i
  in
  let symmetric_r j =
    match m.r2l.(j) with
    | None -> true
    | Some i -> i >= 0 && i < t.k_left && m.l2r.(i) = Some j
  in
  List.for_all symmetric_l (List.init t.k_left Fun.id)
  && List.for_all symmetric_r (List.init t.k_right Fun.id)

let blocking_pair_exists t m =
  let left_wants i j =
    match m.l2r.(i) with
    | None -> true
    | Some j' -> t.left_rank.(i).(j) < t.left_rank.(i).(j')
  in
  let right_wants j i =
    match m.r2l.(j) with
    | None -> true
    | Some i' -> t.right_rank.(j).(i) < t.right_rank.(j).(i')
  in
  List.exists
    (fun i ->
      List.exists
        (fun j ->
          mutual t i j
          && m.l2r.(i) <> Some j
          && left_wants i j && right_wants j i)
        (List.init t.k_right Fun.id))
    (List.init t.k_left Fun.id)

let is_stable t m = well_formed t m && not (blocking_pair_exists t m)

let all_stable_brute t =
  (* Enumerate all partial matchings over mutually-acceptable pairs. *)
  let rec go i r_used =
    if i = t.k_left then [ [] ]
    else begin
      let without = List.map (fun rest -> None :: rest) (go (i + 1) r_used) in
      let withs =
        List.concat_map
          (fun j ->
            if mutual t i j && not (List.mem j r_used) then
              List.map (fun rest -> Some j :: rest) (go (i + 1) (j :: r_used))
            else [])
          (List.init t.k_right Fun.id)
      in
      without @ withs
    end
  in
  let to_matching choice =
    let l2r = Array.of_list choice in
    let r2l = Array.make t.k_right None in
    Array.iteri
      (fun i j ->
        match j with
        | Some j -> r2l.(j) <- Some i
        | None -> ())
      l2r;
    { l2r; r2l }
  in
  List.filter (is_stable t) (List.map to_matching (go 0 []))

let matched_side arr =
  Array.to_list arr
  |> List.mapi (fun i x -> i, x)
  |> List.filter_map (fun (i, x) -> if x <> None then Some i else None)

let matched_left m = matched_side m.l2r
let matched_right m = matched_side m.r2l

(* --- ties ------------------------------------------------------------- *)

let break_ties rng tiers =
  Array.map (fun groups -> List.concat_map (fun g -> Rng.shuffle rng g) groups) tiers

let solve_with_ties rng ~left ~right =
  match make ~left:(break_ties rng left) ~right:(break_ties rng right) with
  | Error _ as e -> e
  | Ok t -> Ok (solve t)

let tier_rank tiers =
  (* tier_rank.(i).(j) = index of j's tier in i's list, or -1. *)
  let cols =
    Array.fold_left
      (fun acc groups -> List.fold_left (List.fold_left max) acc groups)
      (-1) tiers
    + 1
  in
  Array.map
    (fun groups ->
      let rank = Array.make (max cols 1) (-1) in
      List.iteri (fun tier g -> List.iter (fun j -> if j >= 0 && j < cols then rank.(j) <- tier) g) groups;
      rank)
    tiers

let is_weakly_stable ~left ~right m =
  let lrank = tier_rank left and rrank = tier_rank right in
  let acceptable rank i j = j < Array.length rank.(i) && rank.(i).(j) >= 0 in
  let strictly_wants rank i j current =
    match current with
    | None -> true
    | Some j' -> rank.(i).(j) < rank.(i).(j')
  in
  let k_left = Array.length left and k_right = Array.length right in
  let blocking =
    List.exists
      (fun i ->
        List.exists
          (fun j ->
            acceptable lrank i j && acceptable rrank j i
            && m.l2r.(i) <> Some j
            && strictly_wants lrank i j m.l2r.(i)
            && strictly_wants rrank j i m.r2l.(j))
          (List.init k_right Fun.id))
      (List.init k_left Fun.id)
  in
  not blocking
