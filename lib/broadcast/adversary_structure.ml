open Bsm_prelude

type t =
  | Threshold of int
  | Two_sided of {
      t_left : int;
      t_right : int;
    }
  | Explicit of Party_set.t list

let possibly_corrupt t s =
  match t with
  | Threshold bound -> Party_set.cardinal s <= bound
  | Two_sided { t_left; t_right } ->
    Party_set.count_side Side.Left s <= t_left
    && Party_set.count_side Side.Right s <= t_right
  | Explicit sets -> List.exists (fun z -> Party_set.subset s z) sets

(* Maximal corruptible subsets of [participants], for the cover checks. *)
let maximal_within t participants =
  let p = Party_set.of_list participants in
  match t with
  | Threshold _ | Two_sided _ ->
    (* Componentwise-threshold structures: the corruptible subsets of [p]
       are generated by taking the largest allowed slice per side, but the
       cover check below only needs cardinalities, so we special-case it
       there and never call this branch. *)
    invalid_arg "Adversary_structure.maximal_within: threshold structures"
  | Explicit sets -> List.map (fun z -> Party_set.inter z p) sets

let covers_with t participants ~sets_count =
  let p = Party_set.of_list participants in
  match t with
  | Threshold bound -> sets_count * bound >= Party_set.cardinal p
  | Two_sided { t_left; t_right } ->
    (* [sets_count] corruptible sets can cover each side independently. *)
    sets_count * t_left >= Party_set.count_side Side.Left p
    && sets_count * t_right >= Party_set.count_side Side.Right p
  | Explicit _ ->
    let maximal = maximal_within t participants in
    let rec choose depth union =
      if Party_set.subset p union then true
      else if depth = 0 then false
      else List.exists (fun z -> choose (depth - 1) (Party_set.union union z)) maximal
    in
    (match maximal with
    | [] -> Party_set.is_empty p
    | _ :: _ -> choose sets_count Party_set.empty)

let q3 t ~participants = not (covers_with t participants ~sets_count:3)

let king_sequence t ~participants =
  match t with
  | Threshold bound ->
    let kings = Util.take (bound + 1) participants in
    if List.length kings < bound + 1 then
      invalid_arg "Adversary_structure.king_sequence: all participants corruptible";
    kings
  | Two_sided { t_left; t_right } ->
    let members side = List.filter (fun p -> Side.equal (Party_id.side p) side) participants in
    let left = members Side.Left and right = members Side.Right in
    let candidates =
      (* (cost, kings) for each side that has enough participants to exceed
         its threshold. *)
      List.filter_map
        (fun (bound, pool) ->
          if List.length pool >= bound + 1 then Some (bound + 1, Util.take (bound + 1) pool)
          else None)
        [ t_left, left; t_right, right ]
    in
    (match List.sort (fun (a, _) (b, _) -> Int.compare a b) candidates with
    | (_, kings) :: _ -> kings
    | [] -> invalid_arg "Adversary_structure.king_sequence: all participants corruptible")
  | Explicit _ ->
    (* Greedy: the shortest prefix of [participants] that is not possibly
       corrupt. *)
    let rec grow prefix = function
      | [] -> invalid_arg "Adversary_structure.king_sequence: all participants corruptible"
      | p :: rest ->
        let prefix = prefix @ [ p ] in
        if not (possibly_corrupt t (Party_set.of_list prefix)) then prefix
        else grow prefix rest
    in
    grow [] participants
