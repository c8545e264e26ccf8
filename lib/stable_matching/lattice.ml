let combine profile ~better a b =
  let k = Profile.k profile in
  let lp = Profile.left profile in
  let pick i =
    let ra = Matching.partner_of_left a i in
    let rb = Matching.partner_of_left b i in
    let a_better = Prefs.prefers lp.(i) ra rb in
    if Bool.equal a_better better then ra else rb
  in
  Matching.of_l2r_exn (Array.init k pick)

let meet profile a b = combine profile ~better:true a b
let join profile a b = combine profile ~better:false a b

(* McVitie–Wilson breakmarriage: free [left], advance it past its current
   partner, and run the sequential proposal chain. Women only trade up, so
   the chain ends when the originally-divorced woman accepts a proposer she
   prefers to her old partner — or fails when a proposer exhausts his
   list. [Some m'] is a strictly left-worse stable matching; [m] must be
   stable. *)
let breakmarriage profile m ~left =
  let k = Profile.k profile in
  let lp = Profile.left profile in
  let rp = Profile.right profile in
  let partner_w = Array.init k (fun r -> Matching.partner_of_right m r) in
  let next = Array.init k (fun l -> Prefs.rank lp.(l) (Matching.partner_of_left m l) + 1) in
  let w0 = Matching.partner_of_left m left in
  let rec chain free =
    if next.(free) >= k then None
    else begin
      let w = Prefs.at lp.(free) next.(free) in
      next.(free) <- next.(free) + 1;
      if Prefs.prefers rp.(w) free partner_w.(w) then begin
        let old = partner_w.(w) in
        partner_w.(w) <- free;
        if Int.equal w w0 then begin
          let l2r = Array.make k (-1) in
          Array.iteri (fun r l -> l2r.(l) <- r) partner_w;
          Some (Matching.of_l2r_exn l2r)
        end
        else chain old
      end
      else chain free
    end
  in
  chain left

module MSet = Set.Make (Matching)

let all_stable profile =
  let k = Profile.k profile in
  let m0 = Gale_shapley.run ~proposers:Bsm_prelude.Side.Left profile in
  let rec bfs seen = function
    | [] -> seen
    | m :: queue ->
      let successors =
        List.filter_map
          (fun l -> breakmarriage profile m ~left:l)
          (List.init k Fun.id)
      in
      let fresh = List.filter (fun s -> not (MSet.mem s seen)) successors in
      let fresh = List.sort_uniq Matching.compare fresh in
      bfs (List.fold_left (fun s m -> MSet.add m s) seen fresh) (queue @ fresh)
  in
  MSet.elements (bfs (MSet.singleton m0) [ m0 ])

let all_stable_brute profile =
  List.filter (Verify.is_stable profile) (Matching.enumerate (Profile.k profile))

let egalitarian_cost profile m =
  let k = Profile.k profile in
  let lp = Profile.left profile in
  let rp = Profile.right profile in
  let cost_of l =
    let r = Matching.partner_of_left m l in
    Prefs.rank lp.(l) r + Prefs.rank rp.(r) l
  in
  List.fold_left (fun acc l -> acc + cost_of l) 0 (List.init k Fun.id)

let regret profile m =
  let k = Profile.k profile in
  let lp = Profile.left profile in
  let rp = Profile.right profile in
  let regret_of l =
    let r = Matching.partner_of_left m l in
    max (Prefs.rank lp.(l) r) (Prefs.rank rp.(r) l)
  in
  List.fold_left (fun acc l -> max acc (regret_of l)) 0 (List.init k Fun.id)

let optimum objective profile =
  match all_stable profile with
  | [] -> invalid_arg "Lattice.optimum: no stable matching (impossible)"
  | m :: ms ->
    let better acc m = if objective profile m < objective profile acc then m else acc in
    List.fold_left better m ms

let egalitarian profile = optimum egalitarian_cost profile
let minimum_regret profile = optimum regret profile
