type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summarize = function
  | [] -> invalid_arg "Stats.summarize: empty"
  | xs ->
    let n = List.length xs in
    let fn = float_of_int n in
    let mean = List.fold_left ( +. ) 0. xs /. fn in
    let var =
      List.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0. xs /. fn
    in
    {
      n;
      mean;
      stddev = sqrt var;
      min = List.fold_left Float.min infinity xs;
      max = List.fold_left Float.max neg_infinity xs;
    }

let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | sorted ->
    if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    List.nth sorted (max 0 (min (n - 1) (rank - 1)))

let rate hits total =
  if total = 0 then 0. else 100. *. float_of_int hits /. float_of_int total
