(* Bit-packed party sets: one word-packed bitmap per side, indexed by
   party index. Words use 62 bits each so every word is a nonnegative
   OCaml int; arrays are normalized (no trailing zero words), which
   makes structural equality coincide with set equality and keeps
   polymorphic compare on containing values meaningful. *)

let bits_per_word = 62
let word_full = max_int (* 2^62 - 1: all 62 payload bits set *)

(* 16-bit popcount table: counting a word is four lookups, so
   [cardinal]/[count_side] stay O(k/62) regardless of density. *)
let pop16 =
  let t = Bytes.create 65536 in
  for i = 0 to 65535 do
    let c = ref 0 and x = ref i in
    while !x <> 0 do
      x := !x land (!x - 1);
      incr c
    done;
    Bytes.unsafe_set t i (Char.chr !c)
  done;
  t

let popcount w =
  Char.code (Bytes.unsafe_get pop16 (w land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 (w lsr 48))

type t = {
  left : int array;
  right : int array;
}

let empty = { left = [||]; right = [||] }

(* Drop trailing zero words so that equal sets are structurally equal. *)
let trim a =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let side_words t side =
  match (side : Side.t) with
  | Left -> t.left
  | Right -> t.right

let with_side t side a =
  match (side : Side.t) with
  | Left -> { t with left = a }
  | Right -> { t with right = a }

let mem p t =
  let a = side_words t (Party_id.side p) in
  let i = Party_id.index p in
  let w = i / bits_per_word in
  w < Array.length a && (a.(w) lsr (i mod bits_per_word)) land 1 = 1

let add p t =
  if mem p t then t
  else begin
    let a = side_words t (Party_id.side p) in
    let i = Party_id.index p in
    let w = i / bits_per_word in
    let a' = Array.make (max (Array.length a) (w + 1)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'.(w) <- a'.(w) lor (1 lsl (i mod bits_per_word));
    with_side t (Party_id.side p) a'
  end

let remove p t =
  if not (mem p t) then t
  else begin
    let a = side_words t (Party_id.side p) in
    let i = Party_id.index p in
    let w = i / bits_per_word in
    let a' = Array.copy a in
    a'.(w) <- a'.(w) land lnot (1 lsl (i mod bits_per_word));
    with_side t (Party_id.side p) (trim a')
  end

let singleton p = add p empty
let is_empty t = Array.length t.left = 0 && Array.length t.right = 0

let count_words a =
  let c = ref 0 in
  Array.iter (fun w -> c := !c + popcount w) a;
  !c

let cardinal t = count_words t.left + count_words t.right

let count_side side t = count_words (side_words t side)

(* Wordwise binary operations. [union] needs no trim: inputs are
   normalized, so the longer side's top word survives, and equal-length
   tops or into nonzero. *)
let union_words a b =
  let la = Array.length a and lb = Array.length b in
  let short, long = if la <= lb then a, b else b, a in
  let r = Array.copy long in
  Array.iteri (fun i w -> r.(i) <- r.(i) lor w) short;
  r

let inter_words a b =
  let n = min (Array.length a) (Array.length b) in
  trim (Array.init n (fun i -> a.(i) land b.(i)))

(* A side of at most one word — every index below 62, the case of every
   protocol run — is diffed with at most one allocation. *)
let diff_words a b =
  let lb = Array.length b in
  match Array.length a with
  | 0 -> a
  | 1 ->
    let w = if lb = 0 then a.(0) else a.(0) land lnot b.(0) in
    if w = a.(0) then a else if w = 0 then [||] else [| w |]
  | _ -> trim (Array.mapi (fun i w -> if i < lb then w land lnot b.(i) else w) a)

let subset_words a b =
  let la = Array.length a and lb = Array.length b in
  la <= lb
  &&
  let rec go i = i >= la || (a.(i) land lnot b.(i) = 0 && go (i + 1)) in
  go 0

let union a b =
  if is_empty a then b
  else if is_empty b then a
  else { left = union_words a.left b.left; right = union_words a.right b.right }

let inter a b = { left = inter_words a.left b.left; right = inter_words a.right b.right }
let diff a b = { left = diff_words a.left b.left; right = diff_words a.right b.right }
let subset a b = subset_words a.left b.left && subset_words a.right b.right
let equal (a : t) b = a = b

(* Iteration visits left parties in ascending index order, then right
   parties — the same total order as [Party_id.compare], matching the
   enumeration order of the previous [Set.Make] representation. *)
let fold_side side a f acc =
  let acc = ref acc in
  Array.iteri
    (fun wi w ->
      let x = ref w and bit = ref 0 in
      while !x <> 0 do
        if !x land 1 = 1 then
          acc := f (Party_id.make side ((wi * bits_per_word) + !bit)) !acc;
        x := !x lsr 1;
        incr bit
      done)
    a;
  !acc

let fold f t acc = fold_side Side.Right t.right f (fold_side Side.Left t.left f acc)
let elements t = List.rev (fold (fun p acc -> p :: acc) t [])

(* One pass over the list when every index fits one word: each side is
   built with a single allocation instead of one copy per [add]. *)
let of_list ps =
  let side_word w = if w = 0 then [||] else [| w |] in
  let rec words l r = function
    | [] -> { left = side_word l; right = side_word r }
    | p :: rest ->
      let i = Party_id.index p in
      if i >= bits_per_word then List.fold_left (fun t p -> add p t) empty ps
      else begin
        match Party_id.side p with
        | Side.Left -> words (l lor (1 lsl i)) r rest
        | Side.Right -> words l (r lor (1 lsl i)) rest
      end
  in
  words 0 0 ps

let restrict_side side t =
  match (side : Side.t) with
  | Left -> { empty with left = t.left }
  | Right -> { empty with right = t.right }

let full_words k =
  if k = 0 then [||]
  else begin
    let words = ((k - 1) / bits_per_word) + 1 in
    let a = Array.make words word_full in
    let rem = k - ((words - 1) * bits_per_word) in
    if rem < bits_per_word then a.(words - 1) <- (1 lsl rem) - 1;
    a
  end

let full ~k =
  let a = full_words k in
  { left = a; right = Array.copy a }

let complement ~k t = diff (full ~k) t

let power_set parties =
  (* Same enumeration order as the original
     [subsets @ List.map (add p) subsets] fold, built tail-recursively:
     solvability sweeps iterate this list, so the order is pinned by a
     regression test. *)
  let add_party subsets p =
    List.rev_append (List.rev subsets) (List.rev (List.rev_map (add p) subsets))
  in
  List.fold_left add_party [ empty ] parties

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Party_id.pp)
    (elements t)
