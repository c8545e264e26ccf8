type blocking_pair = {
  left : int;
  right : int;
}

(* Allocation-free view of a (possibly partial) matching against a
   preference structure. Partners are plain ints with -1 for unmatched,
   so the hot verification scan never allocates an option. The
   preference probes are functions rather than arrays so that both
   explicit [Profile.t] instances and implicit [Flat.t] ones share one
   scan. A right party enters the scan only through the rank it gives
   its partner, which an implicit instance memoises instead of probing
   per candidate.

   The left side's probes go through a row cursor: the scan enters each
   row once and then asks about that row only, so an implicit instance
   derives a row's keys once rather than once per probe. A scan creates
   its own cursor, so concurrent scans of one view share no row
   state. *)
type row = {
  enter : int -> unit;
  order : int -> int;
  rank : int -> int;
  right_rank : int -> int;
}

type view = {
  k : int;
  row : unit -> row;
  left_partner : int -> int;
  right_partner_rank : int -> int;
}

let view_of_matching profile m =
  let lp = Profile.left profile in
  let rp = Profile.right profile in
  let row () =
    let l = ref 0 in
    {
      enter = (fun i -> l := i);
      order = (fun rank -> Prefs.at lp.(!l) rank);
      rank = (fun r -> Prefs.rank lp.(!l) r);
      right_rank = (fun r -> Prefs.rank rp.(r) !l);
    }
  in
  {
    k = Profile.k profile;
    row;
    left_partner = (fun l -> Matching.partner_of_left m l);
    right_partner_rank = (fun r -> Prefs.rank rp.(r) (Matching.partner_of_right m r));
  }

(* The one scan everything else derives from: count blocking pairs with
   a left endpoint in rows [lo, hi), giving up as soon as the count
   exceeds [cap] (so [cap = 0] is an early-exit existence check). For
   each left [l] only candidates [l] ranks strictly before its partner
   can block, so the row costs O(rank of partner) probes instead of
   O(k); on a proposer-optimal matching over random preferences that is
   O(log k) on average. A candidate [r] blocks iff it ranks [l] strictly
   before its partner (an unmatched [r] ranks its "partner" at [k], after
   everyone) — when [r] is [l]'s own partner the strict comparison
   fails, so no self-pair is counted. The scan makes one cursor and
   enters each row once; every probe is fully applied, so it allocates
   only the cursor. *)
let count_blocking_rows ?(cap = max_int) v ~lo ~hi =
  let lo = max lo 0 and hi = min hi v.k in
  let c = v.row () in
  let count = ref 0 in
  let l = ref lo in
  while !count <= cap && !l < hi do
    let li = !l in
    c.enter li;
    let p = v.left_partner li in
    let limit = if p < 0 then v.k else c.rank p in
    let rank = ref 0 in
    while !count <= cap && !rank < limit do
      let r = c.order !rank in
      if c.right_rank r < v.right_partner_rank r then incr count;
      incr rank
    done;
    incr l
  done;
  !count

let exists_blocking v = count_blocking_rows ~cap:0 v ~lo:0 ~hi:v.k > 0
let count_blocking v = count_blocking_rows v ~lo:0 ~hi:v.k

(* ε-stability (Ostrovsky–Rosenbaum): at most ε·k² blocking pairs. The
   budget is ⌊ε·k²⌋, counted with early exit at budget+1. *)
let eps_budget ~eps k =
  if eps < 0. then invalid_arg "Verify: eps must be nonnegative";
  let b = eps *. float_of_int k *. float_of_int k in
  if b >= float_of_int max_int then max_int else int_of_float b

let is_eps_stable_view ~eps v =
  let budget = eps_budget ~eps v.k in
  count_blocking_rows ~cap:budget v ~lo:0 ~hi:v.k <= budget

let is_stable profile m = not (exists_blocking (view_of_matching profile m))
let instability profile m = count_blocking (view_of_matching profile m)
let is_eps_stable ~eps profile m = is_eps_stable_view ~eps (view_of_matching profile m)

(* List-building reference paths. These keep the original O(k²) scan and
   its output order (ascending left index, then ascending right index):
   tests and the distributed checker's violation reports depend on the
   order, and the property tests pin the fast paths above against these. *)
let blocking_pairs_partial profile ~left_partner ~right_partner ~consider_left
    ~consider_right =
  let k = Profile.k profile in
  let lp = Profile.left profile in
  let rp = Profile.right profile in
  (* [l] prefers [r] to its current situation: true when single (parties
     prefer any match to being alone) or when [r] ranks before the current
     partner. *)
  let left_wants l r =
    match left_partner l with
    | None -> true
    | Some r' -> (not (Int.equal r r')) && Prefs.prefers lp.(l) r r'
  in
  let right_wants r l =
    match right_partner r with
    | None -> true
    | Some l' -> (not (Int.equal l l')) && Prefs.prefers rp.(r) l l'
  in
  let pairs = ref [] in
  for l = k - 1 downto 0 do
    for r = k - 1 downto 0 do
      if consider_left l && consider_right r && left_wants l r && right_wants r l
      then pairs := { left = l; right = r } :: !pairs
    done
  done;
  !pairs

let all _ = true

let blocking_pairs profile m =
  blocking_pairs_partial profile
    ~left_partner:(fun l -> Some (Matching.partner_of_left m l))
    ~right_partner:(fun r -> Some (Matching.partner_of_right m r))
    ~consider_left:all ~consider_right:all
