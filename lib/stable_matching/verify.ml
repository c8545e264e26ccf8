type blocking_pair = {
  left : int;
  right : int;
}

(* Allocation-free view of a (possibly partial) matching against a
   preference structure. Partners are plain ints with -1 for unmatched,
   so the hot verification scan never allocates an option. The
   preference accessors are functions rather than arrays so that both
   explicit [Profile.t] instances and implicit [Flat.t] ones share one
   scan. A right party enters the scan only through the rank it gives
   its partner, which an implicit instance memoises instead of probing
   per candidate. *)
type view = {
  k : int;
  left_order : int -> int -> int;  (** [left_order l rank] = candidate *)
  left_rank : int -> int -> int;  (** [left_rank l r] = rank of [r] at [l] *)
  right_rank : int -> int -> int;
  left_partner : int -> int;  (** -1 when unmatched *)
  right_partner_rank : int -> int;  (** [k] when unmatched *)
  consider_left : int -> bool;
  consider_right : int -> bool;
}

let all _ = true

let view_of_matching profile m =
  let lp = Profile.left profile in
  let rp = Profile.right profile in
  {
    k = Profile.k profile;
    left_order = (fun l rank -> Prefs.at lp.(l) rank);
    left_rank = (fun l r -> Prefs.rank lp.(l) r);
    right_rank = (fun r l -> Prefs.rank rp.(r) l);
    left_partner = (fun l -> Matching.partner_of_left m l);
    right_partner_rank = (fun r -> Prefs.rank rp.(r) (Matching.partner_of_right m r));
    consider_left = all;
    consider_right = all;
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
   fails, so no self-pair is counted. Every probe is fully applied, so
   the scan allocates nothing. *)
let count_blocking_rows ?(cap = max_int) v ~lo ~hi =
  let lo = max lo 0 and hi = min hi v.k in
  let count = ref 0 in
  let l = ref lo in
  while !count <= cap && !l < hi do
    let li = !l in
    if v.consider_left li then begin
      let p = v.left_partner li in
      let limit = if p < 0 then v.k else v.left_rank li p in
      let rank = ref 0 in
      while !count <= cap && !rank < limit do
        let r = v.left_order li !rank in
        if v.consider_right r && v.right_rank r li < v.right_partner_rank r then
          incr count;
        incr rank
      done
    end;
    incr l
  done;
  !count

let exists_blocking_rows v ~lo ~hi = count_blocking_rows ~cap:0 v ~lo ~hi > 0
let exists_blocking v = exists_blocking_rows v ~lo:0 ~hi:v.k
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

let blocking_pairs profile m =
  blocking_pairs_partial profile
    ~left_partner:(fun l -> Some (Matching.partner_of_left m l))
    ~right_partner:(fun r -> Some (Matching.partner_of_right m r))
    ~consider_left:all ~consider_right:all
