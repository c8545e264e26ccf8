open Bsm_prelude

(* Implicit preference profiles for the large-k scale frontier.

   An explicit [Profile.t] stores 2k permutations of length k — ~2k²
   words plus rank tables, which is hundreds of gigabytes at k = 10⁶.
   Instead each party's preference list is a keyed pseudorandom
   permutation of [0, k): rank→candidate ([order]) is one PRP
   evaluation and candidate→rank ([rank]) is one inverse evaluation,
   both O(1) and allocation-free, so Gale–Shapley and the early-exit
   verifier run at k = 10⁵..10⁶ in O(k) memory.

   The permutation is a 4-round balanced Feistel network over the
   smallest even bit-width covering [k], cycle-walked back into the
   domain. Intermediate points of a walk lie outside [0, k), so walking
   the inverse network undoes the walk exactly; the domain is < 4k, so
   a walk takes < 4 steps in expectation. A party's key is the
   [Rng.mix64_absorb] chain over (seed, side, index) and its round keys
   absorb 0..3 into it. A probe derives all five keys on the fly, as
   unboxed locals: keeping per-party key tables instead measured no
   faster and raised the top heap by 21%. Two places derive keys less
   often without storing any per party:
   - the stability scan's row cursor ([row_cursor]) derives a left
     party's round keys once per row and answers the row's probes from
     them;
   - under [Common_acceptors] every acceptor shares one key chain, so
     [make] derives its round keys once per instance.

   Gale–Shapley and the scan of its output share one per-domain slab
   (see [with_slab]), so a warm served request ([solve]) allocates no
   O(k) block at all. *)

type family =
  | Uniform
  | Common_acceptors

let family_to_string = function
  | Uniform -> "uniform"
  | Common_acceptors -> "common-acceptors"

type t = {
  k : int;
  seed : int;
  family : family;
  half_bits : int;
  half_mask : int;
  left_prefix : int64;  (* the (seed, side) prefix of every key chain *)
  right_prefix : int64;
  (* The round keys of right party 0: under [Common_acceptors], those of
     every acceptor. *)
  acceptor0 : int64;
  acceptor1 : int64;
  acceptor2 : int64;
  acceptor3 : int64;
}

let make ~family ~seed ~k =
  if k <= 0 then invalid_arg "Flat.make: k must be positive";
  let bits = ref 2 in
  while 1 lsl !bits < k do bits := !bits + 2 done;
  let prefix side =
    Rng.mix64_absorb (Rng.mix64 (Int64.of_int seed)) (Side.to_int side)
  in
  let right_prefix = prefix Side.Right in
  let acceptor = Rng.mix64_absorb right_prefix 0 in
  {
    k;
    seed;
    family;
    half_bits = !bits / 2;
    half_mask = (1 lsl (!bits / 2)) - 1;
    left_prefix = prefix Side.Left;
    right_prefix;
    acceptor0 = Rng.mix64_absorb acceptor 0;
    acceptor1 = Rng.mix64_absorb acceptor 1;
    acceptor2 = Rng.mix64_absorb acceptor 2;
    acceptor3 = Rng.mix64_absorb acceptor 3;
  }

let k t = t.k
let family t = t.family
let seed t = t.seed

(* --- the permutation -------------------------------------------------- *)

(* [Rng.mix64_absorb], restated here so that it inlines: without
   flambda every out-of-line call returns a boxed int64. The tests pin
   [fingerprint] (built on it) against the [Rng] chain. *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] absorb h x =
  let z = Int64.logxor h (Int64.add (Int64.of_int x) golden_gamma) in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] round key mask x = Int64.to_int (absorb key x) land mask

(* One pass of the network; round i maps (l, r) to (r, l ⊕ f_i(r)). *)
let[@inline] encrypt k0 k1 k2 k3 bits mask x =
  let l = x lsr bits and r = x land mask in
  let l, r = r, l lxor round k0 mask r in
  let l, r = r, l lxor round k1 mask r in
  let l, r = r, l lxor round k2 mask r in
  let l, r = r, l lxor round k3 mask r in
  (l lsl bits) lor r

let[@inline] decrypt k0 k1 k2 k3 bits mask x =
  let l = x lsr bits and r = x land mask in
  let l, r = r lxor round k3 mask l, l in
  let l, r = r lxor round k2 mask l, l in
  let l, r = r lxor round k1 mask l, l in
  let l, r = r lxor round k0 mask l, l in
  (l lsl bits) lor r

(* A party's permutation at [x] (forward, or inverse when [inverse]),
   given its round keys: the network, cycle-walked into [0, k). *)
let[@inline] walk t k0 k1 k2 k3 ~inverse x =
  let n = t.k and bits = t.half_bits and mask = t.half_mask in
  let y = ref x in
  if inverse then begin
    y := decrypt k0 k1 k2 k3 bits mask !y;
    while !y >= n do y := decrypt k0 k1 k2 k3 bits mask !y done
  end
  else begin
    y := encrypt k0 k1 k2 k3 bits mask !y;
    while !y >= n do y := encrypt k0 k1 k2 k3 bits mask !y done
  end;
  !y

(* Party [index]'s permutation, its keys derived from [prefix]. *)
let permute t prefix index ~inverse x =
  let key = absorb prefix index in
  walk t (absorb key 0) (absorb key 1) (absorb key 2) (absorb key 3) ~inverse x

let out_of_range t name i =
  invalid_arg (Printf.sprintf "Flat.%s: %d out of range [0, %d)" name i t.k)

let[@inline] check t name i = if i < 0 || i >= t.k then out_of_range t name i

(* Under [Common_acceptors] every right party shares the key of index
   0 — the common-preferences regime of Hirvonen–Ranjbaran
   (arXiv:2402.16532) on the accepting side — whose round keys [make]
   derived. Callers range-check the party first, so the collapse cannot
   hide a bad index. *)
let right_permute t r ~inverse x =
  match t.family with
  | Uniform -> permute t t.right_prefix r ~inverse x
  | Common_acceptors ->
    walk t t.acceptor0 t.acceptor1 t.acceptor2 t.acceptor3 ~inverse x

(* Full arity: a fully applied probe allocates nothing; only staging
   ([left_order t l]) allocates, the closure. *)
let left_order t l rank =
  check t "left_order" l;
  check t "left_order" rank;
  permute t t.left_prefix l ~inverse:false rank

let left_rank t l r =
  check t "left_rank" l;
  check t "left_rank" r;
  permute t t.left_prefix l ~inverse:true r

let right_order t r rank =
  check t "right_order" r;
  check t "right_order" rank;
  right_permute t r ~inverse:false rank

let right_rank t r l =
  check t "right_rank" r;
  check t "right_rank" l;
  right_permute t r ~inverse:true l

(* --- per-domain slab --------------------------------------------------- *)

(* The O(k) state of one GS run and the scan of its output. Each array
   has one role during GS and one after it:
   - [next_rank]: the rank each proposer proposes at next; then l2r;
   - [held]: the proposer each acceptor holds (-1 none); then r2l;
   - [memo]: each acceptor's rank of its held proposer (see
     [partner_rank]);
   - [free]: the round's worklist of free proposers. *)
type slab = {
  next_rank : int array;
  held : int array;
  memo : int array;
  free : int array;
}

(* One slab per domain, reused across requests. The slot is emptied
   while a slab is in use, so a nested call takes a fresh one rather
   than clobbering it — the pattern of [Wire.encode]'s scratch encoder.
   Capacities are powers of two so that a mix of sizes settles on one
   slab. *)
type slot = { mutable spare : slab option }

let slab_key = Domain.DLS.new_key (fun () -> { spare = None })

(* A slab above this many parties (4 arrays of 2¹⁶ words, 2 MiB) is
   dropped after use rather than pinned for the domain's lifetime: the
   served sizes sit far below it (the daemon admits k ≤ 4096 by
   default), the T-scale rows at k ≥ 10⁵ far above. *)
let slab_retain_limit = 1 lsl 16

let slab_capacity k =
  if k > slab_retain_limit then k
  else begin
    let c = ref 1 in
    while !c < k do c := 2 * !c done;
    !c
  end

let with_slab k f =
  let slot = Domain.DLS.get slab_key in
  let s =
    match slot.spare with
    | Some s when Array.length s.held >= k -> s
    | Some _ | None ->
      let c = slab_capacity k in
      {
        next_rank = Array.make c 0;
        held = Array.make c 0;
        memo = Array.make c 0;
        free = Array.make c 0;
      }
  in
  slot.spare <- None;
  let give_back () =
    if Array.length s.held <= slab_retain_limit then slot.spare <- Some s
  in
  match f s with
  | v ->
    give_back ();
    v
  | exception exn ->
    give_back ();
    raise exn

(* [memo.(r)] caches the rank right party [r] gives its partner:
   - [>= 0]: that rank ([k] when [r] is unmatched, so that every
     candidate ranks ahead of it);
   - [-1 - l]: the partner is [l], its rank not yet probed.
   The first lookup probes and stores it. *)
let partner_rank t memo r =
  let v = memo.(r) in
  if v >= 0 then v
  else begin
    let v = right_rank t r (-1 - v) in
    memo.(r) <- v;
    v
  end

(* --- Gale–Shapley -------------------------------------------------------- *)

(* Deferred acceptance on the implicit profile, left-proposing, in the
   first [t.k] cells of slab [s]. Same round structure as
   [Gale_shapley.run_oriented] — every free proposer proposes once per
   round, acceptors keep the best — but the free set is an explicit
   worklist instead of a k-wide flag rescan. Within a round the "keep
   best" fold is order-independent, so the worklist order (which mixes
   displaced and rejected proposers) cannot affect the outcome: the
   matching and stats are bit-identical to the array-scan algorithm,
   which the tests pin via [to_profile].

   A round compacts its losers into the front of [free] in place: item
   [i] is read before the at most [i + 1]-th loser is written. An
   acceptor's held rank is memoised, so a contested proposal probes
   only the newcomer's rank. On return, [next_rank] holds l2r, [held]
   r2l, and [memo] the partner ranks for the scan. *)
let run_gs t s =
  let k = t.k in
  let { next_rank; held; memo; free } = s in
  Array.fill next_rank 0 k 0;
  Array.fill held 0 k (-1);
  for i = 0 to k - 1 do
    free.(i) <- i
  done;
  let free_n = ref k in
  let proposals = ref 0 in
  let rounds = ref 0 in
  while !free_n > 0 do
    incr rounds;
    let n = !free_n in
    proposals := !proposals + n;
    free_n := 0;
    for i = 0 to n - 1 do
      let p = free.(i) in
      let a = left_order t p next_rank.(p) in
      next_rank.(p) <- next_rank.(p) + 1;
      let current = held.(a) in
      if current < 0 then begin
        held.(a) <- p;
        memo.(a) <- -1 - p
      end
      else begin
        let rank_p = right_rank t a p in
        let loser =
          if rank_p < partner_rank t memo a then begin
            held.(a) <- p;
            memo.(a) <- rank_p;
            current
          end
          else p
        in
        free.(!free_n) <- loser;
        incr free_n
      end
    done
  done;
  for a = 0 to k - 1 do
    next_rank.(held.(a)) <- a
  done;
  { Gale_shapley.proposals = !proposals; rounds = !rounds }

let gale_shapley t =
  with_slab t.k (fun s ->
      let stats = run_gs t s in
      Array.sub s.next_rank 0 t.k, stats)

(* --- verification --------------------------------------------------------- *)

(* A scan's row cursor. [enter] derives the row's four round keys into
   [keys] once, and the row's probes read them back as unboxed locals,
   so a probe costs the network alone. Under [Common_acceptors] every
   acceptor ranks the row's party alike: [right_rank] probes it once per
   row, on first use. The cursor is the scan's own, so concurrent scans
   of one view share no row state. *)
let row_cursor t () =
  let keys = Bytes.create 32 in
  let row = ref 0 and shared = ref (-1) in
  let enter l =
    check t "left_order" l;
    let key = absorb t.left_prefix l in
    Bytes.set_int64_ne keys 0 (absorb key 0);
    Bytes.set_int64_ne keys 8 (absorb key 1);
    Bytes.set_int64_ne keys 16 (absorb key 2);
    Bytes.set_int64_ne keys 24 (absorb key 3);
    row := l;
    shared := -1
  in
  let order rank =
    check t "left_order" rank;
    walk t (Bytes.get_int64_ne keys 0) (Bytes.get_int64_ne keys 8)
      (Bytes.get_int64_ne keys 16) (Bytes.get_int64_ne keys 24) ~inverse:false rank
  in
  let rank r =
    check t "left_rank" r;
    walk t (Bytes.get_int64_ne keys 0) (Bytes.get_int64_ne keys 8)
      (Bytes.get_int64_ne keys 16) (Bytes.get_int64_ne keys 24) ~inverse:true r
  in
  let right_rank =
    match t.family with
    | Uniform -> fun r -> right_rank t r !row
    | Common_acceptors ->
      fun r ->
        if !shared < 0 then shared := right_rank t r !row
        else check t "right_rank" r;
        !shared
  in
  { Verify.enter; order; rank; right_rank }

let view t ~l2r ~memo =
  {
    Verify.k = t.k;
    row = row_cursor t;
    left_partner = (fun l -> l2r.(l));
    right_partner_rank = (fun r -> partner_rank t memo r);
  }

(* The memo starts unprobed: one O(k) pass, the cost of the r2l array
   it replaces, so each of Scale's sharded views pays nothing extra. *)
let verify_view t ~l2r =
  let k = t.k in
  if Array.length l2r <> k then invalid_arg "Flat.verify_view: wrong length";
  let memo = Array.make k k in
  Array.iteri (fun l r -> if r >= 0 then memo.(r) <- -1 - l) l2r;
  view t ~l2r ~memo

(* [Rng.mix64_absorb] folded over the first [n] cells of [a], from
   [Rng.mix64 salt]. *)
let fold_matching ~salt a n =
  let h = ref (Rng.mix64 salt) in
  for i = 0 to n - 1 do
    h := absorb !h a.(i)
  done;
  !h

let fingerprint ~salt l2r = fold_matching ~salt l2r (Array.length l2r)

type solved = {
  stats : Gale_shapley.stats;
  stable : bool;
  fingerprint : int64;
}

let solve t ~salt =
  with_slab t.k (fun s ->
      let stats = run_gs t s in
      let v = view t ~l2r:s.next_rank ~memo:s.memo in
      {
        stats;
        stable = not (Verify.exists_blocking v);
        fingerprint = fold_matching ~salt s.next_rank t.k;
      })

(* Materialize as an explicit [Profile.t] — O(k²); small-k tests only. *)
let to_profile t =
  let list_of order who = List.init t.k (fun rank -> order t who rank) in
  let side order = Array.init t.k (fun who -> Prefs.of_list_exn (list_of order who)) in
  Profile.make_exn ~left:(side left_order) ~right:(side right_order)
