(** Implicit preference profiles for the large-k scale frontier.

    An explicit {!Profile.t} stores 2k rank tables of length k — O(k²)
    memory, infeasible beyond k ≈ 10⁴. A [Flat.t] instead defines each
    party's preference list as a keyed pseudorandom permutation of
    [0, k): a 4-round Feistel network cycle-walked into the domain,
    keyed by [Rng.mix64_absorb] chains over (seed, side, index). Both
    directions are O(1) — rank→candidate is one forward evaluation,
    candidate→rank one inverse — so Gale–Shapley and the early-exit
    verifier run at k = 10⁵..10⁶ in O(k) memory. Everything is a pure
    function of [(family, seed, k)]: results are bit-replayable and
    domain-safe under parallel sweeps.

    Keys: a party's permutation is keyed by four round keys, absorbed
    from its key chain. No key is stored per party; they are derived
    - per probe, as unboxed locals, by the probes below and GS's
      proposals;
    - once per row by the stability scan: {!verify_view}'s row cursor
      derives the row's left party's round keys when the scan enters
      the row, and answers the row's order and rank probes from them;
    - once per instance, in {!make}, for the one key chain every
      acceptor shares under [Common_acceptors]. GS's contested probes,
      the partner-rank memo and the scan all use it, and the scan asks
      for a row's rank at the acceptors once per row, since every
      acceptor gives the same answer.

    Every probe value is the same whichever way its keys were derived.

    Allocation: a fully applied probe allocates nothing. A scan
    allocates one row cursor, O(1) words whatever k is. GS and the scan
    of its output run in a per-domain {e slab} of four int arrays,
    reused across calls while its capacity is at most 2¹⁶ parties and
    dropped after use above that; a slab in use is taken out of its
    slot, so a nested call gets a fresh one. A warm {!solve} therefore
    allocates no O(k) block. *)

type t

(** Preference structure of an instance.

    - [Uniform]: every party an independent pseudorandom list.
    - [Common_acceptors]: all right-side (accepting) parties share one
      pseudorandom list — the common-preferences regime of
      Hirvonen–Ranjbaran (arXiv:2402.16532) on the accepting side;
      left parties remain independent. *)
type family =
  | Uniform
  | Common_acceptors

val family_to_string : family -> string

(** [make ~family ~seed ~k] — O(1); no tables are materialized, only
    the shared acceptor round keys are derived. Raises
    [Invalid_argument] when [k <= 0]. *)
val make : family:family -> seed:int -> k:int -> t

val k : t -> int
val family : t -> family
val seed : t -> int

(** Preference probes: [left_order t l rank] is the candidate left
    party [l] ranks at [rank]; [left_rank t l r] is the inverse,
    candidate→rank; [right_*] mirror these for the right side (whose
    candidates are left indices). A fully applied probe allocates
    nothing; [left_order t l] stages a closure. All raise
    [Invalid_argument] when the party or its argument is outside
    [\[0, k)]. *)

val left_order : t -> int -> int -> int
val left_rank : t -> int -> int -> int
val right_order : t -> int -> int -> int
val right_rank : t -> int -> int -> int

(** Left-proposing deferred acceptance on the implicit profile, with an
    explicit free-proposer worklist in the domain's slab. Returns a
    fresh left→right matching array and the same statistics as
    {!Gale_shapley.run_with_stats}; on the materialized profile
    ({!to_profile}) the result is bit-identical to
    [Gale_shapley.run_with_stats ~proposers:Side.Left], which the tests
    pin. *)
val gale_shapley : t -> int array * Gale_shapley.stats

(** [verify_view t ~l2r] adapts the instance and a left→right matching
    array ([-1] = unmatched) to the {!Verify.view} scan, for
    {!Verify.count_blocking_rows} and friends. The view memoises each
    right party's rank of its partner in one O(k) array as scans probe
    it. Each scan makes its own row cursor, which holds the keys of the
    row it is in.

    Concurrency: scans of one view may run on several domains at once,
    as the sharded large-k check does. They share no row state, and a
    concurrent write to the memo only ever stores the value already
    due there. Raises [Invalid_argument] when [l2r] has the wrong
    length. *)
val verify_view : t -> l2r:int array -> Verify.view

(** [fingerprint ~salt l2r] — [Rng.mix64_absorb] folded over [l2r],
    starting from [Rng.mix64 salt]: the digest the daemon answers a GS
    request with and the T-scale rows record. *)
val fingerprint : salt:int64 -> int array -> int64

type solved = {
  stats : Gale_shapley.stats;
  stable : bool;  (** no blocking pair (the early-exit scan) *)
  fingerprint : int64;  (** [fingerprint ~salt] of the GS matching *)
}

(** [solve t ~salt] — {!gale_shapley}, the stability scan of its
    output and its {!fingerprint}, in one pass over the domain's slab:
    the scan reuses the partner ranks GS already probed, and a warm
    call allocates no O(k) block. A served GS request is exactly
    this. *)
val solve : t -> salt:int64 -> solved

(** Materialize as an explicit {!Profile.t} — O(k²), for small-k
    differential tests only. *)
val to_profile : t -> Profile.t
