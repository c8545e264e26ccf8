(** Stability checking and blocking-pair analysis.

    A pair [(l, r)] not matched together is {e blocking} when [l] prefers
    [r] to its partner and [r] prefers [l] to its partner. A matching is
    stable iff no blocking pair exists. For partial matchings an unmatched
    party prefers anyone to being alone (the paper's convention), so a
    mutually-acceptable unmatched pair always blocks.

    Two implementations coexist. The {!view}-based scan is early-exiting
    and allocation-free: per left row it probes only candidates ranked
    strictly before the row's partner, so checking a proposer-optimal
    matching costs O(Σ partner ranks) ≈ O(k log k) on random preferences
    instead of O(k²), and it powers {!is_stable}, {!instability},
    {!is_eps_stable} and the row-sharded parallel check in the harness.
    The list-building {!blocking_pairs} / {!blocking_pairs_partial} keep
    the original full scan and output order (ascending left, then
    ascending right index) for violation reports and as the reference
    the property tests pin the fast paths against. *)

type blocking_pair = {
  left : int;
  right : int;
}

(** On perfect matchings. *)

val blocking_pairs : Profile.t -> Matching.t -> blocking_pair list

(** Early-exit: stops at the first blocking pair found. *)
val is_stable : Profile.t -> Matching.t -> bool

(** [instability profile m] is the number of blocking pairs — the
    approximate-stability metric of Ostrovsky–Rosenbaum (PODC 2015) that we
    use to quantify how badly naive protocols fail under attack. Counts
    without materializing the pair list. *)
val instability : Profile.t -> Matching.t -> int

(** [is_eps_stable ~eps profile m] — are there at most ⌊ε·k²⌋ blocking
    pairs? This is the ε-stability relaxation of Ostrovsky–Rosenbaum
    (arXiv:1408.2782): the oracle-side half of their almost-stable fast
    path. Counting stops as soon as the budget is exceeded, so small
    budgets are nearly as cheap as {!is_stable}; [eps = 0.] agrees
    exactly with {!is_stable}. Raises [Invalid_argument] when
    [eps < 0.]. *)
val is_eps_stable : eps:float -> Profile.t -> Matching.t -> bool

(** {2 Allocation-free views}

    A {!view} abstracts the inputs of the fast scan: preference probes
    as functions (so explicit [Profile.t] and implicit [Flat.t]
    instances share the scan), the left partner map as ints with [-1]
    meaning unmatched, and each right party's rank of its partner — the
    one thing the scan needs of the right side's matching, so an
    implicit instance can memoise it instead of probing it per
    candidate. *)

(** A row cursor: the scan calls [enter l] once for left party [l]'s
    row, then asks only about that row. [Flat] derives the row's keys
    at [enter] and answers the row's probes from them; an explicit
    profile only remembers [l]. *)
type row = {
  enter : int -> unit;  (** [enter l]: the probes below are about row [l] *)
  order : int -> int;  (** [order rank] = the row's candidate at [rank] *)
  rank : int -> int;  (** [rank r] = the rank of [r] in the row *)
  right_rank : int -> int;  (** [right_rank r] = the rank [r] gives [l] *)
}

type view = {
  k : int;
  row : unit -> row;
      (** a fresh cursor, made once per scan call: the row state belongs
          to the scan, not the view, so scans of one view on several
          domains at once share none of it *)
  left_partner : int -> int;  (** -1 when unmatched *)
  right_partner_rank : int -> int;
      (** [right_partner_rank r] = rank [r] gives its partner; [k] when
          unmatched (every candidate ranks ahead of being alone) *)
}

val view_of_matching : Profile.t -> Matching.t -> view

(** [count_blocking_rows ?cap v ~lo ~hi] counts blocking pairs whose
    left endpoint lies in rows [lo, hi) (clamped to [0, k)), giving up —
    and returning [cap + 1] — as soon as the count exceeds [cap]
    (default [max_int], i.e. exact). Disjoint row ranges partition the
    blocking pairs, so shard counts sum to the total: this is the unit
    of work of the pool-parallel large-k check. One call makes one
    cursor and enters each row once, so it allocates O(1) words
    whatever the number of rows. *)
val count_blocking_rows : ?cap:int -> view -> lo:int -> hi:int -> int

val exists_blocking : view -> bool
val count_blocking : view -> int
val is_eps_stable_view : eps:float -> view -> bool

(** On partial matchings, given as [partner_of : int -> int option] maps
    for both sides (the distributed layer's view of honest outputs). *)

val blocking_pairs_partial :
  Profile.t ->
  left_partner:(int -> int option) ->
  right_partner:(int -> int option) ->
  consider_left:(int -> bool) ->
  consider_right:(int -> bool) ->
  blocking_pair list
