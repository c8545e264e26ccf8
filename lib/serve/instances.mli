(** The daemon's instance table: every live (submitted or running)
    request, keyed by request id, with an enforced lifecycle.

    States move strictly forward:
    [Submitted → Running → Matched | Failed | Timed_out] — any other
    transition raises [Invalid_argument] (a scheduler bug, not a client
    error). Per-state counters make the admission/consistency checks
    O(1).

    {!finish} drops a record from the table, so memory tracks the live
    requests, not every request ever served. The per-state counters and
    {!total} still count finished records, and a finished [req_id] may
    be submitted again: only a duplicate {e live} id is refused.

    The table itself is single-writer (the daemon's coordinator domain
    admits and retires; pool tasks only compute outcomes), so access is
    not synchronized. *)

module Frame := Frame

type state =
  | Submitted
  | Running
  | Matched
  | Failed
  | Timed_out

type record = {
  spec : Frame.spec;
  arrival_tick : int;
  mutable state : state;
  mutable outcome : Frame.outcome option;  (** set on the final states *)
  mutable done_tick : int;  (** -1 until final *)
}

type t

val create : unit -> t

(** [add t ~tick spec] registers a [Submitted] record. Raises
    [Invalid_argument] on a duplicate live [req_id] (admission must
    reject those first — see {!mem}). *)
val add : t -> tick:int -> Frame.spec -> record

(** [mem t req_id] / [find t req_id] see live records only. *)

val mem : t -> int -> bool
val find : t -> int -> record option

(** [transition t record state] — enforces the lifecycle; final states
    additionally require {!finish}. *)
val transition : t -> record -> state -> unit

(** [finish t record ~tick outcome] — transition to the outcome's final
    state, recording outcome and completion tick in [record], and drop
    it from the table: {!find} and {!mem} no longer see its id. *)
val finish : t -> record -> tick:int -> Frame.outcome -> unit

(** Live records (submitted or running). *)
val pending : t -> int

(** Records in the given state. *)
val count : t -> state -> int

(** Total records ever admitted (finished ones included), the sum of
    the per-state {!count}s. *)
val total : t -> int
