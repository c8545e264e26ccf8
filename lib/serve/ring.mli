(** Bounded non-blocking queue, safe across domains.

    The serve layer's in-process transport: the load generator feeds the
    daemon through one ring and reads responses off another. One mutex
    guards a [Queue.t], so any number of domains may push and pop.
    Popped values leave the queue, so the ring never pins them for the
    GC.

    Neither operation blocks: a full ring is the backpressure signal
    admission control turns into a typed reject, and an empty one tells
    the caller to do something else (tick the server, poll a socket)
    before it looks again. *)

type 'a t

(** [create ~capacity ()] — capacity is rounded up to the next power of
    two (minimum 2). Raises [Invalid_argument] when [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

(** Elements the ring can hold (the rounded-up power of two). *)
val capacity : 'a t -> int

(** Elements currently queued. *)
val length : 'a t -> int

(** [try_push t x] — [false] when the ring is full. *)
val try_push : 'a t -> 'a -> bool

(** [try_pop t] — [None] when the ring is empty. *)
val try_pop : 'a t -> 'a option
