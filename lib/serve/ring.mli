(** Bounded blocking queue, safe across domains.

    The serve layer's in-process transport: the load generator feeds the
    daemon through one ring and reads responses off another. One mutex
    guards a [Queue.t], so any number of domains may push and pop.
    Popped values leave the queue, so the ring never pins them for the
    GC.

    [try_push]/[try_pop] never block — a full ring is the backpressure
    signal admission control turns into a typed reject. [push]/[pop]
    park on a condition variable (no spinning) and are woken by the
    opposite side. *)

type 'a t

(** [create ~capacity ()] — capacity is rounded up to the next power of
    two (minimum 2). Raises [Invalid_argument] when [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

(** Elements the ring can hold (the rounded-up power of two). *)
val capacity : 'a t -> int

(** Elements currently queued. *)
val length : 'a t -> int

(** [try_push t x] — [false] when the ring is full or closed. *)
val try_push : 'a t -> 'a -> bool

(** [try_pop t] — [None] when the ring is empty (closed or not). *)
val try_pop : 'a t -> 'a option

(** [push t x] blocks while the ring is full; [false] iff the ring was
    closed before the element could be queued. *)
val push : 'a t -> 'a -> bool

(** [pop t] blocks while the ring is empty; [None] once the ring is
    closed {e and} drained — the consumer's end-of-stream. *)
val pop : 'a t -> 'a option

(** [close t] — subsequent pushes fail; pops drain what remains then
    report end-of-stream. Idempotent; wakes both blocked sides. *)
val close : 'a t -> unit

val closed : 'a t -> bool
