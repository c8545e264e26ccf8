(** Bounded single-producer / single-consumer ring buffer.

    The serve layer's in-process transport: the load generator feeds the
    daemon through one ring and reads responses off another. Exactly
    one domain may push and one may pop (they can be the same domain —
    the in-process client is), which is what makes the lock-free fast
    path sound: the producer owns [tail], the consumer owns [head], and
    each publishes its moves with a release store the other side
    acquires. Slots are cleared on pop so the ring never pins popped
    values for the GC.

    [try_push]/[try_pop] never block — a full ring is the backpressure
    signal admission control turns into a typed reject. [push]/[pop]
    park on a condition variable (no spinning; the container may well be
    single-core) and are woken by the opposite side. *)

type 'a t

(** [create ~capacity ()] — capacity is rounded up to the next power of
    two (minimum 2). Raises [Invalid_argument] when [capacity < 1]. *)
val create : capacity:int -> unit -> 'a t

(** Slots the ring can hold (the rounded-up power of two). *)
val capacity : 'a t -> int

(** Elements currently queued. Exact from either endpoint's own domain;
    a racing snapshot from anywhere else. *)
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
