(** Unix-domain-socket transport for the serve daemon.

    Each frame on the stream is [Bsm_wire.Wire.string]'s bytes of its
    payload, its length prefix read with Wire's cursor readers; the
    payload is a
    {!Frame.request} (client → daemon) or {!Frame.response}
    (daemon → client). The listener is non-blocking and poll-driven
    (via {!Readiness}, so it survives more than [FD_SETSIZE] open
    connections) and the daemon's single coordinator thread can
    interleave socket traffic with scheduler ticks; clients are
    blocking (they are either humans' tools or the load generator,
    which wants backpressure).

    Decoder hardening carries over from the wire layer: a length prefix
    that [Wire.uint] rejects, other than one cut short, is a
    [Bad_frame]; prefixes are capped (a forged 8 EiB prefix is a
    [Bad_frame], not an allocation); and any [Malformed] payload drops
    the connection with a [Bad_frame] event — byzantine clients are a
    first-class case. *)

module Frame := Frame

(** {2 Daemon side} *)

type listener
type conn_id = int

type event =
  | Connect of conn_id
  | Request of conn_id * Frame.request
  | Bad_frame of conn_id * string  (** connection dropped *)
  | Disconnect of conn_id

(** [listen ~path] binds and listens on [path] (unlinking any stale
    socket file first). *)
val listen : path:string -> listener

(** [poll l ~timeout_s] — wait up to [timeout_s] for socket activity;
    accept connections, read what's available, return the completed
    events in arrival order. *)
val poll : listener -> timeout_s:float -> event list

(** [respond l conn response] — frame and write (blocking). Unknown or
    dropped connections are ignored (the client may have gone). *)
val respond : listener -> conn_id -> Frame.response -> unit

val drop : listener -> conn_id -> unit

(** Close every connection, the listening socket, and unlink the path. *)
val shutdown : listener -> unit

(** {2 Client side} *)

type client

val connect : path:string -> client
val send : client -> Frame.request -> unit

(** Blocking; [None] on server EOF. Raises [Failure] on a malformed or
    oversized server frame. *)
val recv : client -> Frame.response option

val close : client -> unit
