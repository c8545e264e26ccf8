module Wire = Bsm_wire.Wire

(* Frames above this many payload bytes are rejected. *)
let max_frame_bytes = 1 lsl 20

(* --- stream framing ------------------------------------------------------- *)

(* A frame is [Wire.string]'s bytes of its payload. *)
let frame_bytes payload = Wire.encode Wire.string payload

(* Parse one frame out of [s] starting at [pos]: [`Frame (payload, next)],
   [`More] (cut short), or [`Bad reason] — a length prefix [Wire.uint]
   rejects for a reason other than running out of input, or one above
   the cap. *)
let parse_frame s pos =
  let limit = String.length s in
  let cursor = ref pos in
  match Wire.Dec.peek_uint_partial s cursor ~limit with
  | -2 -> `More
  | -1 -> `Bad "malformed frame length"
  | len when len > max_frame_bytes -> `Bad "frame too large"
  | _ -> (
    cursor := pos;
    match Wire.Dec.peek_string s cursor ~limit with
    | -1 -> `More
    | off -> `Frame (String.sub s off (!cursor - off), !cursor))

let rec write_all fd bytes pos len =
  if len > 0 then begin
    let n = Unix.write fd bytes pos len in
    write_all fd bytes (pos + n) (len - n)
  end

(* --- daemon side --------------------------------------------------------- *)

type conn_id = int

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
}

type listener = {
  sock : Unix.file_descr;
  path : string;
  conns : (conn_id, conn) Hashtbl.t;
  mutable next_id : int;
  mutable open_ : bool;
}

type event =
  | Connect of conn_id
  | Request of conn_id * Frame.request
  | Bad_frame of conn_id * string
  | Disconnect of conn_id

let listen ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock sock;
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  { sock; path; conns = Hashtbl.create 16; next_id = 0; open_ = true }

let drop l id =
  match Hashtbl.find_opt l.conns id with
  | None -> ()
  | Some conn ->
    Hashtbl.remove l.conns id;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* Extract every complete frame from [conn]'s buffer; compact the
   leftover. Returns the events (in order); a bad frame ends the
   connection. *)
let extract l id conn events =
  let s = Buffer.contents conn.inbuf in
  let rec go pos events =
    match parse_frame s pos with
    | `More ->
      Buffer.clear conn.inbuf;
      Buffer.add_substring conn.inbuf s pos (String.length s - pos);
      events
    | `Bad reason ->
      drop l id;
      Bad_frame (id, reason) :: events
    | `Frame (payload, next) -> (
      match Wire.decode Frame.request_codec payload with
      | Ok request -> go next (Request (id, request) :: events)
      | Error reason ->
        drop l id;
        Bad_frame (id, reason) :: events)
  in
  go 0 events

let poll l ~timeout_s =
  if not l.open_ then []
  else begin
    (* poll(2), not select: the daemon must survive >1024 fds, which is
       where [Unix.select]'s fd_set silently stops working. Slot 0 is
       the listening socket; slot [i+1] is connection [i]. *)
    let conns = Hashtbl.fold (fun id c acc -> (id, c) :: acc) l.conns [] in
    let fds = Array.make (1 + List.length conns) l.sock in
    List.iteri (fun i (_, c) -> fds.(i + 1) <- c.fd) conns;
    let ready = Readiness.readable fds ~timeout_s in
    let events = ref [] in
    if ready.(0) then begin
      let rec accept_all () =
        match Unix.accept l.sock with
        | fd, _ ->
          Unix.set_nonblock fd;
          let id = l.next_id in
          l.next_id <- id + 1;
          Hashtbl.replace l.conns id { fd; inbuf = Buffer.create 256 };
          events := Connect id :: !events;
          accept_all ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      in
      accept_all ()
    end;
    let chunk = Bytes.create 4096 in
    List.iteri
      (fun i (id, conn) ->
        if ready.(i + 1) then begin
          let rec read_all () =
            match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
            | 0 ->
              drop l id;
              events := Disconnect id :: !events
            | n ->
              Buffer.add_subbytes conn.inbuf chunk 0 n;
              read_all ()
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              events := extract l id conn !events
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
              drop l id;
              events := Disconnect id :: !events
          in
          read_all ()
        end)
      conns;
    List.rev !events
  end

let respond l id response =
  match Hashtbl.find_opt l.conns id with
  | None -> ()
  | Some conn -> (
    let bytes = frame_bytes (Wire.encode Frame.response_codec response) in
    try
      (* Writes block until drained: responses are small and the
         listener never queues unbounded output. *)
      Unix.clear_nonblock conn.fd;
      write_all conn.fd (Bytes.of_string bytes) 0 (String.length bytes);
      Unix.set_nonblock conn.fd
    with Unix.Unix_error _ -> drop l id)

let shutdown l =
  if l.open_ then begin
    l.open_ <- false;
    Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) l.conns;
    Hashtbl.reset l.conns;
    (try Unix.close l.sock with Unix.Unix_error _ -> ());
    try Unix.unlink l.path with Unix.Unix_error _ -> ()
  end

(* --- client side --------------------------------------------------------- *)

type client = {
  cfd : Unix.file_descr;
  mutable eof : bool;
}

let connect ~path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { cfd = fd; eof = false }

let send c request =
  let bytes = frame_bytes (Wire.encode Frame.request_codec request) in
  write_all c.cfd (Bytes.of_string bytes) 0 (String.length bytes)

let read_byte c =
  let b = Bytes.create 1 in
  match Unix.read c.cfd b 0 1 with 0 -> None | _ -> Some (Bytes.get b 0)

let recv c =
  if c.eof then None
  else begin
    (* The length prefix, a byte at a time until [Wire] can read it. *)
    let prefix = Buffer.create 10 in
    let rec length () =
      match read_byte c with
      | None -> None
      | Some b -> (
        Buffer.add_char prefix b;
        let s = Buffer.contents prefix in
        match Wire.Dec.peek_uint_partial s (ref 0) ~limit:(String.length s) with
        | -2 -> length ()
        | -1 -> failwith "Uds.recv: malformed frame length"
        | len -> Some len)
    in
    match length () with
    | None ->
      c.eof <- true;
      None
    | Some len ->
      if len > max_frame_bytes then failwith "Uds.recv: bad frame length";
      let buf = Bytes.create len in
      let rec fill pos =
        if pos < len then begin
          match Unix.read c.cfd buf pos (len - pos) with
          | 0 -> failwith "Uds.recv: truncated frame"
          | n -> fill (pos + n)
        end
      in
      fill 0;
      (match Wire.decode Frame.response_codec (Bytes.to_string buf) with
      | Ok response -> Some response
      | Error msg -> failwith ("Uds.recv: " ^ msg))
  end

let close c =
  c.eof <- true;
  try Unix.close c.cfd with Unix.Unix_error _ -> ()
