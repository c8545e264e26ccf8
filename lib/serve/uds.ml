module Wire = Bsm_wire.Wire

(* Frames above this many payload bytes are rejected. *)
let max_frame_bytes = 1 lsl 20

(* --- varint stream framing ----------------------------------------------- *)

let add_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done

let frame_bytes payload =
  let buf = Buffer.create (String.length payload + 4) in
  add_varint buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Parse one frame out of [s] starting at [pos]: [`Frame (payload, next)],
   [`More] (incomplete), or [`Bad reason]. *)
let parse_frame s pos =
  let len = String.length s in
  let rec varint acc shift i =
    if i >= len then `More
    else if i - pos >= 10 then `Bad "varint too long"
    else begin
      let b = Char.code s.[i] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then
        if acc < 0 then `Bad "negative frame length" else `Len (acc, i + 1)
      else varint acc (shift + 7) (i + 1)
    end
  in
  match varint 0 0 pos with
  | `More -> `More
  | `Bad _ as bad -> bad
  | `Len (flen, body) ->
    if flen > max_frame_bytes then `Bad "frame too large"
    else if len - body < flen then `More
    else `Frame (String.sub s body flen, body + flen)

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
  match Unix.read c.cfd b 0 1 with 0 -> None | _ -> Some (Char.code (Bytes.get b 0))

let recv c =
  if c.eof then None
  else begin
    let rec varint acc shift count =
      if count >= 10 then failwith "Uds.recv: varint too long"
      else
        match read_byte c with
        | None -> None
        | Some b ->
          let acc = acc lor ((b land 0x7f) lsl shift) in
          if b land 0x80 = 0 then Some acc else varint acc (shift + 7) (count + 1)
    in
    match varint 0 0 0 with
    | None ->
      c.eof <- true;
      None
    | Some len ->
      if len < 0 || len > max_frame_bytes then failwith "Uds.recv: bad frame length";
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
