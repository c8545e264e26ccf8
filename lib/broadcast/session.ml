module Wire = Bsm_wire.Wire
module Net = Bsm_runtime.Net

let tagged = Wire.pair Wire.string Wire.string

let wrap tag payload = Wire.encode tagged (tag, payload)

(* Routing reads a wrapped message in place, [tagged]'s two fields with
   [Wire.Dec.peek_string] and [Wire.Dec.peek_last_string]; a view of the
   tag's bytes is looked up in a table of the session's tags built once,
   so a message costs one scan, no tag string and, when a machine takes
   it, the copy of its payload. Malformed framing or an unknown tag drops
   the message, as decoding with [tagged] and finding no machine did. *)
module Tags = Hashtbl.Make (Wire.Slice)

(* [route tags pos msg] is the index of the machine [msg] is tagged for,
   with [!pos] left at its payload, or -1. *)
let route tags pos msg =
  let limit = String.length msg in
  pos := 0;
  let tag_off = Wire.Dec.peek_string msg pos ~limit in
  if tag_off < 0 then -1
  else begin
    let tag_len = !pos - tag_off in
    let off = Wire.Dec.peek_last_string msg pos ~limit in
    if off < 0 then -1
    else begin
      pos := off;
      match Tags.find tags (Wire.Slice.make msg ~off:tag_off ~len:tag_len) with
      | i -> i
      | exception Not_found -> -1
    end
  end

let run_parallel (net : Net.t) machines =
  let tags = List.map fst machines in
  if List.length (List.sort_uniq String.compare tags) <> List.length tags then
    invalid_arg "Session.run_parallel: duplicate tags";
  let total_rounds = List.fold_left (fun acc (_, m) -> max acc m.Machine.rounds) 0 machines in
  (* Each fan-out is wrapped once and handed to the net whole. *)
  let send_tagged tag outbox =
    List.iter (fun (dsts, payload) -> net.send_many dsts (wrap tag payload)) outbox
  in
  (* Expose every machine's round-local state to the state-corruption
     plane before any round runs, in machine-list order, so cell indices
     are deterministic across executors. *)
  List.iter
    (fun (_, m) -> List.iter net.register_state m.Machine.cells)
    machines;
  List.iter
    (fun (tag, m) -> send_tagged tag m.Machine.initial)
    machines;
  let router = Tags.create 16 in
  List.iteri (fun i tag -> Tags.replace router (Wire.Slice.of_string tag) i) tags;
  let pos = ref 0 in
  let routes = Array.of_list machines in
  let inboxes = Array.make (Array.length routes) [] in
  for round = 1 to total_rounds do
    let inbox = net.sync () in
    (* Route each message to its machine's inbox, preserving order. *)
    List.iter
      (fun (src, msg) ->
        match route router pos msg with
        | -1 -> ()
        | i ->
          let off = !pos in
          inboxes.(i) <- (src, String.sub msg off (String.length msg - off)) :: inboxes.(i))
      inbox;
    Array.iteri
      (fun i (tag, m) ->
        let mine = List.rev inboxes.(i) in
        inboxes.(i) <- [];
        if round <= m.Machine.rounds then
          send_tagged tag (m.Machine.step ~round ~inbox:mine))
      routes
  done;
  List.map (fun (tag, m) -> tag, m.Machine.finish ()) machines
