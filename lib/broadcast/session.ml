module Wire = Bsm_wire.Wire
module Net = Bsm_runtime.Net

let tagged = Wire.pair Wire.string Wire.string

let wrap tag payload = Wire.encode tagged (tag, payload)

let unwrap payload =
  match Wire.decode tagged payload with
  | Ok pair -> Some pair
  | Error _ -> None

let rounds_needed machines =
  List.fold_left (fun acc (_, m) -> max acc m.Machine.rounds) 0 machines

let run_parallel (net : Net.t) machines =
  let tags = List.map fst machines in
  if List.length (List.sort_uniq String.compare tags) <> List.length tags then
    invalid_arg "Session.run_parallel: duplicate tags";
  let total_rounds = rounds_needed machines in
  (* Machines fan one payload string out to many destinations ([to_all]
     shares it), so wrap once per run of physically-equal payloads
     rather than once per destination. *)
  let send_tagged tag outbox =
    let rec go last wrapped = function
      | [] -> ()
      | (dst, payload) :: rest ->
        let wrapped = if payload == last then wrapped else wrap tag payload in
        net.send dst wrapped;
        go payload wrapped rest
    in
    match outbox with
    | [] -> ()
    | (_, first) :: _ -> go first (wrap tag first) outbox
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
  (* One inbox cell per machine, found by tag: routing a message costs a
     single lookup, and traffic tagged for no machine is dropped on the
     spot. *)
  let inboxes = Hashtbl.create 16 in
  let routes =
    List.map
      (fun (tag, m) ->
        let cell = ref [] in
        Hashtbl.replace inboxes tag cell;
        tag, m, cell)
      machines
  in
  for round = 1 to total_rounds do
    let inbox = net.sync () in
    (* Route each message to its machine's inbox, preserving order. *)
    List.iter
      (fun (src, payload) ->
        match unwrap payload with
        | Some (tag, inner) -> (
          match Hashtbl.find_opt inboxes tag with
          | Some cell -> cell := (src, inner) :: !cell
          | None -> ())
        | None -> ())
      inbox;
    List.iter
      (fun (tag, m, cell) ->
        let mine = List.rev !cell in
        cell := [];
        if round <= m.Machine.rounds then
          send_tagged tag (m.Machine.step ~round ~inbox:mine))
      routes
  done;
  List.map (fun (tag, m) -> tag, m.Machine.finish ()) machines
