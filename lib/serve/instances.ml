type state =
  | Submitted
  | Running
  | Matched
  | Failed
  | Timed_out

let state_to_string = function
  | Submitted -> "submitted"
  | Running -> "running"
  | Matched -> "matched"
  | Failed -> "failed"
  | Timed_out -> "timed-out"

let state_index = function
  | Submitted -> 0
  | Running -> 1
  | Matched -> 2
  | Failed -> 3
  | Timed_out -> 4

let final_of_outcome = function
  | Frame.Matched _ -> Matched
  | Frame.Failed _ -> Failed
  | Frame.Timed_out -> Timed_out

type record = {
  spec : Frame.spec;
  arrival_tick : int;
  mutable state : state;
  mutable outcome : Frame.outcome option;
  mutable done_tick : int;
}

type t = {
  table : (int, record) Hashtbl.t;
  counts : int array; (* by state_index *)
  mutable total : int;
}

let create () = { table = Hashtbl.create 64; counts = Array.make 5 0; total = 0 }
let mem t req_id = Hashtbl.mem t.table req_id
let find t req_id = Hashtbl.find_opt t.table req_id

let add t ~tick (spec : Frame.spec) =
  if mem t spec.req_id then
    invalid_arg (Printf.sprintf "Instances.add: duplicate req_id %d" spec.req_id);
  let record =
    { spec; arrival_tick = tick; state = Submitted; outcome = None; done_tick = -1 }
  in
  Hashtbl.replace t.table spec.req_id record;
  t.counts.(state_index Submitted) <- t.counts.(state_index Submitted) + 1;
  t.total <- t.total + 1;
  record

(* The only legal moves. Finality is absorbing: nothing leaves
   Matched/Failed/Timed_out. *)
let legal from into =
  match from, into with
  | Submitted, Running -> true
  | Running, (Matched | Failed | Timed_out) -> true
  | _ -> false

let transition t record into =
  if not (legal record.state into) then
    invalid_arg
      (Printf.sprintf "Instances.transition: %s -> %s (req #%d)"
         (state_to_string record.state) (state_to_string into)
         record.spec.Frame.req_id);
  t.counts.(state_index record.state) <- t.counts.(state_index record.state) - 1;
  t.counts.(state_index into) <- t.counts.(state_index into) + 1;
  record.state <- into

(* A finished record leaves the table, so a long-running daemon's table
   holds only live requests; the caller keeps the record it passed in. *)
let finish t record ~tick outcome =
  transition t record (final_of_outcome outcome);
  record.outcome <- Some outcome;
  record.done_tick <- tick;
  Hashtbl.remove t.table record.spec.req_id

let count t state = t.counts.(state_index state)
let pending t = count t Submitted + count t Running
let total t = t.total
