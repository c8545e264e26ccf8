(* The traced run's span recorder.

   A span is (op id, span id, parent span id, layer, start, end). Each op
   gets its own recorder, created on whichever domain runs the op and
   handed back with the op's result, so recording needs no locks. Spans
   nest by a stack: [enter] opens a child of the innermost open span,
   [leave] closes it and charges its duration to the parent's covered
   time, so a layer's self time (duration minus the part its children
   cover) is known the moment the span closes. The root span's self time
   is the op's [unattributed] row.

   Send calls are too many to keep one span each (a Π_bSM run at k = 8
   makes ~10^5), so [child_time] folds a measured interval into the open
   span as covered time and into the layer's totals, without a record. *)

type layer =
  | Op
  | Harness_case
  | Select_plan
  | Pki_setup
  | Schedule_compile
  | Engine_run
  | Compute
  | Send
  | Check
  | Encode
  | Ring_push
  | Decode
  | Submit
  | Queue_wait
  | Tick
  | Respond

let layers =
  [
    Op; Harness_case; Select_plan; Pki_setup; Schedule_compile; Engine_run;
    Compute; Send; Check; Encode; Ring_push; Decode; Submit; Queue_wait;
    Tick; Respond;
  ]

let index = function
  | Op -> 0
  | Harness_case -> 1
  | Select_plan -> 2
  | Pki_setup -> 3
  | Schedule_compile -> 4
  | Engine_run -> 5
  | Compute -> 6
  | Send -> 7
  | Check -> 8
  | Encode -> 9
  | Ring_push -> 10
  | Decode -> 11
  | Submit -> 12
  | Queue_wait -> 13
  | Tick -> 14
  | Respond -> 15

let n_layers = List.length layers

let name = function
  | Op -> "op"
  | Harness_case -> "harness.case"
  | Select_plan -> "select.plan"
  | Pki_setup -> "crypto.pki_setup"
  | Schedule_compile -> "schedule.compile"
  | Engine_run -> "engine.run"
  | Compute -> "protocol.compute"
  | Send -> "wire.send"
  | Check -> "problem.check"
  | Encode -> "frame.encode"
  | Ring_push -> "ring.push"
  | Decode -> "frame.decode"
  | Submit -> "server.submit"
  | Queue_wait -> "server.queue_wait"
  | Tick -> "server.tick"
  | Respond -> "frame.respond"

type frame = {
  id : int;
  layer : layer;
  start : int;
  mutable covered : int;
}

type span = {
  sp_id : int;
  sp_parent : int;  (** -1 for the root *)
  sp_layer : layer;
  sp_start : int;
  sp_stop : int;
}

type t = {
  op : int;
  mutable stack : frame list;
  mutable next_id : int;
  mutable spans : span list;  (** closed, newest first *)
  self_ns : int array;
  calls : int array;
}

let create ~op =
  {
    op;
    stack = [];
    next_id = 0;
    spans = [];
    self_ns = Array.make n_layers 0;
    calls = Array.make n_layers 0;
  }

let enter_at t layer ~start =
  t.stack <- { id = t.next_id; layer; start; covered = 0 } :: t.stack;
  t.next_id <- t.next_id + 1

let leave_at t ~stop =
  match t.stack with
  | [] -> invalid_arg "Span.leave: no open span"
  | f :: rest ->
    let dur = stop - f.start in
    let i = index f.layer in
    t.self_ns.(i) <- t.self_ns.(i) + (dur - f.covered);
    t.calls.(i) <- t.calls.(i) + 1;
    t.spans <-
      {
        sp_id = f.id;
        sp_parent = (match rest with p :: _ -> p.id | [] -> -1);
        sp_layer = f.layer;
        sp_start = f.start;
        sp_stop = stop;
      }
      :: t.spans;
    t.stack <- rest;
    (match rest with p :: _ -> p.covered <- p.covered + dur | [] -> ())

let enter t layer = enter_at t layer ~start:(Common.now_ns ())
let leave t = leave_at t ~stop:(Common.now_ns ())

(* A child span with known bounds, closed immediately. *)
let interval t layer ~start ~stop =
  enter_at t layer ~start;
  leave_at t ~stop

let within t layer f =
  enter t layer;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

let child_time t layer dur =
  let i = index layer in
  t.self_ns.(i) <- t.self_ns.(i) + dur;
  t.calls.(i) <- t.calls.(i) + 1;
  match t.stack with
  | p :: _ -> p.covered <- p.covered + dur
  | [] -> ()

let self_ns t layer = t.self_ns.(index layer)

(* --- run-level aggregation ------------------------------------------------ *)

(* Per-layer totals over every traced op of a run, plus the spans
   themselves (kept up to [keep] spans; totals always cover every op). *)
type profile = {
  total_self : int array;
  total_calls : int array;
  mutable op_wall_ns : int;
  mutable ops : int;
  mutable kept : (int * span) list;  (** (op id, span), newest first *)
  mutable n_kept : int;
  mutable dropped : int;
}

let keep = 200_000

let profile () =
  {
    total_self = Array.make n_layers 0;
    total_calls = Array.make n_layers 0;
    op_wall_ns = 0;
    ops = 0;
    kept = [];
    n_kept = 0;
    dropped = 0;
  }

let absorb p t =
  if t.stack <> [] then invalid_arg "Span.absorb: op left spans open";
  Array.iteri (fun i v -> p.total_self.(i) <- p.total_self.(i) + v) t.self_ns;
  Array.iteri (fun i v -> p.total_calls.(i) <- p.total_calls.(i) + v) t.calls;
  List.iter
    (fun s ->
      if s.sp_parent = -1 then p.op_wall_ns <- p.op_wall_ns + (s.sp_stop - s.sp_start);
      if p.n_kept < keep then begin
        p.kept <- (t.op, s) :: p.kept;
        p.n_kept <- p.n_kept + 1
      end
      else p.dropped <- p.dropped + 1)
    t.spans;
  p.ops <- p.ops + 1

let total_self p layer = p.total_self.(index layer)
let total_calls p layer = p.total_calls.(index layer)

(* The per-layer split: self time per layer as a share of summed op wall,
   largest first, zero rows omitted. *)
let split_lines p =
  let wall = float_of_int (max 1 p.op_wall_ns) in
  let rows =
    List.filter_map
      (fun l ->
        let ns = total_self p l in
        if ns = 0 && total_calls p l = 0 then None else Some (l, ns))
      layers
  in
  let rows = List.sort (fun (_, a) (_, b) -> compare b a) rows in
  Printf.sprintf "layer split over %d traced ops (%.1f ms summed op wall):" p.ops
    (float_of_int p.op_wall_ns /. 1e6)
  :: List.map
       (fun (l, ns) ->
         Printf.sprintf "  %-20s %10.1f ms  %5.1f%%  (%d calls)"
           (if l = Op then "unattributed" else name l)
           (float_of_int ns /. 1e6)
           (100. *. float_of_int ns /. wall)
           (total_calls p l))
       rows

(* Written at exit: one tab-separated line per kept span, times in ns
   relative to [origin]. *)
let write p ~path ~origin =
  let oc = open_out path in
  Printf.fprintf oc "# op\tspan\tparent\tlayer\tstart_ns\tend_ns\n";
  List.iter
    (fun (op, s) ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" op s.sp_id s.sp_parent
        (name s.sp_layer) (s.sp_start - origin) (s.sp_stop - origin))
    (List.rev p.kept);
  if p.dropped > 0 then Printf.fprintf oc "# %d further spans not kept\n" p.dropped;
  close_out oc
