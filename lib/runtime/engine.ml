open Bsm_prelude
module Topology = Bsm_topology.Topology
module Wire = Bsm_wire.Wire

let src = Logs.Src.create "bsm.engine" ~doc:"synchronous round engine"

module Log = (val Logs.src_log src : Logs.LOG)

type payload = string

type envelope = {
  src : Party_id.t;
  data : Wire.Slice.t;
}

(* A corruptible state cell: one protocol-level mutable value exposed to
   the state-corruption plane through its canonical wire encoding.
   [cell_encode] snapshots the current value; [cell_set] decodes candidate
   bytes into the ref and reports whether they were well-formed (a decode
   failure leaves the value untouched). *)
type state_cell = {
  cell_encode : unit -> payload;
  cell_set : payload -> bool;
}

let state_cell (type a) (codec : a Wire.t) (r : a ref) : state_cell =
  {
    cell_encode = (fun () -> Wire.encode codec !r);
    cell_set =
      (fun bytes ->
        (* Codecs may validate in [inject] by raising; treat any failure
           as "not a well-formed state". *)
        match Wire.decode codec bytes with
        | Ok v ->
          r := v;
          true
        | Error _ | (exception _) -> false);
  }

type env = {
  self : Party_id.t;
  k : int;
  round : unit -> int;
  send : Party_id.t -> payload -> unit;
  send_w : 'a. 'a Wire.t -> Party_id.t -> 'a -> unit;
  send_slice : Party_id.t -> Wire.Slice.t -> unit;
  send_multi_w : 'a. 'a Wire.t -> Party_id.t list -> 'a -> unit;
  next_round : unit -> envelope list;
  output : payload -> unit;
  log : string -> unit;
  register_state : 'a. 'a Wire.t -> 'a ref -> unit;
  register_cell : state_cell -> unit;
}

let broadcast_w env c targets v =
  env.send_multi_w c
    (List.filter (fun p -> not (Party_id.equal p env.self)) targets)
    v

type program = env -> unit

type link =
  | Of_topology of Topology.t
  | Custom of (Party_id.t -> Party_id.t -> bool)

type fault_model = {
  drop : round:int -> src:Party_id.t -> dst:Party_id.t -> bool;
  drop_label : round:int -> src:Party_id.t -> dst:Party_id.t -> string option;
  corrupt :
    round:int ->
    src:Party_id.t ->
    dst:Party_id.t ->
    prev:payload option ->
    payload ->
    (payload * string) option;
  scramble :
    round:int ->
    party:Party_id.t ->
    cell:int ->
    attempt:int ->
    payload ->
    (payload * string) option;
}

let no_label ~round:_ ~src:_ ~dst:_ = None
let no_corrupt ~round:_ ~src:_ ~dst:_ ~prev:_ _ = None
let no_scramble ~round:_ ~party:_ ~cell:_ ~attempt:_ _ = None

let fault_model ?(label = no_label) ?(corrupt = no_corrupt)
    ?(scramble = no_scramble) drop =
  { drop; drop_label = label; corrupt; scramble }

let no_drop ~round:_ ~src:_ ~dst:_ = false
let no_faults = fault_model no_drop

(* How many mutation attempts the scramble hook gets per (round, party,
   cell) before the cell is left untouched. A firing component keeps
   firing across attempts (the coin ignores [attempt]); only the mutated
   bytes vary, so the retry loop searches for a decodable — i.e.
   arbitrary but well-formed — state. *)
let max_scramble_attempts = 8

type event = {
  event_round : int;
  event_src : Party_id.t;
  event_dst : Party_id.t;
  event_bytes : int;
  event_fate : [ `Delivered | `No_channel | `Omitted | `Corrupted | `Scrambled ];
  event_label : string option;
}

type config = {
  k : int;
  link : link;
  max_rounds : int;
  faults : fault_model;
  trace_limit : int;
}

let config ?(max_rounds = 10_000) ?(faults = no_faults) ?(trace_limit = 0) ~k ~link () =
  if k <= 0 then invalid_arg "Engine.config: k must be positive";
  { k; link; max_rounds; faults; trace_limit }

type status =
  | Terminated
  | Out_of_rounds
  | Crashed of string

type party_result = {
  id : Party_id.t;
  status : status;
  out : payload option;
  finished_round : int option;
}

type metrics = {
  rounds_used : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped_topology : int;
  messages_dropped_fault : int;
  messages_corrupted : int;
  messages_dropped_by_label : (string * int) list;
  bytes_sent : int;
  bytes_delivered : int;
  cells_scrambled : int;
  first_scramble_round : int option;
}

type result = {
  parties : party_result list;
  metrics : metrics;
  trace : event list;
}

(* --- Fiber machinery ------------------------------------------------- *)

(* The only effect: a fiber parks on [next_round] until the round's
   delivery sweep has filled its inbox. Every other capability in [env] is
   a plain closure over the party's own cell, since a running fiber writes
   only that cell. *)
type _ Effect.t += Next_round : envelope list Effect.t

type fiber_state =
  | Waiting of (envelope list, unit) Effect.Deep.continuation
  | Finished
  | Failed of string

(* Per-sender frame arena: every send this round appends its bytes into
   one shared encoder ([send_w] encodes in place — no per-message string
   exists at all), and frame [i] is the explicit span
   [out_offs.(i) .. out_offs.(i) + out_lens.(i)). Spans may be shared:
   a multicast ([send_multi_w]) encodes its value once and records the
   same span under every target, and [send] of the {e same} string it
   just appended ([last_data], physical equality — one string sent to
   many targets, as [Net.direct]'s [send_many] does) reuses the existing
   span instead of appending again. Each entry is one sent message; the
   delivery sweep, not the send, counts it in [messages_sent] and
   [bytes_sent], so a running fiber writes only its own cell. Delivery
   freezes the arena into one immutable base string and hands out
   [(offset, len)] views of it; the encoder's storage is then reset and
   reused next round. [arena_cap] is the arena's storage in bytes (it
   grows as {!Wire.Enc.create} says), and the [*_peak] fields are the
   most the current run has used: what {!give_back} trims to. *)
type outbox = {
  mutable arena : Wire.Enc.t;
  mutable arena_cap : int;
  mutable arena_peak : int;
  mutable out_dsts : Party_id.t array;
  mutable out_offs : int array;
  mutable out_lens : int array;
  mutable out_len : int;
  mutable out_peak : int;
  mutable last_data : payload; (* last string appended via [Send] this round *)
  mutable last_off : int;
}

(* Per-recipient span vector: the round's delivery sweep appends
   [(sender, off, len)] rows in sender-dense order (the sweep walks
   sender cells in roster order), so the append order {e is} the inbox
   order — sorted by sender, send order preserved per sender — with no
   per-sender buckets and no sort. The base string a span points into is
   kept once per {e run} of consecutive rows sharing it: [run_base.(r)]
   holds for rows [run_start.(r)] up to the next run's start. One
   sender's spans to one recipient arrive back to back, so a run is
   usually all of them, and only its first row stores a pointer: one
   write barrier per run rather than per message. A corrupted copy has
   its own string and so starts a run of its own. *)
type inbox = {
  mutable in_src : int array; (* sender dense id *)
  mutable in_off : int array;
  mutable in_len : int array;
  mutable in_count : int;
  mutable in_peak : int;
  mutable run_base : string array;
  mutable run_start : int array;
  mutable runs : int;
  mutable runs_peak : int;
}

(* A party's message-plane storage. A plane belongs to one run from
   [take_planes] to [give_back]; between runs it sits in its domain's
   free list, empty and trimmed. *)
type plane = {
  outbox : outbox;
  inbox : inbox;
}

type cell = {
  id : Party_id.t;
  outbox : outbox;
  inbox : inbox;
  mutable state : fiber_state;
  mutable out : payload option;
  mutable scells : state_cell list; (* reverse registration order *)
  mutable finished : int option; (* round the fiber returned in *)
}

let no_strings : string array = [||]
let min_arena = 64
let min_rows = 8

let fresh_plane () =
  {
    outbox =
      {
        arena = Wire.Enc.create ~size:min_arena ();
        arena_cap = min_arena;
        arena_peak = 0;
        out_dsts = [||];
        out_offs = [||];
        out_lens = [||];
        out_len = 0;
        out_peak = 0;
        last_data = "";
        last_off = 0;
      };
    inbox =
      {
        in_src = [||];
        in_off = [||];
        in_len = [||];
        in_count = 0;
        in_peak = 0;
        run_base = no_strings;
        run_start = [||];
        runs = 0;
        runs_peak = 0;
      };
  }

(* The planes the last run on this domain gave back, by dense party
   index. A run empties the list when it starts, so a nested run (a
   fiber that runs an engine) finds none of its caller's planes, and a
   run that raises gives nothing back. *)
let free_planes : plane array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

let take_planes n =
  let free = Domain.DLS.get free_planes in
  Domain.DLS.set free_planes [||];
  Array.init n (fun i -> if i < Array.length free then free.(i) else fresh_plane ())

(* A vector whose run used [peak] rows keeps at most twice [max peak
   min_rows] of them; its rows past the run's are never read. *)
let trim v peak =
  let keep = max peak min_rows in
  if Array.length v > 2 * keep then Array.sub v 0 keep else v

let note_arena ob =
  let used = Wire.Enc.length ob.arena in
  if used > ob.arena_peak then ob.arena_peak <- used

(* An arena of [cap] bytes that has held [used] doubles until they fit
   ({!Wire.Enc.create}). *)
let rec grown cap used = if used <= cap then cap else grown (2 * cap) used

(* Clear each plane of every payload reference and trim it to twice what
   this run used, then make the planes this domain's free list: it keeps
   storage of about the next run's size and nothing that pins a frozen
   arena or a payload string. The run's final delivery pass has already
   emptied every outbox (and its [last_data]); an inbox may still hold
   rows for a party that ran out of rounds. *)
let give_back planes =
  Array.iter
    (fun ({ outbox = ob; inbox = ib } : plane) ->
      let cap = grown ob.arena_cap ob.arena_peak in
      let keep = max ob.arena_peak min_arena in
      if cap > 2 * keep then begin
        ob.arena <- Wire.Enc.create ~size:keep ();
        ob.arena_cap <- keep
      end
      else ob.arena_cap <- cap;
      ob.out_dsts <- trim ob.out_dsts ob.out_peak;
      ob.out_offs <- trim ob.out_offs ob.out_peak;
      ob.out_lens <- trim ob.out_lens ob.out_peak;
      ob.arena_peak <- 0;
      ob.out_peak <- 0;
      Array.fill ib.run_base 0 ib.runs "";
      let in_peak = max ib.in_peak ib.in_count and runs_peak = max ib.runs_peak ib.runs in
      ib.in_src <- trim ib.in_src in_peak;
      ib.in_off <- trim ib.in_off in_peak;
      ib.in_len <- trim ib.in_len in_peak;
      ib.run_base <- trim ib.run_base runs_peak;
      ib.run_start <- trim ib.run_start runs_peak;
      ib.in_count <- 0;
      ib.runs <- 0;
      ib.in_peak <- 0;
      ib.runs_peak <- 0)
    planes;
  Domain.DLS.set free_planes planes

let outbox_record ob dst ~off ~len =
  let cap = Array.length ob.out_dsts in
  if ob.out_len = cap then begin
    let cap' = max min_rows (2 * cap) in
    let dsts' = Array.make cap' dst
    and offs' = Array.make cap' 0
    and lens' = Array.make cap' 0 in
    Array.blit ob.out_dsts 0 dsts' 0 ob.out_len;
    Array.blit ob.out_offs 0 offs' 0 ob.out_len;
    Array.blit ob.out_lens 0 lens' 0 ob.out_len;
    ob.out_dsts <- dsts';
    ob.out_offs <- offs';
    ob.out_lens <- lens'
  end;
  ob.out_dsts.(ob.out_len) <- dst;
  ob.out_offs.(ob.out_len) <- off;
  ob.out_lens.(ob.out_len) <- len;
  ob.out_len <- ob.out_len + 1

let inbox_push ib ~src_dense ~base ~off ~len =
  let cap = Array.length ib.in_src in
  if ib.in_count = cap then begin
    let cap' = max min_rows (2 * cap) in
    let src' = Array.make cap' 0
    and off' = Array.make cap' 0
    and len' = Array.make cap' 0 in
    Array.blit ib.in_src 0 src' 0 ib.in_count;
    Array.blit ib.in_off 0 off' 0 ib.in_count;
    Array.blit ib.in_len 0 len' 0 ib.in_count;
    ib.in_src <- src';
    ib.in_off <- off';
    ib.in_len <- len'
  end;
  if ib.runs = 0 || ib.run_base.(ib.runs - 1) != base then begin
    let cap = Array.length ib.run_base in
    if ib.runs = cap then begin
      let cap' = max min_rows (2 * cap) in
      let base' = Array.make cap' "" and start' = Array.make cap' 0 in
      Array.blit ib.run_base 0 base' 0 ib.runs;
      Array.blit ib.run_start 0 start' 0 ib.runs;
      ib.run_base <- base';
      ib.run_start <- start'
    end;
    ib.run_base.(ib.runs) <- base;
    ib.run_start.(ib.runs) <- ib.in_count;
    ib.runs <- ib.runs + 1
  end;
  ib.in_src.(ib.in_count) <- src_dense;
  ib.in_off.(ib.in_count) <- off;
  ib.in_len.(ib.in_count) <- len;
  ib.in_count <- ib.in_count + 1

let run ?pool cfg ~programs =
  let k = cfg.k in
  let roster = Party_id.all ~k in
  let roster_arr = Array.of_list roster in
  (* Under a topology a link exists between two distinct parties
     exactly when their sides allow it: [side_links.(2 * src side + dst
     side)], a table read per message instead of a [Topology.connected]
     call. A custom link keeps its predicate. *)
  let side_links =
    match cfg.link with
    | Of_topology t ->
      let sides = [| Side.Left; Side.Right |] in
      Array.init 4 (fun i ->
          Topology.connected t (Party_id.make sides.(i / 2) 0) (Party_id.make sides.(i mod 2) 1))
    | Custom _ -> [||]
  in
  let planes = take_planes (Array.length roster_arr) in
  let cells =
    Array.mapi
      (fun i id ->
        let ({ outbox; inbox } : plane) = planes.(i) in
        { id; outbox; inbox; state = Finished; out = None; scells = []; finished = None })
      roster_arr
  in
  let iter_cells f = Array.iter f cells in
  let round = ref 0 in
  (* The first [trace_limit] events, newest first. *)
  let trace = ref [] and traced = ref 0 in
  let record ?(label = None) event_src event_dst event_bytes event_fate =
    if !traced < cfg.trace_limit then begin
      incr traced;
      let event_round = !round and event_label = label in
      trace :=
        { event_round; event_src; event_dst; event_bytes; event_fate; event_label }
        :: !trace
    end
  in
  (* The delivery sweep's per-message hooks, gated like [no_corrupt]
     below: a run with the default [drop] never calls it, and a run that
     keeps no trace never calls [record] for a delivered message. *)
  let tracing = cfg.trace_limit > 0 in
  let faulty_drop = cfg.faults.drop != no_drop in
  let messages_sent = ref 0 in
  let messages_delivered = ref 0 in
  let dropped_topology = ref 0 in
  let dropped_fault = ref 0 in
  (* Per-label omission counts; a handful of schedule components at most,
     so an assoc list beats a hash table. *)
  let dropped_by_label : (string * int ref) list ref = ref [] in
  let count_label l =
    match List.assoc_opt l !dropped_by_label with
    | Some r -> incr r
    | None -> dropped_by_label := (l, ref 1) :: !dropped_by_label
  in
  let messages_corrupted = ref 0 in
  let bytes_sent = ref 0 in
  let bytes_delivered = ref 0 in
  let cells_scrambled = ref 0 in
  let first_scramble_round = ref None in

  (* Replay support for corrupting fault models: the last payload
     {e delivered} on each ordered link in any {e earlier} round, indexed
     by [src_dense * 2k + dst_dense]. Updates are staged during a
     delivery sweep and committed only after it, so a replay mutation can
     never echo bytes from the round currently being delivered. Gated on
     physical inequality with [no_corrupt]: fault-free runs pay nothing
     (no per-frame string materialization, no staging). *)
  let track_prev = cfg.faults.corrupt != no_corrupt in
  let prev_frames : payload option array =
    if track_prev then Array.make (4 * k * k) None else [||]
  in
  let staged_prev : (int * payload) list ref = ref [] in
  let commit_prev () =
    List.iter (fun (i, p) -> prev_frames.(i) <- Some p) (List.rev !staged_prev);
    staged_prev := []
  in

  (* Runs [f ()] as [cell]'s fiber until it blocks on [Next_round],
     returns, or raises. *)
  let drive cell f =
    let open Effect.Deep in
    match_with f ()
      {
        retc =
          (fun () ->
            cell.state <- Finished;
            cell.finished <- Some !round);
        exnc =
          (fun exn ->
            Log.debug (fun m ->
                m "%a crashed: %s" Party_id.pp cell.id (Printexc.to_string exn));
            cell.state <- Failed (Printexc.to_string exn));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Next_round ->
              Some
                (fun (cont : (a, _) continuation) ->
                  cell.state <- Waiting cont)
            | _ -> None);
      }
  in

  (* The capabilities write straight into [cell]: no effect, no handler
     round trip per message. *)
  let env_of cell =
    let ob = cell.outbox in
    let arena = ob.arena in
    (* An in-place encode into the arena: a codec that raises mid-write
       must not leave half a frame in the shared arena. *)
    let write (c : _ Wire.t) v =
      let start = Wire.Enc.length arena in
      (match c.Wire.write arena v with
      | () -> ()
      | exception exn ->
        note_arena ob;
        Wire.Enc.truncate arena start;
        raise exn);
      start
    in
    let send dst data =
      let len = String.length data in
      (* One string sent to many targets back to back: physical equality
         with the last appended string means the bytes are already in the
         arena — share the span. *)
      if data == ob.last_data && len > 0 then outbox_record ob dst ~off:ob.last_off ~len
      else begin
        let off = Wire.Enc.length arena in
        Wire.Enc.append arena data;
        ob.last_data <- data;
        ob.last_off <- off;
        outbox_record ob dst ~off ~len
      end
    in
    let send_w c dst v =
      let start = write c v in
      outbox_record ob dst ~off:start ~len:(Wire.Enc.length arena - start)
    in
    (* One in-place encode, one span, many targets: the relay/broadcast
       fan-out pattern without re-walking the codec or duplicating the
       bytes per recipient. *)
    let send_multi_w c dsts v =
      let start = write c v in
      let len = Wire.Enc.length arena - start in
      if dsts = [] then begin
        note_arena ob;
        Wire.Enc.truncate arena start
      end
      else List.iter (fun dst -> outbox_record ob dst ~off:start ~len) dsts
    in
    let send_slice dst (s : Wire.Slice.t) =
      let off = Wire.Enc.length arena in
      Wire.Enc.append_sub arena s.base ~off:s.off ~len:s.len;
      outbox_record ob dst ~off ~len:s.len
    in
    let register_cell sc = cell.scells <- sc :: cell.scells in
    {
      self = cell.id;
      k;
      round = (fun () -> !round);
      send;
      send_w;
      send_slice;
      send_multi_w;
      next_round = (fun () -> Effect.perform Next_round);
      output = (fun p -> cell.out <- Some p);
      log =
        (fun s -> Log.debug (fun m -> m "r%d %a: %s" !round Party_id.pp cell.id s));
      register_state = (fun c r -> register_cell (state_cell c r));
      register_cell;
    }
  in

  (* With a pool of two or more lanes, each round's fiber slices (the
     starts, then each round's resumes) run as one [Pool.map] batch. A
     slice writes only its own cell, so the slices of a round commute;
     delivery, scrambling, the counters and the trace stay on this
     domain, between batches. *)
  let lanes =
    match pool with
    | Some p when Pool.jobs p > 1 -> Some p
    | Some _ | None -> None
  in
  let start cell program = drive cell (fun () -> program (env_of cell)) in

  (* Round 0: start every fiber. *)
  (match lanes with
  | None -> iter_cells (fun cell -> start cell (programs cell.id))
  | Some p ->
    (* Only the fibers run on the lanes: [programs] is consulted here, in
       roster order. *)
    let started = List.map (fun cell -> cell, programs cell.id) (Array.to_list cells) in
    ignore (Pool.map p (fun (cell, program) -> start cell program) started));

  let is_waiting c =
    match c.state with
    | Waiting _ -> true
    | Finished | Failed _ -> false
  in

  (* Deliver this round's traffic: freeze each sender's arena into one
     immutable base string and fan its [(offset, len)] spans out to the
     recipients' span vectors — one pass per sender, zero copies on the
     clean path. Drop precedence is unchanged: topology > fault-drop >
     corrupt. A recipient that has returned or crashed is counted,
     traced and staged like any other but gets no inbox row: no fiber
     would ever collect it, and it would pin the sender's arena until
     the run ends. *)
  let deliver () =
    iter_cells (fun cell ->
        let ob = cell.outbox in
        if ob.out_len > 0 then begin
          let src = cell.id in
          let src_dense = Party_id.to_dense ~k src in
          let src_side = Side.to_int (Party_id.side src) in
          note_arena ob;
          if ob.out_len > ob.out_peak then ob.out_peak <- ob.out_len;
          let base = Wire.Enc.to_string ob.arena in
          messages_sent := !messages_sent + ob.out_len;
          for i = 0 to ob.out_len - 1 do
            let off = ob.out_offs.(i) in
            let len = ob.out_lens.(i) in
            bytes_sent := !bytes_sent + len;
            let dst = ob.out_dsts.(i) in
            let dst_index = Party_id.index dst in
            if dst_index < 0 then
              invalid_arg
                (Printf.sprintf
                   "Engine.deliver_message: destination %s has a negative index \
                    (corrupt Party_id)"
                   (Party_id.to_string dst));
            let dst_side = Side.to_int (Party_id.side dst) in
            (* [Party_id.to_dense], meaningful once [dst_index < k]. *)
            let dst_dense = (dst_side * k) + dst_index in
            let linked =
              dst_index < k && dst_dense <> src_dense
              &&
              match cfg.link with
              | Of_topology _ -> side_links.((2 * src_side) + dst_side)
              | Custom f -> f src dst
            in
            if not linked then begin
              incr dropped_topology;
              record src dst len `No_channel;
              Log.debug (fun m ->
                  m "r%d: dropped %a -> %a (no channel)" !round Party_id.pp src
                    Party_id.pp dst)
            end
            else if faulty_drop && cfg.faults.drop ~round:!round ~src ~dst then begin
              incr dropped_fault;
              let label = cfg.faults.drop_label ~round:!round ~src ~dst in
              (match label with
              | Some l -> count_label l
              | None -> ());
              record ~label src dst len `Omitted
            end
            else begin
              let target = cells.(dst_dense) in
              if track_prev then begin
                (* The corrupt hook and its replay memory are string-based:
                   materialize a span-local copy so mutations never alias
                   the shared arena, and deliver whatever the hook returns
                   (bytes and replay memory both reflect the mutated
                   frame). *)
                let link_idx = (src_dense * 2 * k) + dst_dense in
                let data = String.sub base off len in
                match
                  cfg.faults.corrupt ~round:!round ~src ~dst
                    ~prev:prev_frames.(link_idx) data
                with
                | None ->
                  incr messages_delivered;
                  bytes_delivered := !bytes_delivered + len;
                  if tracing then record src dst len `Delivered;
                  staged_prev := (link_idx, data) :: !staged_prev;
                  if is_waiting target then inbox_push target.inbox ~src_dense ~base ~off ~len
                | Some (data', l) ->
                  incr messages_corrupted;
                  count_label l;
                  let len' = String.length data' in
                  incr messages_delivered;
                  bytes_delivered := !bytes_delivered + len';
                  record ~label:(Some l) src dst len' `Corrupted;
                  staged_prev := (link_idx, data') :: !staged_prev;
                  if is_waiting target then
                    inbox_push target.inbox ~src_dense ~base:data' ~off:0 ~len:len'
              end
              else begin
                incr messages_delivered;
                bytes_delivered := !bytes_delivered + len;
                if tracing then record src dst len `Delivered;
                if is_waiting target then inbox_push target.inbox ~src_dense ~base ~off ~len
              end
            end
          done;
          (* Reset keeps the encoder's storage for next round; the frozen
             base string is owned by the delivered spans alone. *)
          Wire.Enc.reset ob.arena;
          ob.out_len <- 0;
          ob.last_data <- "";
          ob.last_off <- 0
        end);
    if track_prev then commit_prev ()
  in

  (* Collect [cell]'s span vector into the inbox list the fiber sees.
     The vector was appended in sender-dense order with send order
     preserved per sender (the delivery sweep walks sender cells in
     roster order), so the list is exactly the old sorted-by-sender
     inbox — by construction, no sort. *)
  let collect_inbox cell =
    let ib = cell.inbox in
    if ib.in_count = 0 then []
    else begin
      let acc = ref [] and run = ref (ib.runs - 1) in
      for i = ib.in_count - 1 downto 0 do
        (* Runs are never empty, so stepping back one row crosses at most
           one run boundary. *)
        if i < ib.run_start.(!run) then decr run;
        acc :=
          {
            src = roster_arr.(ib.in_src.(i));
            data = Wire.Slice.make ib.run_base.(!run) ~off:ib.in_off.(i) ~len:ib.in_len.(i);
          }
          :: !acc
      done;
      (* Drop the base-string references so arenas from this round are
         not retained past it by the reused vector. *)
      Array.fill ib.run_base 0 ib.runs "";
      if ib.in_count > ib.in_peak then ib.in_peak <- ib.in_count;
      if ib.runs > ib.runs_peak then ib.runs_peak <- ib.runs;
      ib.in_count <- 0;
      ib.runs <- 0;
      !acc
    end
  in

  let some_waiting () = Array.exists is_waiting cells in

  (* State scrambling runs between rounds — after the previous round's
     delivery sweep, before any fiber resumes — against parties still in
     the protocol, so a corrupted cell is exactly "the value the party
     wakes up with". Gated on physical inequality like [track_prev]:
     scramble-free runs never touch the registries. *)
  let track_scramble = cfg.faults.scramble != no_scramble in
  let scramble cell ci c =
    let payload = c.cell_encode () in
    let rec go attempt =
      if attempt < max_scramble_attempts then
        match
          cfg.faults.scramble ~round:!round ~party:cell.id ~cell:ci ~attempt payload
        with
        | None -> ()
        | Some (bytes, label) ->
          if c.cell_set bytes then begin
            incr cells_scrambled;
            if !first_scramble_round = None then first_scramble_round := Some !round;
            count_label label;
            record ~label:(Some label) cell.id cell.id (String.length bytes) `Scrambled
          end
          else go (attempt + 1)
    in
    go 0
  in
  let scramble_round () =
    if track_scramble then
      iter_cells (fun cell ->
          if is_waiting cell then List.iteri (scramble cell) (List.rev cell.scells))
  in

  let resume cell =
    match cell.state with
    | Waiting cont ->
      let inbox = collect_inbox cell in
      (* Resuming re-enters the deep handler installed by [drive], which
         updates [cell.state] on park / return / raise; pre-set Finished
         for the plain-return path before any effect fires. *)
      cell.state <- Finished;
      Effect.Deep.continue cont inbox
    | Finished | Failed _ -> ()
  in

  while some_waiting () && !round < cfg.max_rounds do
    deliver ();
    incr round;
    scramble_round ();
    match lanes with
    | None -> iter_cells resume
    | Some p ->
      ignore (Pool.map p resume (List.filter is_waiting (Array.to_list cells)))
  done;
  (* Flush messages sent in the final round so accounting covers them even
     though no fiber is left to read them. [round] was last incremented
     before those fibers ran, so the flushed events carry the round their
     messages were sent in — the same convention as in-loop deliveries,
     keeping trace rounds monotone up to [rounds_used]. *)
  deliver ();
  assert (
    let rec monotone bound = function
      | [] -> true
      | e :: older -> e.event_round <= bound && monotone e.event_round older
    in
    monotone !round !trace);
  give_back planes;

  let party_result cell =
    let status =
      match cell.state with
      | Finished -> Terminated
      | Waiting _ -> Out_of_rounds
      | Failed msg -> Crashed msg
    in
    { id = cell.id; status; out = cell.out; finished_round = cell.finished }
  in
  {
    parties = List.map party_result (Array.to_list cells);
    trace = List.rev !trace;
    metrics =
      {
        rounds_used = !round;
        messages_sent = !messages_sent;
        messages_delivered = !messages_delivered;
        messages_dropped_topology = !dropped_topology;
        messages_dropped_fault = !dropped_fault;
        messages_corrupted = !messages_corrupted;
        messages_dropped_by_label =
          List.sort
            (fun (a, _) (b, _) -> String.compare a b)
            (List.map (fun (l, r) -> l, !r) !dropped_by_label);
        bytes_sent = !bytes_sent;
        bytes_delivered = !bytes_delivered;
        cells_scrambled = !cells_scrambled;
        first_scramble_round = !first_scramble_round;
      };
  }

let find_result_opt res p =
  List.find_opt (fun (r : party_result) -> Party_id.equal r.id p) res.parties

let find_result res p =
  match find_result_opt res p with
  | Some r -> r
  | None ->
    invalid_arg
      (Printf.sprintf "Engine.find_result: party %s not in roster of %d parties"
         (Party_id.to_string p)
         (List.length res.parties))
