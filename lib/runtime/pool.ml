(* A batch is a fixed list of [n] tasks, published once and never grown.
   Lane [l] of [lanes] owns the round-robin share l, l + lanes,
   l + 2*lanes, ...; [claimed.(l)] counts the tasks of that share claimed
   so far, so claiming the next one is one fetch-and-add. *)
type batch = {
  epoch : int;
  run : int -> unit;  (** execute element [i]; never raises *)
  n : int;
  claimed : int Atomic.t array;  (** per lane: tasks of its share claimed *)
  remaining : int Atomic.t;  (** elements not yet completed *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;  (** new batch published, or shutdown *)
  batch_done : Condition.t;  (** [remaining] reached 0 *)
  mutable current : batch option;
  mutable epoch : int;
  mutable closed : bool;
  mutable workers : unit Domain.t array;  (** spawned lazily, then persistent *)
  tasks_total : int Atomic.t;
  steals_total : int Atomic.t;
}

type stats = {
  tasks : int;
  steals : int;
}

let stats t = { tasks = Atomic.get t.tasks_total; steals = Atomic.get t.steals_total }

let create ?(jobs = Domain.recommended_domain_count ()) () =
  if jobs < 1 then invalid_arg (Printf.sprintf "Pool.create: jobs=%d must be >= 1" jobs);
  {
    jobs;
    mutex = Mutex.create ();
    work_available = Condition.create ();
    batch_done = Condition.create ();
    current = None;
    epoch = 0;
    closed = false;
    workers = [||];
    tasks_total = Atomic.make 0;
    steals_total = Atomic.make 0;
  }

let jobs t = t.jobs

(* Guards against Pool.map called from inside a pool task: the nested map
   would wait for lanes that are all busy running its ancestors. *)
let in_task_key = Domain.DLS.new_key (fun () -> ref false)

let exec t b i =
  b.run i;
  if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
    (* Last element of the batch: wake the submitter if it is parked in
       [batch_done]. The lock closes the check-then-wait race. *)
    Mutex.lock t.mutex;
    Condition.broadcast t.batch_done;
    Mutex.unlock t.mutex
  end

(* Drain the lane's own share in index order, then the other lanes'
   shares in lane order; a task claimed from another share is a steal.
   One pass is conclusive: a claim count past the end of its share stays
   past it. *)
let run_lane t b ~lane =
  let lanes = Array.length b.claimed in
  let drain v =
    let rec go () =
      let i = v + (Atomic.fetch_and_add b.claimed.(v) 1 * lanes) in
      if i < b.n then begin
        if v <> lane then Atomic.incr t.steals_total;
        exec t b i;
        go ()
      end
    in
    go ()
  in
  drain lane;
  for v = 0 to lanes - 1 do
    if v <> lane then drain v
  done

let worker_loop t ~lane =
  let rec loop last_epoch =
    Mutex.lock t.mutex;
    (* A published batch wins over [closed]: if shutdown races a map, the
       workers still help drain the in-flight batch before exiting. *)
    let rec await () =
      match t.current with
      | Some b when b.epoch <> last_epoch -> Some b
      | Some _ | None ->
        if t.closed then None
        else begin
          Condition.wait t.work_available t.mutex;
          await ()
        end
    in
    let b = await () in
    Mutex.unlock t.mutex;
    match b with
    | None -> ()
    | Some b ->
      run_lane t b ~lane;
      loop b.epoch
  in
  loop 0

(* Only the (single) submitting caller reaches this, so [t.workers] has
   no writer races; domains spawn once and then serve every later map. *)
let ensure_workers t =
  if Array.length t.workers = 0 && t.jobs > 1 then
    t.workers <-
      Array.init (t.jobs - 1) (fun i ->
          Domain.spawn (fun () -> worker_loop t ~lane:(i + 1)))

type 'b slot =
  | Pending
  | Done of 'b
  | Raised of exn * Printexc.raw_backtrace

let collect slots n =
  let first_failure = ref None in
  for i = n - 1 downto 0 do
    match slots.(i) with
    | Raised (e, bt) -> first_failure := Some (e, bt)
    | Done _ -> ()
    | Pending -> assert false
  done;
  (match !first_failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  Array.to_list
    (Array.map
       (function
         | Done v -> v
         | Pending | Raised _ -> assert false)
       slots)

let map t f xs =
  if !(Domain.DLS.get in_task_key) then
    invalid_arg "Pool.map: nested call from inside a pool task";
  if t.closed then invalid_arg "Pool.map: pool is shut down";
  match xs with
  | [] -> []
  | [ x ] ->
    Atomic.incr t.tasks_total;
    [ f x ]
  | xs ->
    let items = Array.of_list xs in
    let n = Array.length items in
    (* Slots are written at distinct indices from distinct domains — no
       two tasks share a cell, so plain writes are race-free, and steal
       order cannot reach the output. *)
    let slots = Array.make n Pending in
    let run i =
      let flag = Domain.DLS.get in_task_key in
      flag := true;
      slots.(i) <-
        (match f items.(i) with
        | v -> Done v
        | exception e -> Raised (e, Printexc.get_raw_backtrace ()));
      flag := false
    in
    Atomic.fetch_and_add t.tasks_total n |> ignore;
    if t.jobs = 1 then
      (* The sequential path: inline, in input order, no domains. *)
      for i = 0 to n - 1 do
        run i
      done
    else begin
      ensure_workers t;
      let claimed = Array.init t.jobs (fun _ -> Atomic.make 0) in
      Mutex.lock t.mutex;
      t.epoch <- t.epoch + 1;
      let b = { epoch = t.epoch; run; n; claimed; remaining = Atomic.make n } in
      t.current <- Some b;
      Condition.broadcast t.work_available;
      Mutex.unlock t.mutex;
      (* The submitter is lane 0: it works its own share and steals like
         any worker, then parks until in-flight stragglers settle. *)
      run_lane t b ~lane:0;
      Mutex.lock t.mutex;
      while Atomic.get b.remaining > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      t.current <- None;
      (* A concurrent [shutdown] parks on [batch_done] until [current]
         clears; wake it now that the batch is fully retired. *)
      Condition.broadcast t.batch_done;
      Mutex.unlock t.mutex
    end;
    collect slots n

(* [shutdown] may come from a domain other than the one currently
   holding the pool in a [map]. Closing mid-batch would either strand
   the batch's unclaimed tasks (workers exit before draining their
   shares) or tear domains out from under the submitter,
   so shutdown first waits for any in-flight batch to retire, then
   closes and joins. Idempotent: late callers wait for the same drain and
   find [closed] already set; only the first joins the domains. *)
let shutdown t =
  if !(Domain.DLS.get in_task_key) then
    invalid_arg "Pool.shutdown: called from inside a pool task";
  Mutex.lock t.mutex;
  while t.current <> None do
    Condition.wait t.batch_done t.mutex
  done;
  let first = not t.closed in
  t.closed <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  if first then begin
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
