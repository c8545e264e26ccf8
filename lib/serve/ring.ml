(* One mutex guards the queue and the closed flag: the serve path moves
   a few elements per request of milliseconds, so a lock per operation
   is noise. One condition serves both blocking sides: every move and
   [close] broadcast on it, and each waiter re-checks its own
   predicate. *)

type 'a t = {
  queue : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
  changed : Condition.t;  (* an element moved, or the ring closed *)
  mutable closed : bool;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  let cap = ref 2 in
  while !cap < capacity do cap := !cap * 2 done;
  {
    queue = Queue.create ();
    capacity = !cap;
    mutex = Mutex.create ();
    changed = Condition.create ();
    closed = false;
  }

let capacity t = t.capacity
let length t = Mutex.protect t.mutex (fun () -> Queue.length t.queue)
let closed t = Mutex.protect t.mutex (fun () -> t.closed)

(* The moves, with [t.mutex] held. *)
let push_locked t x =
  if t.closed || Queue.length t.queue >= t.capacity then false
  else begin
    Queue.push x t.queue;
    Condition.broadcast t.changed;
    true
  end

let pop_locked t =
  let v = Queue.take_opt t.queue in
  if Option.is_some v then Condition.broadcast t.changed;
  v

let try_push t x = Mutex.protect t.mutex (fun () -> push_locked t x)
let try_pop t = Mutex.protect t.mutex (fun () -> pop_locked t)

let push t x =
  Mutex.protect t.mutex (fun () ->
      while (not t.closed) && Queue.length t.queue >= t.capacity do
        Condition.wait t.changed t.mutex
      done;
      push_locked t x)

let pop t =
  Mutex.protect t.mutex (fun () ->
      while Queue.is_empty t.queue && not t.closed do
        Condition.wait t.changed t.mutex
      done;
      pop_locked t)

let close t =
  Mutex.protect t.mutex (fun () ->
      t.closed <- true;
      Condition.broadcast t.changed)
