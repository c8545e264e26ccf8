(* One mutex guards the queue: the serve path moves a few elements per
   request of milliseconds, so a lock per operation is noise. *)

type 'a t = {
  queue : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
}

let create ~capacity () =
  if capacity < 1 then invalid_arg "Ring.create: capacity < 1";
  let cap = ref 2 in
  while !cap < capacity do cap := !cap * 2 done;
  { queue = Queue.create (); capacity = !cap; mutex = Mutex.create () }

let capacity t = t.capacity
let length t = Mutex.protect t.mutex (fun () -> Queue.length t.queue)

let try_push t x =
  Mutex.protect t.mutex (fun () ->
      if Queue.length t.queue >= t.capacity then false
      else begin
        Queue.push x t.queue;
        true
      end)

let try_pop t = Mutex.protect t.mutex (fun () -> Queue.take_opt t.queue)
