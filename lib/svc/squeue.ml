type 'a t = {
  capacity : int;
  items : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Squeue.create: capacity must be positive";
  { capacity; items = Queue.create (); mutex = Mutex.create ();
    nonempty = Condition.create (); closed = false }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  with_lock t (fun () ->
      let rec wait () =
        if not (Queue.is_empty t.items) then Some (Queue.pop t.items)
        else if t.closed then None
        else begin
          Condition.wait t.nonempty t.mutex;
          wait ()
        end
      in
      wait ())

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = with_lock t (fun () -> Queue.length t.items)
