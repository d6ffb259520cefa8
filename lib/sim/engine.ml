(* Discrete-event simulation engine.

   Time is an integer count of nanoseconds.  Events with equal timestamps run
   in schedule order (FIFO via a monotone sequence number), which makes every
   run deterministic. *)

type event = { time : int; seq : int; fn : unit -> unit }

type t = {
  mutable now : int;
  mutable seq : int;
  events : event Heap.t;
  mutable running : bool;
  mutable error : exn option;
  mutable executed : int;
}

exception Stopped

module Obs = Sds_obs.Obs

(* Event-loop occupancy: total events executed, plus a queue-depth histogram
   sampled every 256 events so a long run costs ~nothing. *)
let m_events = Obs.Metrics.counter "engine.events"
let h_queue_depth = Obs.Metrics.histogram "engine.queue_depth"

let dummy_event = { time = max_int; seq = max_int; fn = ignore }

let event_less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let create () =
  {
    now = 0;
    seq = 0;
    events = Heap.create ~capacity:1024 ~less:event_less ~dummy:dummy_event ();
    running = false;
    error = None;
    executed = 0;
  }

let now t = t.now
let pending t = Heap.length t.events
let executed t = t.executed

let schedule t ~delay fn =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  let e = { time = t.now + delay; seq = t.seq; fn } in
  t.seq <- t.seq + 1;
  Heap.push t.events e

let schedule_at t ~time fn =
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  schedule t ~delay:(time - t.now) fn

let record_error t exn = if t.error = None then t.error <- Some exn

(* Runs until the event queue drains, [until] is passed, or [max_events]
   events have executed.  The first exception escaping an event aborts the
   run and is re-raised: simulated-process bugs must not be silent. *)
let run ?until ?max_events t =
  t.running <- true;
  let budget = ref (match max_events with Some n -> n | None -> max_int) in
  let continue_ = ref true in
  while !continue_ && t.running && t.error = None do
    match Heap.peek t.events with
    | None -> continue_ := false
    | Some e ->
      (match until with
      | Some horizon when e.time > horizon ->
        t.now <- horizon;
        continue_ := false
      | _ ->
        if !budget <= 0 then continue_ := false
        else begin
          decr budget;
          ignore (Heap.pop t.events);
          t.now <- e.time;
          t.executed <- t.executed + 1;
          Obs.Metrics.incr m_events;
          if t.executed land 255 = 0 then Obs.Metrics.observe h_queue_depth (Heap.length t.events);
          (try e.fn () with
          | Stopped -> ()
          | exn -> record_error t exn)
        end)
  done;
  t.running <- false;
  match t.error with
  | Some exn ->
    t.error <- None;
    raise exn
  | None -> ()

let stop t = t.running <- false

(* Make this engine's simulated clock the one [Obs] clock: trace records
   and span stamps then read sim nanoseconds, so per-stage durations are
   exact sim time and their sums reconcile with span.e2e by construction. *)
let install_clock t = Obs.set_clock (fun () -> t.now)

let clear t =
  Heap.clear t.events;
  t.error <- None
