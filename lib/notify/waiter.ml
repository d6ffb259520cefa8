(* Eventcount/futex-style waiter: the real-code implementation of the §4.4
   event-notification layer for OCaml domains.

   The protocol is the classic eventcount three-step:

     let ticket = Waiter.prepare_wait w in   (* publish intent to sleep *)
     if ready () then Waiter.cancel w        (* data raced in: don't sleep *)
     else Waiter.commit_wait w ticket        (* park until a notify *)

   and the notifier side, after making the condition true:

     Waiter.notify w

   Correctness hinges on the SC atomics: [prepare_wait] stores the parked
   flag *before* the waiter re-checks the condition, and [notify] loads the
   parked flag *after* the producer published its data.  By the OCaml memory
   model's total order over SC operations, either the notifier observes the
   parked flag (and delivers a wake), or the waiter's re-check observes the
   data (and cancels) — the lost-wakeup window of a bare flag+condvar
   scheme (read flag, decide to skip the broadcast, while the peer is
   mid-commit) cannot occur.

   The parked flag [state] is producer-visible and three-valued:

     0  idle — no waiter committed; [notify] is one atomic load and a branch
     1  a waiter has prepared/committed and needs a wake
     2  a wake has been delivered for this parked episode

   State 2 is what keeps a streaming producer cheap while its consumer is
   still context-switching in: only the *first* notify of an episode pays
   the sequence bump and the mutex/broadcast; every subsequent enqueue is
   back to the one-load fast path.  Only the waiter moves 0→1 and *→0; only
   a notifier moves 1→2 (by CAS, so concurrent notifiers elect one waker —
   which is what lets N producer rings share one waiter in [wait_any]).

   The sequence number [seq] closes the window between the waiter's last
   condition check and the actual sleep: [commit_wait] sleeps only while
   [seq] still equals the ticket read in [prepare_wait], and [notify] bumps
   [seq] before broadcasting, both under the mutex discipline that makes
   condvar wakeups reliable.

   Spin phases come from the shared [Policy] state machine (bounded spin →
   exponential backoff → park), adapting the spin budget to whether
   spinning actually pays on this machine/workload.  All spin-phase
   operations — [prepare_wait], [cancel], [notify] on an unparked waiter —
   allocate nothing; only the park path touches the mutex, the wall clock
   and the wake-latency histogram. *)

module Obs = Sds_obs.Obs

type t = {
  seq : int Atomic.t;  (** bumped once per delivered wake; the eventcount *)
  state : int Atomic.t;  (** producer-visible parked flag: 0 / 1 / 2 above *)
  m : Mutex.t;
  c : Condition.t;
  policy : Policy.t;
  mutable rr : int;  (** [wait_any] rotation cursor (waiter-private) *)
}

(* Spin-success vs park counters, wake-latency histogram, mode-switch trace
   events ([Park] on polling→interrupt, [Wake] on the delivered notify). *)
let c_spin_wins = Obs.Metrics.counter "notify.spin_wins"
let c_parks = Obs.Metrics.counter "notify.parks"
let c_wakes = Obs.Metrics.counter "notify.wakes"
let c_wait_timeouts = Obs.Metrics.counter "notify.wait_timeouts"
let h_wake_latency = Obs.Metrics.histogram "notify.wake_latency_ns"

let create ?min_spin ?max_spin ?backoff_rounds ?adaptive ?(spin = 512) () =
  {
    seq = Atomic.make 0;
    state = Atomic.make 0;
    m = Mutex.create ();
    c = Condition.create ();
    policy = Policy.create ?min_spin ?max_spin ?backoff_rounds ?adaptive ~budget:spin ();
    rr = 0;
  }

let policy t = t.policy

let[@sds.hot] parked t = Atomic.get t.state <> 0

(* Hot-path notification: one SC load when nobody is parked.  The CAS
   elects a single waker per parked episode (and per contending notifier),
   so a producer streaming into a parked consumer pays the broadcast once,
   not once per message.

   [@sds.model]-annotated bindings here are extracted into the
   "park-notify" Interleave model (lib/check/extract.ml); edits must keep
   test/golden/park-notify.golden in sync or `sdmodel check` fails CI. *)
let[@inline] [@sds.hot] [@sds.model "park-notify/notifier"] notify t =
  if Atomic.get t.state = 1 && Atomic.compare_and_set t.state 1 2 then begin
    Atomic.incr t.seq;
    Mutex.lock t.m;
    Condition.broadcast t.c;
    Mutex.unlock t.m;
    Obs.Metrics.incr c_wakes;
    Obs.Trace.emit Obs.Trace.Wake
  end

let[@sds.hot] [@sds.model "waiter/prepare"] prepare_wait t =
  let ticket = Atomic.get t.seq in
  Atomic.set t.state 1;
  ticket

let[@sds.hot] [@sds.model "waiter/cancel"] cancel t = Atomic.set t.state 0

let[@sds.model "waiter/commit"] commit_wait t ticket =
  Obs.Metrics.incr c_parks;
  Obs.Trace.emit Obs.Trace.Park;
  (* Raw monotonic stamps, never the (possibly simulated) [Obs] clock:
     parking blocks a real thread, so the park→wake edge is wall time by
     definition.  The same edge feeds [span.wake] and a [Wake_edge] trace
     record. *)
  let t0 = Sds_obs.Span.monotonic_ns () in
  Mutex.lock t.m;
  while Atomic.get t.seq = ticket do
    Condition.wait t.c t.m
  done;
  Mutex.unlock t.m;
  Atomic.set t.state 0;
  let t1 = Sds_obs.Span.monotonic_ns () in
  Obs.Metrics.observe h_wake_latency (t1 - t0);
  Sds_obs.Span.observe_wake ~parked_ns:t0 ~woke_ns:t1

(* One full prepare/re-check/commit parked episode — the §4.4 lost-wakeup-free
   sleep.  Returns [true] when the re-check canceled the park (data raced
   in between the caller's last poll and the parked-flag store), [false]
   after an actual park+wake.  This is the waiter half of the
   "park-notify" extracted model: the re-check between [prepare_wait] and
   [commit_wait] is exactly what the checker's no-recheck seeded mutation
   deletes. *)
let[@sds.model "park-notify/waiter"] park_once t ~ready =
  let ticket = prepare_wait t in
  if ready () then begin
    cancel t;
    true
  end
  else begin
    Policy.on_park t.policy;
    commit_wait t ticket;
    Policy.on_wake t.policy;
    false
  end

(* Adaptive blocking wait: spin (per the policy), then prepare/re-check/
   commit.  [ready] must be made true only by peers that subsequently call
   [notify]. *)
let wait t ~ready =
  if not (ready ()) then begin
    let pol = t.policy in
    Policy.begin_wait pol;
    let rec loop () =
      if ready () then begin
        Obs.Metrics.incr c_spin_wins;
        Policy.on_success pol
      end
      else begin
        let u = Policy.poll pol in
        if u > 0 then begin
          for _ = 1 to u do
            Domain.cpu_relax ()
          done;
          loop ()
        end
        else if park_once t ~ready then begin
          Obs.Metrics.incr c_spin_wins;
          Policy.on_success pol
        end
        else if not (ready ()) then begin
          (* Spurious or stale wake (e.g. a notify for data a previous
             iteration already consumed): start a fresh wait. *)
          Policy.begin_wait pol;
          loop ()
        end
      end
    in
    loop ()
  end

(* Deadline-bounded wait: the crash-recovery fallback path.  Stdlib
   [Condition] has no timed wait, so past the spin phase this never
   commits an unbounded condvar park — it naps with exponentially growing
   [Thread.delay]s (50 µs doubling to a 2 ms cap) and re-polls [ready] and
   the deadline between naps.  Consequences, both deliberate:

   - no notify edge is required for progress: a peer that dies without
     ever calling [notify] cannot wedge a [wait_until] caller past the
     deadline (exactly the property [Rt_token]'s dead-holder seize needs);
   - determinism: with a non-adaptive policy ([~adaptive:false], the sim
     configuration) the spin budget is fixed, so the observable spin
     sequence is identical run to run — the sim stays deterministic, and
     the nap schedule only engages on the real-time fallback path the sim
     never takes.

   Returns [true] the moment [ready ()] holds, [false] once the deadline
   (a [Span.monotonic_ns] timestamp) passes — counted in
   [notify.wait_timeouts].  Callers compute the deadline from that raw
   clock too, never from [Obs.now]: under an installed clock the two
   disagree, and every wait would expire at once and spin. *)
let wait_until t ~deadline_ns ~ready =
  if ready () then true
  else begin
    let pol = t.policy in
    Policy.begin_wait pol;
    let rec loop nap =
      if ready () then begin
        Obs.Metrics.incr c_spin_wins;
        Policy.on_success pol;
        true
      end
      else if Sds_obs.Span.monotonic_ns () >= deadline_ns then begin
        Obs.Metrics.incr c_wait_timeouts;
        false
      end
      else begin
        let u = Policy.poll pol in
        if u > 0 then begin
          for _ = 1 to u do
            Domain.cpu_relax ()
          done;
          loop nap
        end
        else begin
          Obs.Metrics.incr c_parks;
          Policy.on_park pol;
          Thread.delay nap;
          Policy.on_wake pol;
          Policy.begin_wait pol;
          loop (Float.min (nap *. 2.) 0.002)
        end
      end
    in
    loop 5e-5
  end

(* Wait until one of [n] sources is ready; returns its index.  The scan
   starts one past the last serviced source and the cursor advances past
   the winner, so N continuously-ready sources are serviced round-robin —
   no source starves (the real-code analogue of the per-process epoll
   thread fanning events out fairly in §4.4).  All producers must share
   this waiter as their notification target. *)
let wait_any t ~n ~ready =
  if n <= 0 then invalid_arg "Waiter.wait_any";
  let scan () =
    let start = t.rr in
    let rec go k =
      if k = n then -1
      else
        let i = (start + k) mod n in
        if ready i then i else go (k + 1)
    in
    go 0
  in
  let finish i =
    t.rr <- (i + 1) mod n;
    i
  in
  match scan () with
  | i when i >= 0 -> finish i
  | _ ->
    let pol = t.policy in
    Policy.begin_wait pol;
    let rec loop () =
      match scan () with
      | i when i >= 0 ->
        Obs.Metrics.incr c_spin_wins;
        Policy.on_success pol;
        finish i
      | _ ->
        let u = Policy.poll pol in
        if u > 0 then begin
          for _ = 1 to u do
            Domain.cpu_relax ()
          done;
          loop ()
        end
        else begin
          let ticket = prepare_wait t in
          match scan () with
          | i when i >= 0 ->
            cancel t;
            Obs.Metrics.incr c_spin_wins;
            Policy.on_success pol;
            finish i
          | _ ->
            Policy.on_park pol;
            commit_wait t ticket;
            Policy.on_wake pol;
            Policy.begin_wait pol;
            loop ()
        end
    in
    loop ()
