(* Tests for the §4.4 event-notification subsystem (Sds_notify): the
   eventcount waiter protocol, the adaptive polling↔interrupt policy,
   multi-domain stress through the ring's blocking operations, wait_any
   fairness, and allocation-freedom of the hot-path primitives. *)

module W = Sds_notify.Waiter
module P = Sds_notify.Policy
module R = Sds_ring.Spsc_ring

(* ---- policy state machine ---- *)

let test_policy_fixed () =
  (* Non-adaptive with no backoff: exactly [budget] polls of 1 unit, then
     park — the simulator's historical yield_rounds behaviour. *)
  let p = P.create ~adaptive:false ~backoff_rounds:0 ~budget:5 () in
  P.begin_wait p;
  for _ = 1 to 5 do
    Alcotest.(check int) "spin unit" 1 (P.poll p)
  done;
  Alcotest.(check int) "exhausted" 0 (P.poll p);
  Alcotest.(check bool) "interrupt mode" true (P.mode p = P.Interrupt);
  P.on_park p;
  Alcotest.(check int) "budget unchanged (non-adaptive)" 5 (P.budget p);
  P.on_wake p;
  Alcotest.(check bool) "polling again" true (P.mode p = P.Polling)

let test_policy_adaptive () =
  let p = P.create ~min_spin:4 ~max_spin:64 ~backoff_rounds:2 ~budget:32 () in
  (* Parks halve the budget down to min_spin. *)
  P.on_park p;
  Alcotest.(check int) "halved" 16 (P.budget p);
  P.on_park p;
  P.on_park p;
  P.on_park p;
  Alcotest.(check int) "floored at min_spin" 4 (P.budget p);
  (* Successes double it back up to max_spin. *)
  P.on_success p;
  Alcotest.(check int) "doubled" 8 (P.budget p);
  for _ = 1 to 10 do
    P.on_success p
  done;
  Alcotest.(check int) "capped at max_spin" 64 (P.budget p);
  (* The backoff phase bursts grow exponentially after the spin budget. *)
  P.begin_wait p;
  for _ = 1 to 64 do
    ignore (P.poll p)
  done;
  Alcotest.(check int) "backoff burst 1" 1 (P.poll p);
  Alcotest.(check int) "backoff burst 2" 2 (P.poll p);
  Alcotest.(check int) "then park" 0 (P.poll p)

(* ---- eventcount protocol basics (single domain) ---- *)

let test_prepare_cancel_parked_flag () =
  let w = W.create () in
  Alcotest.(check bool) "idle" false (W.parked w);
  let t = W.prepare_wait w in
  Alcotest.(check bool) "parked flag visible" true (W.parked w);
  W.cancel w;
  Alcotest.(check bool) "cancelled" false (W.parked w);
  (* A notify delivered between prepare and commit makes commit a no-op
     rather than a lost wakeup: commit must return immediately. *)
  let t2 = W.prepare_wait w in
  Alcotest.(check bool) "fresh ticket context" true (t2 >= t);
  W.notify w;
  W.commit_wait w t2;
  Alcotest.(check bool) "returned, unparked" false (W.parked w)

let test_notify_unparked_is_noop () =
  let w = W.create () in
  for _ = 1 to 1000 do
    W.notify w
  done;
  Alcotest.(check bool) "still idle" false (W.parked w)

(* ---- the lost-wakeup soak (the race the old bench parking layer had) ----

   The seed's bench/ring_bench.ml parking layer read [p.waiting] in
   [unpark] *before* the waiter had set it inside the lock: a wake issued
   while the peer was committing to sleep could be skipped, deadlocking any
   schedule where the condition is consumed-and-reset (turn-based
   handoff).  Two domains hand a turn token back and forth with randomized
   delays injected at the most hostile points — between the readiness
   check and the commit, and before the notify — so wakes keep landing
   inside the prepare/commit window.  Spin is disabled (spin:0) to force
   every wait through the park path.  Under the old protocol this schedule
   deadlocks within a few thousand rounds; the eventcount's
   prepare/commit ticket makes the window benign, so the soak completes. *)

let test_lost_wakeup_soak () =
  let rounds = 20_000 in
  let turn = Atomic.make 0 in
  let wa = W.create ~spin:0 ~backoff_rounds:0 () in
  let wb = W.create ~spin:0 ~backoff_rounds:0 () in
  let jitter seed =
    (* Deterministic pseudo-random busy delay, distinct per side. *)
    let s = ref seed in
    fun () ->
      s := (!s * 1103515245) + 12345;
      let n = (!s lsr 16) land 0x7F in
      for _ = 1 to n do
        Domain.cpu_relax ()
      done
  in
  let side me peer my_w peer_w delay =
    for _ = 1 to rounds do
      (* Raw protocol, hostile schedule: re-check, delay, then commit. *)
      while Atomic.get turn <> me do
        let ticket = W.prepare_wait my_w in
        delay ();
        if Atomic.get turn = me then W.cancel my_w else W.commit_wait my_w ticket
      done;
      delay ();
      Atomic.set turn peer;
      W.notify peer_w
    done
  in
  let b = Domain.spawn (fun () -> side 1 0 wb wa (jitter 99)) in
  side 0 1 wa wb (jitter 7);
  Domain.join b;
  Alcotest.(check int) "token home" 0 (Atomic.get turn)

(* ---- multi-domain stress through the ring's blocking operations ---- *)

(* One producer domain, one consumer domain, a deliberately small ring so
   both sides park constantly; every payload byte checksummed. *)
let stress_pair ~msgs ~ring_size ~payload () =
  let r = R.create ~size:ring_size () in
  let sum = ref 0 in
  let consumer =
    Domain.spawn (fun () ->
        let dst = Bytes.create 256 in
        for _ = 1 to msgs do
          let p = R.dequeue_packed_blocking ~auto_credit:true r ~dst ~dst_off:0 in
          sum := !sum + Bytes.get_uint8 dst (R.packed_len p - 1)
        done;
        !sum)
  in
  let src = Bytes.create 256 in
  for seq = 1 to msgs do
    Bytes.fill src 0 payload 'x';
    Bytes.set_uint8 src (payload - 1) (seq land 0xFF);
    Helpers.Ring.enqueue_blocking r src ~off:0 ~len:payload
  done;
  let got = Domain.join consumer in
  let expect = ref 0 in
  for seq = 1 to msgs do
    expect := !expect + (seq land 0xFF)
  done;
  Alcotest.(check int) "checksum" !expect got;
  Alcotest.(check bool) "drained" true (R.is_empty r)

let test_stress_2_domains () = stress_pair ~msgs:1_000_000 ~ring_size:4096 ~payload:32 ()

let test_stress_4_domains () =
  (* Two independent producer/consumer pairs running concurrently: four
     domains' worth of park/notify traffic interleaving on the scheduler. *)
  let pair msgs =
    Domain.spawn (fun () -> stress_pair ~msgs ~ring_size:2048 ~payload:24 ())
  in
  let a = pair 250_000 and b = pair 250_000 in
  Domain.join a;
  Domain.join b

(* ---- wait_any ---- *)

let test_wait_any_rotation_fairness () =
  (* Deterministic fairness: with N sources continuously ready, successive
     wait_any calls must service every source before revisiting one (the
     scan starts past the last winner). *)
  let n = 4 in
  let w = W.create () in
  let rings = Array.init n (fun _ -> R.create ~size:1024 ()) in
  Array.iter (fun r -> R.set_rx_waiter r w) rings;
  let payload = Bytes.make 8 'p' in
  Array.iter (fun r -> ignore (R.try_enqueue r payload ~off:0 ~len:8)) rings;
  let ready i = not (R.is_empty rings.(i)) in
  let seen = Array.make n 0 in
  for _ = 1 to n do
    let i = W.wait_any w ~n ~ready in
    seen.(i) <- seen.(i) + 1
  done;
  (* All four rings still ready the whole time — rotation must have visited
     each exactly once. *)
  Array.iteri (fun i c -> Alcotest.(check int) (Printf.sprintf "ring %d serviced once" i) 1 c) seen

let test_wait_any_cross_domain () =
  (* One consumer waiter over N rings fed by a producer domain round-robin;
     every ring must be serviced (no starvation) and every message arrive. *)
  let n = 4 in
  let per_ring = 5_000 in
  let w = W.create ~spin:64 () in
  let rings = Array.init n (fun _ -> R.create ~size:1024 ()) in
  Array.iter (fun r -> R.set_rx_waiter r w) rings;
  let producer =
    Domain.spawn (fun () ->
        let src = Bytes.make 8 'q' in
        for seq = 0 to (n * per_ring) - 1 do
          Helpers.Ring.enqueue_blocking rings.(seq mod n) src ~off:0 ~len:8
        done)
  in
  let ready i = not (R.is_empty rings.(i)) in
  let dst = Bytes.create 64 in
  let got = Array.make n 0 in
  for _ = 1 to n * per_ring do
    let i = W.wait_any w ~n ~ready in
    let p = R.try_dequeue_packed ~auto_credit:true rings.(i) ~dst ~dst_off:0 in
    Alcotest.(check bool) "ready ring non-empty" true (p <> R.no_msg);
    got.(i) <- got.(i) + 1
  done;
  Domain.join producer;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "ring %d complete" i) per_ring c)
    got

(* ---- allocation-freedom of the hot-path primitives ---- *)

let minor_words_per_op iters f =
  (* Warm up, then measure. *)
  for _ = 1 to 100 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int iters

let test_notify_allocation_free () =
  Sds_obs.Obs.Metrics.set_enabled true;
  Sds_obs.Obs.Trace.set_enabled true;
  let w = W.create () in
  let words = minor_words_per_op 100_000 (fun () -> W.notify w) in
  Alcotest.(check bool) "notify allocates nothing" true (words < 0.01);
  let words =
    minor_words_per_op 100_000 (fun () ->
        ignore (W.prepare_wait w);
        W.cancel w)
  in
  Alcotest.(check bool) "prepare_wait/cancel allocate nothing" true (words < 0.01)

let test_instrumented_ring_ops_allocation_free () =
  (* The enqueue/dequeue fast paths with notification wired in (the parked
     flag load on enqueue, the tx-waiter notify on auto-credit return). *)
  Sds_obs.Obs.Metrics.set_enabled true;
  Sds_obs.Obs.Trace.set_enabled true;
  let r = R.create ~size:(1 lsl 16) () in
  let payload = Bytes.make 64 'x' in
  let dst = Bytes.create 256 in
  let words =
    minor_words_per_op 100_000 (fun () ->
        ignore (R.try_enqueue r payload ~off:0 ~len:64);
        ignore (R.try_dequeue_packed ~auto_credit:true r ~dst ~dst_off:0))
  in
  Alcotest.(check bool) "enqueue+dequeue with notify allocate nothing" true (words < 0.01)

let suite =
  [
    Alcotest.test_case "policy: fixed budget = sim yield_rounds" `Quick test_policy_fixed;
    Alcotest.test_case "policy: adaptive resize + backoff" `Quick test_policy_adaptive;
    Alcotest.test_case "waiter: prepare/cancel parked flag" `Quick test_prepare_cancel_parked_flag;
    Alcotest.test_case "waiter: notify with no waiter is no-op" `Quick test_notify_unparked_is_noop;
    Alcotest.test_case "lost-wakeup soak (randomized delays)" `Slow test_lost_wakeup_soak;
    Alcotest.test_case "2-domain stress, 1M blocking msgs" `Slow test_stress_2_domains;
    Alcotest.test_case "4-domain stress, 2x250k blocking msgs" `Slow test_stress_4_domains;
    Alcotest.test_case "wait_any: deterministic rotation fairness" `Quick
      test_wait_any_rotation_fairness;
    Alcotest.test_case "wait_any: cross-domain, no starvation" `Slow test_wait_any_cross_domain;
    Alcotest.test_case "notify + prepare_wait allocation-free" `Quick test_notify_allocation_free;
    Alcotest.test_case "instrumented ring ops allocation-free" `Quick
      test_instrumented_ring_ops_allocation_free;
  ]
