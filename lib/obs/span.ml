(* Per-message causal latency attribution (the Sds_span tentpole).

   A span is not an allocated object: it is a set of timestamps stamped at
   fixed points of the data path and correlated by the message's ring
   sequence number.  The sender stamps at [Libsd.send] entry (sim path:
   [Msg] creation), the ring stamps publication, [Sds_notify] records the
   park→wake edge, and the receiver stamps dequeue and consume
   completion.  The differences feed fixed per-stage log2 histograms:

     span.app    send  -> publish   (sender-side staging / API overhead)
     span.queue  publish -> visible (ring residency + transport)
     span.wake   visible -> dequeue (receiver reaction: poll or park/wake)
     span.parse  dequeue -> decoded (ring record / descriptor decode)
     span.copy   decoded -> done    (payload landed by memcpy)
     span.remap  decoded -> done    (payload landed by page remap, §4.6)
     span.e2e    send -> done       (everything; stage sums reconcile)

   Every stamp reads [Obs.now], the clock trace records use too: a
   noalloc monotonic-ns C stub by default, or the simulator's virtual
   clock ([Engine.install_clock]) so sim spans are exact in simulated
   nanoseconds.  The waiter's park→wake edge alone reads the raw
   [monotonic_ns], since parking blocks a real thread.

   Hot-path discipline: stamping is a sampled store into a preallocated
   track (default 1-in-128 messages, [set_sample_shift]); the unsampled
   fast path is one load, one mask and a branch.  Nothing allocates. *)

external monotonic_ns : unit -> int = "sds_span_monotonic_ns" [@@noalloc]

let on = ref true

(* Sample 1 message in 2^shift.  A sampled message pays three
   clock_gettime calls plus the histogram observes and the span record's
   stores (~150 ns end to end); the default shift 7 amortises that to
   ~1 ns/msg, inside the 2 ns budget.  Tests drop to shift 0 for
   every-message coverage. *)
let shift = ref 7

(* The enabled flag and the sampling mask are fused into one guard,
   [seq land gate_m = 0], so the unsampled fast path is one load, one mask
   and one compare-branch.  Disabled sets the mask to all-ones, which
   still passes the guard at seq = 0 (once per ring lifetime); the cold
   slow paths re-check [on] where it matters, so the single spurious stamp
   is a harmless pair of array stores. *)
let gate_m = ref ((1 lsl 7) - 1)
let update_gate () = gate_m := if !on then (1 lsl !shift) - 1 else -1

let set_enabled b =
  on := b;
  update_gate ()

let enabled () = !on

let set_sample_shift s =
  if s < 0 || s > 20 then invalid_arg "Obs.Span.set_sample_shift";
  shift := s;
  update_gate ()

let sample_shift () = !shift

(* ---- stage histograms -------------------------------------------------- *)

let h_app = Obs.Metrics.histogram "span.app"
let h_queue = Obs.Metrics.histogram "span.queue"
let h_wake = Obs.Metrics.histogram "span.wake"
let h_parse = Obs.Metrics.histogram "span.parse"
let h_copy = Obs.Metrics.histogram "span.copy"
let h_remap = Obs.Metrics.histogram "span.remap"
let h_e2e = Obs.Metrics.histogram "span.e2e"

(* ---- ring-path span track ----------------------------------------------

   The real-domain SPSC ring cannot carry stamps in its payload (records
   are opaque ints), so each ring owns a [track]: two preallocated int
   arrays indexed by [(seq >> shift) & (slots-1)].  The producer writes
   send/publish stamps before the tail release, the consumer reads them at
   dequeue — FIFO order plus the release/acquire on the ring tail makes
   the correlation exact, with no allocation and no ID table.  Each stamp
   slot carries a [seq + 1] tag checked at resolution, so a stale slot
   (slot reuse, or sampling toggled mid-traffic) reads as "no stamp"
   instead of fabricating a latency. *)

let track_slots = 256

type track = {
  send_ts : int array;
  send_tag : int array;
  pub_ts : int array;
  pub_tag : int array;
  tmask : int;
}

let make_track () =
  {
    send_ts = Array.make track_slots 0;
    send_tag = Array.make track_slots 0;
    pub_ts = Array.make track_slots 0;
    pub_tag = Array.make track_slots 0;
    tmask = track_slots - 1;
  }

let[@inline] sampled seq = seq land !gate_m = 0

(* Producer side: optional send stamp (API entry), then the publish stamp.
   The slow writers are [@inline never] so the callers' inlined residue is
   just the sampling guard and a cold call. *)
let[@inline never] stamp_send_slow tr seq =
  let i = (seq lsr !shift) land tr.tmask in
  Array.unsafe_set tr.send_ts i (Obs.now ());
  Array.unsafe_set tr.send_tag i (seq + 1)

let[@inline] stamp_send tr ~seq = if sampled seq then stamp_send_slow tr seq

let[@inline never] stamp_pub_slow tr seq =
  let i = (seq lsr !shift) land tr.tmask in
  Array.unsafe_set tr.pub_ts i (Obs.now ());
  Array.unsafe_set tr.pub_tag i (seq + 1)

let[@inline] stamp_pub tr ~seq = if sampled seq then stamp_pub_slow tr seq

(* Consumer side: resolve the span at dequeue.  Observes span.app (when a
   send stamp preceded the publish stamp), span.queue and span.e2e, and
   records the resolved span in the trace ring. *)
let[@inline never] resolve_deq tr seq =
  let i = (seq lsr !shift) land tr.tmask in
  let t = Obs.now () in
  let pub = Array.unsafe_get tr.pub_ts i in
  if !on && Array.unsafe_get tr.pub_tag i = seq + 1 && pub > 0 && t >= pub then begin
    Obs.Metrics.observe h_queue (t - pub);
    let send = Array.unsafe_get tr.send_ts i in
    let send =
      if Array.unsafe_get tr.send_tag i = seq + 1 && send > 0 && send <= pub then send else pub
    in
    if send < pub then Obs.Metrics.observe h_app (pub - send);
    Obs.Metrics.observe h_e2e (t - send);
    Obs.Trace.span ~seq ~send ~pub ~deq:t
  end

let[@inline] note_deq tr ~seq = if sampled seq then resolve_deq tr seq

(* ---- sim-path stage observation ----------------------------------------

   The simulator carries stamps on [Msg.t] fields instead of a track (the
   message object already exists there) and calls this once per consumed
   data message, at consume completion.  Stages are disjoint by
   construction, so their sums reconcile exactly with span.e2e. *)

let observe_stages ~seq ~send ~pub ~vis ~deq ~parsed ~done_ ~remapped =
  (* [pub > 0] is the "actually travelled the instrumented transport"
     marker: messages that never crossed a channel (or predate the clock
     install) carry no publish stamp and are skipped whole, so every stage
     histogram counts exactly the same message population. *)
  if !on && pub > 0 && send >= 0 && done_ >= send then begin
    let pub = if pub >= send then pub else send in
    let vis = if vis >= pub then vis else pub in
    let deq = if deq >= vis then deq else vis in
    let parsed = if parsed >= deq then parsed else deq in
    let done_ = if done_ >= parsed then done_ else parsed in
    Obs.Metrics.observe h_app (pub - send);
    Obs.Metrics.observe h_queue (vis - pub);
    Obs.Metrics.observe h_wake (deq - vis);
    Obs.Metrics.observe h_parse (parsed - deq);
    Obs.Metrics.observe (if remapped then h_remap else h_copy) (done_ - parsed);
    Obs.Metrics.observe h_e2e (done_ - send);
    Obs.Trace.span ~seq ~send ~pub ~deq
  end

(* ---- wake edges -------------------------------------------------------- *)

(* Called by the waiter with raw monotonic stamps (never the sim clock:
   parking blocks a real thread regardless of what the sim clock says). *)
let observe_wake ~parked_ns ~woke_ns =
  if !on && woke_ns >= parked_ns then begin
    Obs.Metrics.observe h_wake (woke_ns - parked_ns);
    Obs.Trace.wake ~parked_ns ~woke_ns
  end
