(** Per-message causal latency attribution.

    Spans are never allocated: fixed stamp points (send entry, ring
    publish, visibility, dequeue, consume completion) are correlated by
    ring sequence number and fed into per-stage log2 histograms
    ([span.app], [span.queue], [span.wake], [span.parse], [span.copy],
    [span.remap], [span.e2e]).  Stamping is sampled (default 1 in 128) and
    allocation-free; the unsampled fast path is one mask and a branch. *)

val monotonic_ns : unit -> int
(** Raw CLOCK_MONOTONIC nanoseconds (noalloc C stub), never swapped: the
    clock for real-time deadlines and park→wake edges.  Span stamps read
    {!Obs.now}. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val set_sample_shift : int -> unit
(** Sample 1 message in [2^shift] (0 ≤ shift ≤ 20; default 7). *)

val sample_shift : unit -> int

(** {1 Stage histograms} (registered at module initialisation) *)

val h_app : Obs.Metrics.histogram
val h_queue : Obs.Metrics.histogram
val h_wake : Obs.Metrics.histogram
val h_parse : Obs.Metrics.histogram
val h_copy : Obs.Metrics.histogram
val h_remap : Obs.Metrics.histogram
val h_e2e : Obs.Metrics.histogram

(** {1 Ring-path span track}

    Preallocated per-ring stamp slots indexed by [(seq >> shift)];
    producer stamps before the tail release, consumer resolves at
    dequeue.  FIFO order makes the sequence-number correlation exact. *)

type track

val make_track : unit -> track
val sampled : int -> bool

val stamp_send : track -> seq:int -> unit
(** Producer: API-entry stamp for the message about to take [seq]. *)

val stamp_pub : track -> seq:int -> unit
(** Producer: publication stamp for [seq]; call before the tail release. *)

val note_deq : track -> seq:int -> unit
(** Consumer: resolve the span for [seq] — observes [span.app],
    [span.queue], [span.e2e] and records an {!Obs.Trace.span}. *)

(** {1 Sim-path stage observation} *)

val observe_stages :
  seq:int ->
  send:int ->
  pub:int ->
  vis:int ->
  deq:int ->
  parsed:int ->
  done_:int ->
  remapped:bool ->
  unit
(** Observe one consumed data message's disjoint stages from its carried
    stamps (all from the same clock); negative gaps clamp to zero so the
    stage sums still reconcile with [span.e2e] exactly. *)

(** {1 Wake edges} *)

val observe_wake : parked_ns:int -> woke_ns:int -> unit
(** Park→wake edge (raw monotonic stamps): observes [span.wake] and
    records an {!Obs.Trace.wake}. *)
