(** Eventcount/futex-style waiter for OCaml domains: the real-code
    implementation of the paper's §4.4 event-notification layer (polling
    mode with a switch to interrupt mode, sender-mediated wakeup).

    One logical waiter (consumer or blocked producer) per [t]; any number
    of notifiers.  The waiter protocol is race-free against notifiers by
    construction:

    {[
      let ticket = Waiter.prepare_wait w in
      if ready () then Waiter.cancel w
      else Waiter.commit_wait w ticket
    ]}

    and notifiers, after making the condition true, call [notify] — which
    costs one atomic load and a branch while nobody is parked, and pays the
    mutex/broadcast at most once per parked episode.

    [wait]/[wait_any] wrap the protocol in the adaptive spin→backoff→park
    phases of the shared {!Policy} state machine. *)

type t

val create :
  ?min_spin:int ->
  ?max_spin:int ->
  ?backoff_rounds:int ->
  ?adaptive:bool ->
  ?spin:int ->
  unit ->
  t
(** [spin] is the initial spin budget (default 512); the other knobs are
    forwarded to {!Policy.create}. *)

val policy : t -> Policy.t
(** The waiter's mode/spin state machine (exposed for observability and
    tests). *)

val parked : t -> bool
(** Producer-visible parked flag: true while a waiter has prepared or
    committed a wait.  One atomic load. *)

val notify : t -> unit
(** Wake the waiter if one is (about to be) parked.  One atomic load and a
    branch on the fast path; allocation-free always.  Call only {e after}
    the condition the waiter checks has been made true. *)

val prepare_wait : t -> int
(** Publish the intent to sleep and return the wait ticket.  The caller
    must re-check its condition after this, then either [cancel] or
    [commit_wait].  Allocation-free. *)

val cancel : t -> unit
(** Abort a prepared wait (the re-check found the condition true). *)

val commit_wait : t -> int -> unit
(** Park until a notify delivered after the matching [prepare_wait].
    Returns immediately if one already landed between prepare and commit —
    the lost-wakeup window this subsystem exists to close. *)

val wait : t -> ready:(unit -> bool) -> unit
(** Adaptive blocking wait until [ready ()].  Bounded spin, exponential
    backoff, then park; the spin budget adapts to whether spinning pays.
    [ready] must become true only through peers that then call [notify]. *)

val wait_until : t -> deadline_ns:int -> ready:(unit -> bool) -> bool
(** Deadline-bounded [wait]: true the moment [ready ()] holds, false once
    the deadline (a {!Sds_obs.Span.monotonic_ns} timestamp) passes —
    counted in the [notify.wait_timeouts] metric.  Compute [deadline_ns]
    from {!Sds_obs.Span.monotonic_ns}, never from the swappable
    {!Sds_obs.Obs.now}: with a clock installed the two disagree and every
    wait would time out at once and spin.  Past the spin phase it
    naps with exponential backoff ([Thread.delay], 50 µs doubling to a
    2 ms cap) instead of committing an unbounded condvar park, so progress
    needs {e no} notify edge — a peer that dies without notifying cannot
    wedge the caller past the deadline.  The crash-recovery fallback path
    of {!Sds_rt.Rt_token}.  With a non-adaptive policy ([~adaptive:false],
    the simulator's configuration) the spin budget is fixed and the
    observable spin sequence identical run to run, so the sim stays
    deterministic; the wall-clock nap schedule engages only on this
    real-time fallback path, which the sim never takes. *)

val wait_any : t -> n:int -> ready:(int -> bool) -> int
(** Block until some source [i < n] has [ready i]; returns [i].  Scans
    round-robin from one past the last serviced source, so continuously
    ready sources are serviced fairly.  All [n] producers must notify this
    waiter. *)
