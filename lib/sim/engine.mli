(** Discrete-event simulation engine with integer-nanosecond time.

    Events with equal timestamps execute in schedule order, so runs are
    deterministic. *)

type t

exception Stopped
(** Raise from within an event to abandon that event silently. *)

val create : unit -> t

val now : t -> int
(** Current simulated time in nanoseconds. *)

val pending : t -> int
(** Number of events still queued. *)

val executed : t -> int
(** Total number of events executed so far. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay fn] runs [fn] at [now t + delay].  Raises
    [Invalid_argument] on negative delay. *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit

val record_error : t -> exn -> unit
(** Abort the current [run] with [exn] once the current event returns. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Execute queued events in timestamp order.  Stops when the queue drains,
    simulated time would exceed [until] (clock is then advanced to [until]),
    or [max_events] events have run.  Re-raises the first exception recorded
    by an event. *)

val stop : t -> unit
(** Stop a run in progress after the current event completes. *)

val install_clock : t -> unit
(** Make this engine's simulated clock (nanoseconds) the one
    {!Sds_obs.Obs.now} clock: [Obs.Trace] records and [Sds_obs.Span] stamps
    then read simulated time, so span stage durations are exact simulated
    nanoseconds.  It stays installed until the next [install_clock] or
    {!Sds_obs.Obs.reset_clock}. *)

val clear : t -> unit
(** Drop all pending events and any recorded error. *)
