(** Flight recorder: a snapshot of {!Obs.Trace}'s per-domain event rings
    (trace events, resolved spans, park→wake edges) plus registered state
    providers and the metrics registry, rendered into a postmortem dump on
    crash, deadlock (zero-progress watchdog) or SIGQUIT.  Recording happens
    in {!Obs.Trace}; everything here is cold. *)

(** {1 State providers} *)

val register_state : string -> (unit -> string) -> unit
(** Register (or replace) a named cold-path renderer of live structural
    state (ring cursors, waiter park flags, pool occupancy); evaluated
    only at dump time. *)

val register_heartbeats : string -> (unit -> (string * int) list) -> unit
(** Register (or replace) a named heartbeat provider: monotone (name,
    value) samples, one per watched entity (e.g. one per enrolled
    {!Sds_rt.Rt_dom} slot).  The watchdog samples every provider each
    round and fires on any entity whose value stalls while still being
    reported; providers should omit entities whose silence is legitimate
    (parked, exited). *)

val heartbeat_samples : unit -> (string * int) list
(** One flattened ["provider/entity"] sample round (providers that raise
    are skipped for the round). *)

(** {1 Dumping} *)

val dump_schema : string
(** First line of every dump ("sds-flight/1"). *)

val render : reason:string -> unit -> string

val dump_to_file : ?path:string -> reason:string -> unit -> string
(** Write a dump and return its path (default
    [$TMPDIR/sds-flight-<pid>.dump]); emits a [Flight_dump] trace event. *)

type dump = {
  d_reason : string;
  d_records : Obs.Trace.event list;
      (** the ring snapshot's records, oldest first per domain; each dump
          line is [domain= kind=<tag name> a=arg b= c= d=ts] *)
  d_states : (string * string) list;
  d_metrics : string;
}

val parse_dump : string -> dump
(** Parse the exact shape [render] emits; raises [Invalid_argument] on a
    foreign header. *)

val install : ?path:string -> unit -> unit
(** Install the SIGQUIT handler and the uncaught-exception hook (both dump
    before delegating to the default behaviour).  Idempotent; meant for
    drivers, not tests. *)

(** {1 Zero-progress watchdog} *)

type watchdog

val watchdog :
  ?path:string ->
  ?reason:string ->
  ?watch_heartbeats:bool ->
  interval_s:float ->
  stalls:int ->
  progress:(unit -> int) ->
  unit ->
  watchdog
(** Sample [progress] every [interval_s] seconds; after [stalls]
    consecutive unchanged samples, dump and stop watching.  Unless
    [watch_heartbeats:false], every registered heartbeat entity is watched
    the same way — a stalled-but-still-reported entity dumps with
    ["heartbeat-stall: <name>"] as the reason (slot epochs reach the dump
    via the [rt_dom] state section). *)

val watchdog_fired : watchdog -> string option
(** Path of the dump if the watchdog has fired. *)

val watchdog_stop : watchdog -> unit
(** Stop and join the watchdog thread. *)
