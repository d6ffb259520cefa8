(** Observability substrate: process-global zero-allocation metrics,
    per-domain bounded event rings, and the one clock that stamps them.

    Hot-path recording never allocates and never locks: counters, gauges and
    histograms are flat [int] arrays sharded per domain (padded against
    false sharing), trace events are two stores into a per-domain ring.
    Aggregation, percentile extraction and rendering happen only on read. *)

val shards : int
(** Number of per-domain shards behind every metric and trace ring. *)

val log2_floor : int -> int
(** [log2_floor v] for [v > 0]; constant time, no allocation. *)

(** {1 The clock} *)

val now : unit -> int
(** Nanoseconds from the one clock that stamps trace records and spans:
    CLOCK_MONOTONIC (a noalloc C stub) unless [set_clock] installed
    another source. *)

val set_clock : (unit -> int) -> unit
(** Install a monotonic nanosecond source (e.g. the sim engine's clock). *)

val reset_clock : unit -> unit
(** Back to CLOCK_MONOTONIC. *)

module Metrics : sig
  val set_enabled : bool -> unit
  (** Master switch; disabled recording is a single load-and-branch. *)

  val enabled : unit -> bool

  (** {1 Counters} — monotonically increasing, sharded per domain. *)

  type counter

  val counter : string -> counter
  (** Register (or look up) the counter named [name]; idempotent. *)

  val incr : counter -> unit
  val add : counter -> int -> unit
  val value : counter -> int
  (** Aggregated over shards. *)

  (** {1 Gauges} — sharded cells aggregated by sum on read. *)

  type gauge

  val gauge : string -> gauge
  val gauge_add : gauge -> int -> unit
  val gauge_set : gauge -> int -> unit
  (** Writes this domain's shard only; meaningful for single-writer gauges. *)

  val gauge_value : gauge -> int

  (** {1 Histograms} — fixed 64-bucket log2 (HDR-style) arrays. [observe]
      performs no allocation; values [<= 0] land in bucket 0, and bucket
      [b >= 1] covers [[2^(b-1), 2^b)]. *)

  type histogram

  val histogram : string -> histogram
  val observe : histogram -> int -> unit
  val bucket_of : int -> int

  type hist_summary = {
    hs_count : int;
    hs_sum : int;
    hs_min : int;
    hs_max : int;
    hs_p50 : int;
    hs_p99 : int;
    hs_p999 : int;
    hs_buckets : int array;
  }

  val summarize_hist : histogram -> hist_summary

  (** {1 Probes} — counters whose cells live inside a data structure too hot
      for even a sharded add (e.g. the SPSC ring's single-writer fields).
      The closure is evaluated at snapshot time and must be monotone. *)

  val probe : string -> (unit -> int) -> unit

  (** {1 Snapshot and rendering} *)

  type snapshot = {
    counters : (string * int) list;  (** includes probes; sorted by name *)
    gauges : (string * int) list;
    histograms : (string * hist_summary) list;
  }

  val snapshot : unit -> snapshot

  val counter_value : string -> int
  (** Current value of a counter or probe by name; 0 when unregistered. *)

  val reset : unit -> unit
  (** Zero every registered cell.  Probe-backed counters keep their monotone
      underlying totals and are re-based to read as zero. *)

  val to_json : unit -> string
  val to_text : unit -> string
end

module Trace : sig
  (** Typed events recorded on the data path. *)
  type tag =
    | Send
    | Recv
    | Batch
    | Token_takeover
    | Zerocopy_remap
    | Ring_full
    | Fallback
    | Credit_stall
    | Scratch_grow
    | Accept
    | Steal
    | Wake
    | Fork
    | Park
    | Policy_adapt  (** [Copy_policy] re-derived its threshold; arg = new threshold *)
    | Flight_dump  (** the flight recorder wrote a dump; arg = records dumped *)
    | Span
        (** a resolved span: ts = dequeue, arg = ring seq, b = send, c = publish
            (see {!span}) *)
    | Wake_edge  (** a park→wake edge: ts = wake, arg = ns parked (see {!wake}) *)

  val tag_name : tag -> string
  val tag_of_name : string -> tag option

  val set_enabled : bool -> unit
  val enabled : unit -> bool

  val set_capacity : int -> unit
  (** Replace every per-domain ring with one of [cap] records (a power of
      two; default 2048), clearing them. *)

  val clear : unit -> unit

  val emit : tag -> unit
  (** Record an event at {!now}: two stores and a cursor bump, no
      allocation. *)

  val emit_n : tag -> int -> unit
  (** Record an event with an integer argument (batch size, byte count). *)

  val span : seq:int -> send:int -> pub:int -> deq:int -> unit
  (** Record a resolved span (ring sequence number and its send / publish /
      dequeue stamps) as a [Span] record. *)

  val wake : parked_ns:int -> woke_ns:int -> unit
  (** Record a park→wake edge as a [Wake_edge] record. *)

  val dropped : unit -> int
  (** Records overwritten by ring wraparound since the last drain. *)

  type event = {
    ts : int;
    domain : int;  (** ring shard *)
    tag : tag;
    arg : int;
    b : int;  (** [Span] send stamp; 0 for other tags *)
    c : int;  (** [Span] publish stamp; 0 for other tags *)
  }

  val snapshot : unit -> event list
  (** Every retained record, oldest first per domain, domains in shard
      order; leaves the rings as they are. *)

  val drain : unit -> event list
  (** All retained records, oldest first, merged across domains; clears the
      rings. *)

  val to_chrome_json : event list -> string
  (** Chrome trace-event JSON (chrome://tracing, Perfetto); [ts] is in
      microseconds with nanosecond resolution in the decimals. *)

  val parse_chrome_json : string -> event list
  (** Parse the exact shape [to_chrome_json] emits (round-trip). *)
end
