(* Observability substrate: process-global metrics and per-domain tracing.

   Everything here is built around one constraint: the data path must be
   able to record without allocating and without contending.  Two designs
   fall out of it:

   - [Metrics] keeps every counter / gauge / histogram as plain [int] cells
     in flat arrays, sharded per domain with a cache line of padding between
     shards (the same false-sharing discipline as [Spsc_ring]'s producer and
     consumer blocks).  The hot-path write is: load the enabled flag, index
     the shard, add.  Aggregation (summing shards, extracting percentiles)
     happens only on read.

   - [Trace] keeps one bounded ring of fixed-width records per domain:
     trace events, resolved spans and park→wake edges, each stamped from
     the one clock ([now]).  Recording a trace event is two stores and a
     cursor bump; the ring wraps, dropping the oldest records, so a runaway
     emitter can never grow memory.  Draining merges the per-domain rings
     into one time-ordered list for Chrome-trace JSON; the flight recorder
     reads the same rings without clearing them.

   Hot paths that truly cannot afford even a sharded add (the SPSC ring at
   tens of millions of ops/s) instead register a [probe]: a closure the
   registry evaluates at snapshot time, letting the data structure keep its
   stats in its own single-writer fields at zero marginal cost. *)

(* Number of counter shards.  Domain ids are mapped onto shards by masking,
   so two domains can share a shard under heavy oversubscription — the adds
   stay correct (plain int add, single word, no tearing on any supported
   platform), only the padding guarantee degrades. *)
let shards = 8
let shard_mask = shards - 1

let[@inline] shard_index () = (Domain.self () :> int) land shard_mask

(* Branchless floor(log2 v) for v > 0; constant time, no allocation. *)
let[@inline] log2_floor v =
  let r = ref 0 and v = ref v in
  if !v >= 1 lsl 32 then begin r := !r + 32; v := !v lsr 32 end;
  if !v >= 1 lsl 16 then begin r := !r + 16; v := !v lsr 16 end;
  if !v >= 1 lsl 8 then begin r := !r + 8; v := !v lsr 8 end;
  if !v >= 1 lsl 4 then begin r := !r + 4; v := !v lsr 4 end;
  if !v >= 1 lsl 2 then begin r := !r + 2; v := !v lsr 2 end;
  if !v >= 2 then incr r;
  !r

(* The one clock.  Trace records and span stamps read it; the default is
   the noalloc CLOCK_MONOTONIC stub, called directly.  The simulator
   installs its virtual clock (see [Engine.install_clock]) so everything
   stamped during a sim run is in simulated nanoseconds. *)
external monotonic_ns : unit -> int = "sds_span_monotonic_ns" [@@noalloc]

let clock : (unit -> int) option ref = ref None
let[@inline] now () = match !clock with None -> monotonic_ns () | Some f -> f ()
let set_clock f = clock := Some f
let reset_clock () = clock := None

module Metrics = struct
  (* One padded slot (a cache line of ints) per shard. *)
  let stride = 8

  let on = ref true
  let set_enabled b = on := b
  let enabled () = !on

  type counter = { c_name : string; c_cells : int array }
  type gauge = { g_name : string; g_cells : int array }

  (* Histogram shard layout: 64 log2 buckets, then count / sum / min / max,
     padded to a multiple of [stride] so shards stay on distinct lines. *)
  let buckets = 64
  let hslot = buckets + stride
  let off_count = buckets
  let off_sum = buckets + 1
  let off_min = buckets + 2
  let off_max = buckets + 3

  type histogram = { h_name : string; h_cells : int array }
  type probe = { p_name : string; p_fn : unit -> int; mutable p_offset : int }

  type metric = C of counter | G of gauge | H of histogram | P of probe

  let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
  let registry_mu = Mutex.create ()

  let with_registry f =
    Mutex.lock registry_mu;
    Fun.protect ~finally:(fun () -> Mutex.unlock registry_mu) f

  let intern name make describe =
    with_registry (fun () ->
        match Hashtbl.find_opt registry name with
        | Some m -> m
        | None ->
          let m = make () in
          Hashtbl.replace registry name m;
          ignore describe;
          m)

  let fresh_hist_cells () =
    let cells = Array.make (shards * hslot) 0 in
    for s = 0 to shards - 1 do
      cells.((s * hslot) + off_min) <- max_int;
      cells.((s * hslot) + off_max) <- min_int
    done;
    cells

  let counter name =
    match intern name (fun () -> C { c_name = name; c_cells = Array.make (shards * stride) 0 }) "counter" with
    | C c -> c
    | _ -> invalid_arg ("Obs.Metrics.counter: " ^ name ^ " registered with another type")

  let gauge name =
    match intern name (fun () -> G { g_name = name; g_cells = Array.make (shards * stride) 0 }) "gauge" with
    | G g -> g
    | _ -> invalid_arg ("Obs.Metrics.gauge: " ^ name ^ " registered with another type")

  let histogram name =
    match intern name (fun () -> H { h_name = name; h_cells = fresh_hist_cells () }) "histogram" with
    | H h -> h
    | _ -> invalid_arg ("Obs.Metrics.histogram: " ^ name ^ " registered with another type")

  let probe name fn =
    match intern name (fun () -> P { p_name = name; p_fn = fn; p_offset = 0 }) "probe" with
    | P _ -> ()
    | _ -> invalid_arg ("Obs.Metrics.probe: " ^ name ^ " registered with another type")

  (* ---- hot-path writes: no allocation, no locks ---- *)

  let[@inline] add c n =
    if !on then begin
      let i = shard_index () * stride in
      Array.unsafe_set c.c_cells i (Array.unsafe_get c.c_cells i + n)
    end

  let[@inline] incr c = add c 1

  let[@inline] gauge_add g n =
    if !on then begin
      let i = shard_index () * stride in
      Array.unsafe_set g.g_cells i (Array.unsafe_get g.g_cells i + n)
    end

  (* Gauge [set] writes this domain's shard and is meaningful for
     single-writer gauges; multi-writer gauges should stick to
     [gauge_add]. *)
  let[@inline] gauge_set g v =
    if !on then Array.unsafe_set g.g_cells (shard_index () * stride) v

  (* Values <= 0 land in bucket 0; otherwise bucket b >= 1 covers
     [2^(b-1), 2^b), so a power of two sits on a bucket's lower edge. *)
  let[@inline] bucket_of v = if v <= 0 then 0 else min (buckets - 1) (log2_floor v + 1)

  let[@inline] observe h v =
    if !on then begin
      let cells = h.h_cells in
      let base = shard_index () * hslot in
      let b = base + bucket_of v in
      Array.unsafe_set cells b (Array.unsafe_get cells b + 1);
      Array.unsafe_set cells (base + off_count) (Array.unsafe_get cells (base + off_count) + 1);
      Array.unsafe_set cells (base + off_sum) (Array.unsafe_get cells (base + off_sum) + v);
      if v < Array.unsafe_get cells (base + off_min) then Array.unsafe_set cells (base + off_min) v;
      if v > Array.unsafe_get cells (base + off_max) then Array.unsafe_set cells (base + off_max) v
    end

  (* ---- aggregation (read side) ---- *)

  let sum_shards cells =
    let acc = ref 0 in
    for s = 0 to shards - 1 do
      acc := !acc + cells.(s * stride)
    done;
    !acc

  let value c = sum_shards c.c_cells
  let gauge_value g = sum_shards g.g_cells

  type hist_summary = {
    hs_count : int;
    hs_sum : int;
    hs_min : int;
    hs_max : int;
    hs_p50 : int;
    hs_p99 : int;
    hs_p999 : int;
    hs_buckets : int array;  (** aggregated over shards; length 64 *)
  }

  (* Percentile estimation with log-linear interpolation inside the bucket
     holding the target rank.  Bucket [b >= 1] covers [2^(b-1), 2^b): a
     fraction [f] of the way through its population maps to
     [2^(b-1) * 2^f], so the estimate tracks the geometric spread of the
     bucket instead of clamping to its upper edge (which over-reported by
     up to 2x on wide µs-range buckets).  The exact [min, max] seen still
     clamps the result, so degenerate one-bucket distributions stay
     faithful. *)
  let percentile_of ~buckets:bk ~count ~min_v ~max_v p =
    if count = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int count))) in
      let rec go b cum =
        if b >= Array.length bk then max_v
        else begin
          let here = bk.(b) in
          let cum' = cum + here in
          if cum' >= rank then begin
            if b = 0 then 0
            else begin
              let f = float_of_int (rank - cum) /. float_of_int here in
              let lower = float_of_int (1 lsl (b - 1)) in
              int_of_float (Float.round (lower *. Float.pow 2. f))
            end
          end
          else go (b + 1) cum'
        end
      in
      let v = go 0 0 in
      min max_v (max min_v v)
    end

  let summarize_hist h =
    let bk = Array.make buckets 0 in
    let count = ref 0 and sum = ref 0 and mn = ref max_int and mx = ref min_int in
    for s = 0 to shards - 1 do
      let base = s * hslot in
      for b = 0 to buckets - 1 do
        bk.(b) <- bk.(b) + h.h_cells.(base + b)
      done;
      let c = h.h_cells.(base + off_count) in
      if c > 0 then begin
        count := !count + c;
        sum := !sum + h.h_cells.(base + off_sum);
        mn := min !mn h.h_cells.(base + off_min);
        mx := max !mx h.h_cells.(base + off_max)
      end
    done;
    let count = !count in
    let mn = if count = 0 then 0 else !mn and mx = if count = 0 then 0 else !mx in
    let pct p = percentile_of ~buckets:bk ~count ~min_v:mn ~max_v:mx p in
    {
      hs_count = count;
      hs_sum = !sum;
      hs_min = mn;
      hs_max = mx;
      hs_p50 = pct 50.;
      hs_p99 = pct 99.;
      hs_p999 = pct 99.9;
      hs_buckets = bk;
    }

  (* ---- snapshot / rendering ---- *)

  type snapshot = {
    counters : (string * int) list;  (** includes probes; sorted by name *)
    gauges : (string * int) list;
    histograms : (string * hist_summary) list;
  }

  let snapshot () =
    let cs = ref [] and gs = ref [] and hs = ref [] in
    (* Evaluate probes outside the registry lock: a probe may take its own
       lock (e.g. the ring registry), and creation under that lock would
       invert the order. *)
    let probes =
      with_registry (fun () ->
          Hashtbl.fold
            (fun _ m acc ->
              match m with
              | C c -> cs := (c.c_name, value c) :: !cs; acc
              | G g -> gs := (g.g_name, gauge_value g) :: !gs; acc
              | H h -> hs := (h.h_name, summarize_hist h) :: !hs; acc
              | P p -> p :: acc)
            registry [])
    in
    List.iter (fun p -> cs := (p.p_name, p.p_fn () - p.p_offset) :: !cs) probes;
    let by_name (a, _) (b, _) = String.compare a b in
    {
      counters = List.sort by_name !cs;
      gauges = List.sort by_name !gs;
      histograms = List.sort by_name !hs;
    }

  (* Convenience for tests and assertions: current value of a counter or
     probe by name, 0 when unregistered. *)
  let counter_value name =
    let probe_fn =
      with_registry (fun () ->
          match Hashtbl.find_opt registry name with
          | Some (C c) -> Some (fun () -> value c)
          | Some (P p) -> Some (fun () -> p.p_fn () - p.p_offset)
          | _ -> None)
    in
    match probe_fn with Some f -> f () | None -> 0

  (* Zero every registered cell.  Probe-backed counters are cumulative
     process totals owned by their data structures; reset records an offset
     so they read as zero afterwards while staying monotone underneath. *)
  let reset () =
    let probes =
      with_registry (fun () ->
          Hashtbl.fold
            (fun _ m acc ->
              match m with
              | C c -> Array.fill c.c_cells 0 (Array.length c.c_cells) 0; acc
              | G g -> Array.fill g.g_cells 0 (Array.length g.g_cells) 0; acc
              | H h ->
                Array.fill h.h_cells 0 (Array.length h.h_cells) 0;
                for s = 0 to shards - 1 do
                  h.h_cells.((s * hslot) + off_min) <- max_int;
                  h.h_cells.((s * hslot) + off_max) <- min_int
                done;
                acc
              | P p -> p :: acc)
            registry [])
    in
    List.iter (fun p -> p.p_offset <- p.p_fn ()) probes

  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let to_json () =
    let s = snapshot () in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\n  \"schema\": \"socksdirect-obs/1\",\n  \"counters\": {";
    List.iteri
      (fun i (n, v) ->
        Buffer.add_string b (Printf.sprintf "%s\n    \"%s\": %d" (if i = 0 then "" else ",") (json_escape n) v))
      s.counters;
    Buffer.add_string b "\n  },\n  \"gauges\": {";
    List.iteri
      (fun i (n, v) ->
        Buffer.add_string b (Printf.sprintf "%s\n    \"%s\": %d" (if i = 0 then "" else ",") (json_escape n) v))
      s.gauges;
    Buffer.add_string b "\n  },\n  \"histograms\": {";
    List.iteri
      (fun i (n, h) ->
        Buffer.add_string b
          (Printf.sprintf
             "%s\n    \"%s\": {\"count\": %d, \"sum\": %d, \"min\": %d, \"max\": %d, \"p50\": %d, \"p99\": %d, \"p999\": %d, \"buckets\": [%s]}"
             (if i = 0 then "" else ",")
             (json_escape n) h.hs_count h.hs_sum h.hs_min h.hs_max h.hs_p50 h.hs_p99 h.hs_p999
             (String.concat ", " (Array.to_list (Array.map string_of_int h.hs_buckets)))))
      s.histograms;
    Buffer.add_string b "\n  }\n}\n";
    Buffer.contents b

  let to_text () =
    let s = snapshot () in
    let b = Buffer.create 4096 in
    Buffer.add_string b "== counters ==\n";
    List.iter (fun (n, v) -> Buffer.add_string b (Printf.sprintf "%-32s %12d\n" n v)) s.counters;
    if s.gauges <> [] then begin
      Buffer.add_string b "== gauges ==\n";
      List.iter (fun (n, v) -> Buffer.add_string b (Printf.sprintf "%-32s %12d\n" n v)) s.gauges
    end;
    Buffer.add_string b "== histograms ==\n";
    List.iter
      (fun (n, h) ->
        Buffer.add_string b
          (Printf.sprintf "%-32s n=%d sum=%d min=%d p50=%d p99=%d p999=%d max=%d\n" n h.hs_count
             h.hs_sum h.hs_min h.hs_p50 h.hs_p99 h.hs_p999 h.hs_max))
      s.histograms;
    Buffer.contents b
end

module Trace = struct
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
    | Policy_adapt
    | Flight_dump
    | Span
    | Wake_edge

  let tag_count = 18

  let tag_to_int = function
    | Send -> 0
    | Recv -> 1
    | Batch -> 2
    | Token_takeover -> 3
    | Zerocopy_remap -> 4
    | Ring_full -> 5
    | Fallback -> 6
    | Credit_stall -> 7
    | Scratch_grow -> 8
    | Accept -> 9
    | Steal -> 10
    | Wake -> 11
    | Fork -> 12
    | Park -> 13
    | Policy_adapt -> 14
    | Flight_dump -> 15
    | Span -> 16
    | Wake_edge -> 17

  let tag_of_int = function
    | 0 -> Send
    | 1 -> Recv
    | 2 -> Batch
    | 3 -> Token_takeover
    | 4 -> Zerocopy_remap
    | 5 -> Ring_full
    | 6 -> Fallback
    | 7 -> Credit_stall
    | 8 -> Scratch_grow
    | 9 -> Accept
    | 10 -> Steal
    | 11 -> Wake
    | 12 -> Fork
    | 13 -> Park
    | 14 -> Policy_adapt
    | 15 -> Flight_dump
    | 16 -> Span
    | 17 -> Wake_edge
    | n -> invalid_arg ("Obs.Trace.tag_of_int: " ^ string_of_int n)

  let tag_name = function
    | Send -> "Send"
    | Recv -> "Recv"
    | Batch -> "Batch"
    | Token_takeover -> "TokenTakeover"
    | Zerocopy_remap -> "ZerocopyRemap"
    | Ring_full -> "RingFull"
    | Fallback -> "Fallback"
    | Credit_stall -> "CreditStall"
    | Scratch_grow -> "ScratchGrow"
    | Accept -> "Accept"
    | Steal -> "Steal"
    | Wake -> "Wake"
    | Fork -> "Fork"
    | Park -> "Park"
    | Policy_adapt -> "PolicyAdapt"
    | Flight_dump -> "FlightDump"
    | Span -> "Span"
    | Wake_edge -> "WakeEdge"

  let tag_of_name n =
    let rec go i = if i >= tag_count then None else begin
        let t = tag_of_int i in
        if tag_name t = n then Some t else go (i + 1)
      end
    in
    go 0

  let on = ref true
  let set_enabled b = on := b
  let enabled () = !on

  (* Per-domain bounded ring of fixed-width records, [words] ints each:
     timestamp, tag|a<<5, b, c.  Single writer per ring (the domain
     itself); [pos] counts all records ever written, so [pos - capacity] of
     them have been overwritten.  A trace event fills the first two words;
     only [Span] records fill [b] and [c], so readers take them from
     [Span] slots alone.  [set_capacity] swaps in whole new rings, so a
     writer that loaded the old one keeps a consistent store and mask. *)
  let words = 4

  type ring = { mutable pos : int; store : int array; mask : int }

  let default_capacity = 2048

  let make_ring cap = { pos = 0; store = Array.make (words * cap) 0; mask = cap - 1 }
  let rings = Array.init shards (fun _ -> make_ring default_capacity)

  let set_capacity cap =
    if cap < 1 || cap land (cap - 1) <> 0 then invalid_arg "Obs.Trace.set_capacity";
    Array.iteri (fun i _ -> rings.(i) <- make_ring cap) rings

  let clear () =
    Array.iter
      (fun r ->
        r.pos <- 0;
        Array.fill r.store 0 (Array.length r.store) 0)
      rings

  (* Write a record's first two words into the calling domain's ring and
     bump the cursor: no allocation.  The argument survives packing for
     |arg| < 2^57. *)
  let[@inline] put ts tag arg =
    let r = Array.unsafe_get rings (shard_index ()) in
    let slot = words * (r.pos land r.mask) in
    Array.unsafe_set r.store slot ts;
    Array.unsafe_set r.store (slot + 1) (tag_to_int tag lor (arg lsl 5));
    r.pos <- r.pos + 1

  let[@inline] emit_n tag arg = if !on then put (now ()) tag arg
  let[@inline] emit tag = emit_n tag 0

  (* A resolved span, stamped at its dequeue time (no extra clock read):
     the payload words go into the slot [put] then claims. *)
  let span ~seq ~send ~pub ~deq =
    if !on then begin
      let r = Array.unsafe_get rings (shard_index ()) in
      let slot = words * (r.pos land r.mask) in
      Array.unsafe_set r.store (slot + 2) send;
      Array.unsafe_set r.store (slot + 3) pub;
      put deq Span seq
    end

  (* A park→wake edge, stamped at the wake, carrying how long it parked. *)
  let wake ~parked_ns ~woke_ns = if !on then put woke_ns Wake_edge (woke_ns - parked_ns)

  let dropped () =
    Array.fold_left (fun acc r -> acc + max 0 (r.pos - (r.mask + 1))) 0 rings

  type event = { ts : int; domain : int; tag : tag; arg : int; b : int; c : int }

  (* Domain [d]'s retained records, oldest first.  Reading a ring another
     domain is still writing is racy by design: a torn record is one bad
     line in a postmortem, never a crash.  Allocation is fine here: reading
     is the cold path. *)
  let read_ring d r =
    let pos = r.pos in
    let n = min pos (r.mask + 1) in
    let evs = ref [] in
    for i = pos - 1 downto pos - n do
      let slot = words * (i land r.mask) in
      let packed = r.store.(slot + 1) in
      let tag = tag_of_int (packed land 0x1F) in
      let b, c = if tag = Span then (r.store.(slot + 2), r.store.(slot + 3)) else (0, 0) in
      evs := { ts = r.store.(slot); domain = d; tag; arg = packed asr 5; b; c } :: !evs
    done;
    !evs

  let snapshot () = List.concat (List.mapi read_ring (Array.to_list rings))

  (* Read every ring and clear it, then merge by timestamp (stable on
     ties). *)
  let drain () =
    let evs =
      List.concat
        (List.mapi
           (fun d r ->
             let evs = read_ring d r in
             r.pos <- 0;
             evs)
           (Array.to_list rings))
    in
    List.stable_sort
      (fun a b ->
        let c = Int.compare a.ts b.ts in
        if c <> 0 then c else Int.compare a.domain b.domain)
      evs

  (* ---- rendering ---- *)

  (* Chrome trace-event format (chrome://tracing, Perfetto): instant events,
     ts in microseconds with nanosecond resolution kept in the decimals; a
     [Span]'s send and publish stamps ride in args [b] and [c]. *)
  let to_chrome_json events =
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_string b ",";
        Buffer.add_string b
          (Printf.sprintf
             "\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%.3f,\"args\":{\"v\":%d%s}}"
             (tag_name e.tag) e.domain (float_of_int e.ts /. 1e3) e.arg
             (if e.tag = Span then Printf.sprintf ",\"b\":%d,\"c\":%d" e.b e.c else "")))
      events;
    Buffer.add_string b "\n],\"displayTimeUnit\":\"ns\"}\n";
    Buffer.contents b

  (* ---- Chrome JSON parsing (round-trip support for tooling and tests) ----

     Parses exactly the shape [to_chrome_json] emits: a [traceEvents] array
     of flat objects with one level of [args] nesting. *)

  let parse_field_raw obj key =
    let pat = "\"" ^ key ^ "\":" in
    match
      let plen = String.length pat in
      let rec find i =
        if i + plen > String.length obj then None
        else if String.sub obj i plen = pat then Some (i + plen)
        else find (i + 1)
      in
      find 0
    with
    | None -> None
    | Some start ->
      let stop = ref start in
      let depth = ref 0 in
      let n = String.length obj in
      while
        !stop < n
        &&
        match obj.[!stop] with
        | '{' | '[' -> Stdlib.incr depth; true
        | '}' | ']' -> if !depth = 0 then false else (Stdlib.decr depth; true)
        | ',' -> !depth > 0
        | _ -> true
      do
        Stdlib.incr stop
      done;
      Some (String.trim (String.sub obj start (!stop - start)))

  let parse_string_field obj key =
    match parse_field_raw obj key with
    | Some s when String.length s >= 2 && s.[0] = '"' -> Some (String.sub s 1 (String.length s - 2))
    | _ -> None

  let parse_num_field obj key =
    match parse_field_raw obj key with
    | Some s -> float_of_string_opt s
    | None -> None

  (* Split the top-level array into balanced {...} chunks. *)
  let object_chunks s =
    let n = String.length s in
    let chunks = ref [] in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '{' then begin
        let depth = ref 0 and start = !i and stop = ref (-1) in
        let j = ref !i in
        while !stop < 0 && !j < n do
          (match s.[!j] with
          | '{' -> Stdlib.incr depth
          | '}' ->
            Stdlib.decr depth;
            if !depth = 0 then stop := !j
          | _ -> ());
          Stdlib.incr j
        done;
        if !stop >= 0 then begin
          chunks := String.sub s start (!stop - start + 1) :: !chunks;
          i := !stop + 1
        end
        else i := n
      end
      else Stdlib.incr i
    done;
    List.rev !chunks

  let parse_chrome_json s =
    let body =
      match parse_field_raw s "traceEvents" with
      | Some b -> b
      | None -> s
    in
    List.filter_map
      (fun obj ->
        match parse_string_field obj "name" with
        | None -> None
        | Some name -> (
          match tag_of_name name with
          | None -> None
          | Some tag ->
            let ts =
              match parse_num_field obj "ts" with
              | Some us -> int_of_float (Float.round (us *. 1e3))
              | None -> 0
            in
            let num k = match parse_num_field obj k with Some v -> int_of_float v | None -> 0 in
            Some { ts; domain = num "tid"; tag; arg = num "v"; b = num "b"; c = num "c" }))
      (object_chunks body)
end
