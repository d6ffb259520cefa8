(* Real-domain socket benchmark: application bytes through Rt_monitor and
   Rt_sock between two OCaml domains of one process, over shared memory.

     sockbench --workload NAME --seed N --seconds S --trace 0|1
     sockbench --self-test

   --trace 0 measures the end-to-end metrics with the program's span
   sampling off; --trace 1 records the benchmark's own spans around every
   call into a layer, takes Obs metric deltas around the measured phase and
   climbs the layer ladder (see Rungs).  The report goes to stdout; its
   last line is one JSON object {correct, attempted, failed, metrics}.  See
   README.md for the metric catalogue. *)

module Obs = Sds_obs.Obs
module Span = Sds_obs.Span
module Rt_dom = Sds_rt.Rt_dom

(* ---- the metric catalogue (BENCHMARK.json lists the same names) ---- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("goodput_mb_per_s", "MB/s");
    ("cpu_ns_per_op", "ns");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  [
    ("ring.enqueues", "count"); ("ring.full_events", "count"); ("ring.credit_returns", "count");
    ("ring.batch_size.p50", "msgs"); ("ring.batch_size.n", "count");
    ("ladder.ring.ns_per_msg", "ns");
    ("pool.allocs", "count"); ("pool.releases", "count"); ("pool.refills", "count");
    ("pool.spills", "count"); ("pool.exhausted", "count"); ("rt.desc_sends", "count");
    ("rt.pool_fallbacks", "count"); ("pool.zc_ratio", "ratio");
    ("ladder.pool.ns_per_msg", "ns");
    ("notify.parks", "count"); ("notify.spin_wins", "count"); ("notify.wait_timeouts", "count");
    ("notify.spin_ratio", "ratio"); ("notify.wake_latency_ns.p50", "ns");
    ("notify.wake_latency_ns.p99", "ns"); ("notify.wake_latency_ns.n", "count");
    ("token.direct_takes", "count"); ("token.takeovers", "count"); ("token.handoffs", "count");
    ("token.takeover_ns.p99", "ns"); ("token.takeover_ns.n", "count");
    ("ladder.token.ns_per_msg", "ns");
    ("sock.send.ns.p50", "ns"); ("sock.send.ns.p99", "ns"); ("sock.send.ns.n", "count");
    ("sock.recv.wait_ns.p50", "ns"); ("sock.recv.wait_ns.p99", "ns");
    ("sock.recv.wait_ns.n", "count"); ("sock.close.ns.p50", "ns"); ("sock.close.ns.n", "count");
    ("rt.sends", "count"); ("rt.recvs", "count"); ("ladder.sock.ns_per_msg", "ns");
    ("monitor.connect_us.p50", "us"); ("monitor.connect_us.p99", "us");
    ("monitor.connect_us.n", "count"); ("monitor.accept_wait_us.p50", "us");
    ("monitor.accept_wait_us.p99", "us"); ("monitor.accept_wait_us.n", "count");
    ("monitor.dispatch.rr", "count"); ("monitor.dispatch.steals", "count");
    ("monitor.dispatch.backlog.p99", "conns"); ("monitor.dispatch.backlog.n", "count");
    ("ladder.full.ns_per_msg", "ns");
    ("dom.spawn_ms", "ms"); ("monitor.register_ms", "ms");
    ("gc.minor_words_per_op", "words"); ("gc.major_collections", "count");
    ("op.lat_us.p50", "us"); ("op.lat_us.p99", "us"); ("op.lat_us.n", "count");
    ("trace.overhead_pct", "%");
  ]

(* A measured value, or why there is none.  A percentile short of ten
   samples beyond it carries the largest sample instead, an upper bound of
   the percentile (the report says insufficient_samples, and its [.n]
   sibling metric gives the count); with no sample at all it reads -1 in
   the JSON line, as does a ratio whose base is zero.  No measured value of
   these metrics is negative. *)
type value = Num of float | Insufficient of { max : float option } | Undefined

type metric = { name : string; unit_ : string; v : value; n : int option  (** samples *) }

let num ?n name unit_ x = { name; unit_; v = Num x; n }

let pct ?(scale = 1.) name unit_ ~n ~max p =
  let v =
    match p with
    | Some x -> Num (x /. scale)
    | None -> Insufficient { max = (if n > 0 then Some (max /. scale) else None) }
  in
  { name; unit_; v; n = Some n }

let ratio name num den =
  { name; unit_ = "ratio"; v = (if den = 0 then Undefined else Num (float num /. float den)); n = None }

(* ---- accumulated correctness over every session of a run ---- *)

type acc = { mutable attempted : int; fails : Payload.fails }

let acc () = { attempted = 0; fails = Payload.no_fails () }

let absorb acc (r : Drive.result) =
  acc.attempted <- acc.attempted + r.attempted;
  Payload.add_fails ~dst:acc.fails r.fails

(* A session with the pool-page and poison audits around it: every page
   allocated during the session must be back when it ends, and no
   connection may have been poisoned. *)
let g_in_use = Obs.Metrics.gauge "pool.pages_in_use"

let audited acc ?inject ~rung ~w ~seed ~segs () =
  let pages0 = Obs.Metrics.gauge_value g_in_use in
  let poisoned0 = Obs.Metrics.counter_value "rt.poisoned" in
  let r = Drive.session ?inject ~rung ~w ~seed ~segs () in
  let leaked = Obs.Metrics.gauge_value g_in_use - pages0 in
  if leaked <> 0 then Payload.fail r.fails Leak 1;
  let poisoned = Obs.Metrics.counter_value "rt.poisoned" - poisoned0 in
  if poisoned > 0 then Payload.fail r.fails Peer_dead poisoned;
  absorb acc r;
  r

let ns_of_s s = int_of_float (s *. 1e9)
let seg ?(traced = false) ?(measured = true) s = { Drive.dur_ns = ns_of_s s; traced; measured }

(* Set-up repetitions: each session does one op and tears down. *)
let setup_reps = 20

let setups acc ~w ~seed =
  List.init setup_reps (fun _ ->
      audited acc ~rung:"full" ~w ~seed ~segs:[| seg ~measured:false 0. |] ())

let ns_per_op (r : Drive.result) ~segs =
  match Drive.cost r.prog ~segs with Some (ns, _) -> ns | None -> Float.nan

(* ---- trace 0: end-to-end metrics ---- *)

(* Short sessions, each a fresh listener, worker domain and connection;
   the reported cost is the median over sessions.  Sessions differ by 10 %
   and more (ring and pool placement, host scheduling), so the median of
   many short ones is steadier than one long one. *)
let sessions = 32

let end_to_end_run acc ~(w : Drive.workload) ~seed ~seconds =
  Span.set_enabled false;
  let reps = setups acc ~w ~seed in
  let k = float sessions in
  let rs =
    List.init sessions (fun _ ->
        audited acc ~rung:"full" ~w ~seed
          ~segs:[| seg ~measured:false (0.1 *. seconds /. k); seg (0.9 *. seconds /. k) |] ())
  in
  let costs = List.filter_map (fun (r : Drive.result) -> Drive.cost r.prog ~segs:[ 1 ]) rs in
  Printf.printf "# session ns/op: %s\n"
    (String.concat " " (List.map (fun (ns, _) -> Printf.sprintf "%.0f" ns) costs));
  let ops_per_s = 1e9 /. Hist.median (List.map fst costs) in
  let nsess = List.length costs in
  (* A session that completed nothing in its measured part has stalled. *)
  if nsess < sessions then Payload.fail acc.fails Timeout (sessions - nsess);
  (* Per-op latency is reported, not gated: on the streams it is queueing
     delay behind flow control, which flips between near-empty and full
     rings from run to run (see README). *)
  let lat = Hist.create () in
  List.iter (fun (r : Drive.result) -> Hist.merge_into ~dst:lat r.sp.lat) rs;
  let show p =
    match Hist.percentile lat p with
    | Some x -> Printf.sprintf "%.2f" (x /. 1e3)
    | None -> "insufficient_samples"
  in
  Printf.printf "# op latency us: p50 %s p99 %s n=%d (reported by --trace 1 as op.lat_us.*)\n"
    (show 0.50) (show 0.99) (Hist.count lat);
  [
    num "setup_s" "s" ~n:(setup_reps + sessions)
      (Hist.median (List.map (fun (x : Drive.result) -> float x.setup_ns /. 1e9) (rs @ reps)));
    num "ops_per_s" "1/s" ~n:nsess ops_per_s;
    num "goodput_mb_per_s" "MB/s" ~n:nsess (ops_per_s *. float (Drive.bytes_per_op w) /. 1e6);
    num "cpu_ns_per_op" "ns" ~n:nsess (Hist.median (List.map snd costs));
    num "peak_rss_mb" "MB" (float (Drive.maxrss_kb ()) /. 1024.);
  ]

(* ---- trace 1: per-layer metrics ---- *)

let counter snap name =
  match List.assoc_opt name snap.Obs.Metrics.counters with Some v -> v | None -> 0

let hist snap name = List.assoc_opt name snap.Obs.Metrics.histograms

let ladder_rounds = 4

(* The traced phase is the set-up sessions plus one full-stack session, and
   its counts are the [Obs.Metrics] registry zeroed at its start (nothing
   runs in between, so the reset races no writer).  Set-up sessions run
   traced too, so connection-scoped spans have samples on every workload. *)
let per_layer_run acc ~(w : Drive.workload) ~seed ~seconds =
  Span.set_enabled false;
  Obs.Metrics.reset ();
  let reps =
    List.init setup_reps (fun _ ->
        audited acc ~rung:"full" ~w ~seed ~segs:[| seg ~traced:true ~measured:false 0. |] ())
  in
  let ms xs = Hist.median (List.map (fun x -> float x /. 1e6) xs) in
  let spawn_ms = ms (List.map (fun (r : Drive.result) -> r.spawn_ns) reps) in
  let register_ms = ms (List.map (fun (r : Drive.result) -> r.register_ns) reps) in
  (* Full stack: untraced and traced segments alternate on one connection,
     so the overhead compares like with like. *)
  let u = seg (0.1 *. seconds) and t = seg ~traced:true (0.1 *. seconds) in
  let segs = [| seg ~measured:false (0.05 *. seconds); u; t; u; t |] in
  let majors0 = (Gc.quick_stat ()).major_collections in
  let full = audited acc ~rung:"full" ~w ~seed ~segs () in
  let majors = (Gc.quick_stat ()).major_collections - majors0 in
  let s1 = Obs.Metrics.snapshot () in
  Span.set_enabled false;
  let untraced_ns = ns_per_op full ~segs:[ 1; 3 ] in
  let traced_ns = ns_per_op full ~segs:[ 2; 4 ] in
  (* The ladder: [ladder_rounds] rounds of one short untraced session per
     rung, rung after rung, so host drift lands on every rung alike; each
     rung reports its median over the rounds. *)
  let dur = 0.5 *. seconds /. float (ladder_rounds * List.length Rungs.names) in
  let rounds =
    List.init ladder_rounds (fun _ ->
        List.map
          (fun name ->
            let r =
              audited acc ~rung:name ~w ~seed
                ~segs:[| seg ~measured:false (0.1 *. dur); seg (0.9 *. dur) |] ()
            in
            ns_per_op r ~segs:[ 1 ])
          Rungs.names)
  in
  let ladder =
    List.mapi (fun i name -> (name, Hist.median (List.map (fun r -> List.nth r i) rounds))) Rungs.names
  in
  Printf.printf "# ladder ns/op:%s\n"
    (String.concat ""
       (List.mapi
          (fun i (name, ns) ->
            if i = 0 then Printf.sprintf " %s %.1f" name ns
            else Printf.sprintf " | %s %.1f (%+.1f)" name ns (ns -. snd (List.nth ladder (i - 1))))
          ladder));
  let d name = counter s1 name in
  let obs_n hname = match hist s1 hname with Some h -> h.Obs.Metrics.hs_count | None -> 0 in
  let obs_pct name unit_ hname p =
    let n = obs_n hname in
    match hist s1 hname with
    | Some h when Hist.enough ~n p ->
      num ~n name unit_ (float (if p >= 0.99 then h.hs_p99 else h.hs_p50))
    | Some h -> pct name unit_ ~n ~max:(float h.hs_max) None
    | None -> pct name unit_ ~n:0 ~max:0. None
  in
  let obs_count name hname = num name "count" (float (obs_n hname)) in
  let cnt name = num name "count" (float (d name)) in
  let sp = Drive.spans () in
  List.iter (fun (r : Drive.result) -> Drive.merge_spans ~dst:sp r.sp) (full :: reps);
  let span name unit_ ~scale h p =
    pct name unit_ ~scale ~n:(Hist.count h) ~max:(float (Hist.max_sample h)) (Hist.percentile h p)
  in
  let span_n name h = num name "count" (float (Hist.count h)) in
  let ops = full.prog.ops in
  (* [token.takeover_ns] times every cold acquire of an Rt_token, direct
     takes of a free token included; the rest waited on a holder. *)
  let takeovers = d "token.takeovers" + obs_n "token.takeover_ns" - d "token.direct_takes" in
  List.map (fun (name, ns) -> num ("ladder." ^ name ^ ".ns_per_msg") "ns" ns) ladder
  @ [
      cnt "ring.enqueues"; cnt "ring.full_events"; cnt "ring.credit_returns";
      obs_pct "ring.batch_size.p50" "msgs" "ring.batch_size" 0.50;
      obs_count "ring.batch_size.n" "ring.batch_size";
      cnt "pool.allocs"; cnt "pool.releases"; cnt "pool.refills"; cnt "pool.spills";
      cnt "pool.exhausted"; cnt "rt.desc_sends"; cnt "rt.pool_fallbacks";
      ratio "pool.zc_ratio" (d "rt.desc_sends") (d "rt.desc_sends" + d "rt.pool_fallbacks");
      cnt "notify.parks"; cnt "notify.spin_wins"; cnt "notify.wait_timeouts";
      ratio "notify.spin_ratio" (d "notify.spin_wins") (d "notify.spin_wins" + d "notify.parks");
      obs_pct "notify.wake_latency_ns.p50" "ns" "notify.wake_latency_ns" 0.50;
      obs_pct "notify.wake_latency_ns.p99" "ns" "notify.wake_latency_ns" 0.99;
      obs_count "notify.wake_latency_ns.n" "notify.wake_latency_ns";
      cnt "token.direct_takes"; num "token.takeovers" "count" (float takeovers);
      cnt "token.handoffs";
      obs_pct "token.takeover_ns.p99" "ns" "token.takeover_ns" 0.99;
      obs_count "token.takeover_ns.n" "token.takeover_ns";
      span "sock.send.ns.p50" "ns" ~scale:1. sp.send 0.50;
      span "sock.send.ns.p99" "ns" ~scale:1. sp.send 0.99;
      span_n "sock.send.ns.n" sp.send;
      span "sock.recv.wait_ns.p50" "ns" ~scale:1. sp.recv_wait 0.50;
      span "sock.recv.wait_ns.p99" "ns" ~scale:1. sp.recv_wait 0.99;
      span_n "sock.recv.wait_ns.n" sp.recv_wait;
      span "sock.close.ns.p50" "ns" ~scale:1. sp.close 0.50;
      span_n "sock.close.ns.n" sp.close;
      cnt "rt.sends"; cnt "rt.recvs";
      span "monitor.connect_us.p50" "us" ~scale:1e3 sp.connect 0.50;
      span "monitor.connect_us.p99" "us" ~scale:1e3 sp.connect 0.99;
      span_n "monitor.connect_us.n" sp.connect;
      span "monitor.accept_wait_us.p50" "us" ~scale:1e3 sp.accept_wait 0.50;
      span "monitor.accept_wait_us.p99" "us" ~scale:1e3 sp.accept_wait 0.99;
      span_n "monitor.accept_wait_us.n" sp.accept_wait;
      cnt "monitor.dispatch.rr"; cnt "monitor.dispatch.steals";
      obs_pct "monitor.dispatch.backlog.p99" "conns" "monitor.dispatch.backlog" 0.99;
      obs_count "monitor.dispatch.backlog.n" "monitor.dispatch.backlog";
      num "dom.spawn_ms" "ms" ~n:setup_reps spawn_ms;
      num "monitor.register_ms" "ms" ~n:setup_reps register_ms;
      num "gc.minor_words_per_op" "words" (full.minor_words /. float (max 1 ops));
      num "gc.major_collections" "count" (float majors);
      span "op.lat_us.p50" "us" ~scale:1e3 sp.lat 0.50;
      span "op.lat_us.p99" "us" ~scale:1e3 sp.lat 0.99;
      span_n "op.lat_us.n" sp.lat;
      num "trace.overhead_pct" "%" ((traced_ns /. untraced_ns -. 1.) *. 100.);
    ]

(* ---- output ---- *)

let json_value = function
  | (Num x | Insufficient { max = Some x }) when Float.is_finite x -> Printf.sprintf "%.17g" x
  | _ -> "-1"

let show_value m =
  match m.v with
  | Num x -> Printf.sprintf "%.6g" x
  | Insufficient { max = Some x } -> Printf.sprintf "insufficient_samples (max %.6g)" x
  | Insufficient { max = None } -> "insufficient_samples"
  | Undefined -> "undefined"

let fingerprint ~w ~seed ~seconds ~trace =
  Printf.printf "# sockbench workload=%s seed=%d seconds=%d trace=%d\n" w.Drive.name seed seconds
    trace;
  Printf.printf "# host cores=%d ocaml=%s unix_time=%.0f seed=%d\n" (Rt_dom.available_cores ())
    Sys.ocaml_version (Unix.time ()) seed;
  Printf.printf "# traffic: intra-process shared memory between OCaml domains (no link, no loopback)\n";
  Printf.printf "# why %s: %s\n" w.name w.why

let report metrics acc =
  List.iter
    (fun m ->
      Printf.printf "%-30s %22s %-6s%s\n" m.name (show_value m) m.unit_
        (match m.n with Some n -> Printf.sprintf " n=%d" n | None -> ""))
    metrics;
  let failed = Payload.total acc.fails in
  Printf.printf "# fail_ratio %g (%d failed / %d attempted)%s\n"
    (float failed /. float (max 1 acc.attempted))
    failed acc.attempted
    (if failed = 0 then "" else " reasons: " ^ Payload.fails_to_string acc.fails)

let json_line metrics acc =
  let failed = Payload.total acc.fails in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} (failed = 0)
    (max 1 acc.attempted) failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name (json_value m.v) m.unit_)
          metrics))

(* Order [metrics] as the catalogue lists them (and check they are all there). *)
let in_catalogue catalogue metrics =
  List.map
    (fun (name, _) ->
      match List.find_opt (fun m -> String.equal m.name name) metrics with
      | Some m -> m
      | None -> failwith ("sockbench: metric not produced: " ^ name))
    catalogue

let run ~w ~seed ~seconds ~trace =
  let acc = acc () in
  let seconds_f = float seconds in
  let metrics =
    if trace then in_catalogue per_layer (per_layer_run acc ~w ~seed ~seconds:seconds_f)
    else in_catalogue end_to_end (end_to_end_run acc ~w ~seed ~seconds:seconds_f)
  in
  (metrics, acc)

(* ---- watchdog: a wedged run reports a timeout instead of hanging ---- *)

let watchdog ~limit_s =
  ignore
    (Thread.create
       (fun () ->
         Unix.sleepf limit_s;
         Printf.printf "# timeout: run still going after %.0f s\n" limit_s;
         print_endline {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}|};
         flush stdout;
         Unix._exit 3)
       ())

(* ---- self-test ---- *)

let self_test () =
  let failures = ref 0 in
  let check what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let catalogue_file =
    if Sys.file_exists "BENCHMARK.json" then
      Some (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    else None
  in
  let mentions text needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.equal (String.sub text i n) needle || go (i + 1)) in
    go 0
  in
  (match catalogue_file with
  | Some text ->
    List.iter
      (fun (name, unit_) ->
        check
          (Printf.sprintf "BENCHMARK.json lists %s in %s" name unit_)
          (mentions text (Printf.sprintf {|"name": "%s", "unit": "%s"|} name unit_)))
      (end_to_end @ per_layer);
    List.iter
      (fun (w : Drive.workload) ->
        check
          (Printf.sprintf "BENCHMARK.json %s %s" (if w.gated then "lists" else "leaves out") w.name)
          (Bool.equal w.gated (mentions text (Printf.sprintf {|"name": "%s"|} w.name))))
      Drive.workloads
  | None -> check "BENCHMARK.json found in the working directory" false);
  List.iter
    (fun (w : Drive.workload) ->
      let seed = 7 in
      List.iter
        (fun trace ->
          let metrics, acc = run ~w ~seed ~seconds:1 ~trace in
          let label = Printf.sprintf "%s trace=%b" w.name trace in
          check (label ^ ": no failures") (Payload.total acc.fails = 0 && acc.attempted > 0);
          let catalogue = if trace then per_layer else end_to_end in
          check (label ^ ": every catalogue metric emitted")
            (List.length metrics = List.length catalogue);
          if not trace then
            check (label ^ ": end-to-end values positive")
              (List.for_all
                 (fun m -> match m.v with Num x -> x > 0. | Insufficient _ -> true | Undefined -> false)
                 metrics)
          else
            check (label ^ ": every ladder rung measured")
              (List.for_all
                 (fun r ->
                   let name = "ladder." ^ r ^ ".ns_per_msg" in
                   List.exists
                     (fun m -> String.equal m.name name && match m.v with Num x -> x > 0. | _ -> false)
                     metrics)
                 Rungs.names))
        [ false; true ];
      (* The checker is not vacuous: a flipped body byte and a dropped
         message each raise the failure count, under the right reason. *)
      let segs = [| seg 0.2 |] in
      List.iter
        (fun (inject, reason, label) ->
          let acc = acc () in
          ignore (audited acc ~inject ~rung:"full" ~w ~seed ~segs ());
          let got = acc.fails.(Payload.reason_index reason) in
          check
            (Printf.sprintf "%s: %s raises fail_ratio (%s=%d of %d)" w.name label
               (Payload.reason_name reason) got acc.attempted)
            (got > 0))
        [ (Drive.Corrupt 8, Payload.Checksum, "corrupted byte");
          (Drive.Drop 8, Payload.Missing, "dropped message") ])
    Drive.workloads;
  Printf.printf "self-test: %s\n" (if !failures = 0 then "PASS" else "FAIL");
  exit (if !failures = 0 then 0 else 1)

(* ---- command line ---- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the generated payloads");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
      ("--self-test", Arg.Set selftest, " run the benchmark's own checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "sockbench --workload NAME --seed N --seconds S --trace 0|1";
  Drive.pin_client ();
  if !selftest then begin
    watchdog ~limit_s:170.;
    self_test ()
  end;
  match Drive.find_workload !workload with
  | None ->
    Printf.eprintf "sockbench: unknown workload %S (one of: %s)\n" !workload
      (String.concat ", " (List.map (fun (w : Drive.workload) -> w.name) Drive.workloads));
    exit 2
  | Some _ when !seconds < 1 || (!trace <> 0 && !trace <> 1) ->
    prerr_endline "sockbench: --seconds must be >= 1 and --trace 0 or 1";
    exit 2
  | Some w ->
    watchdog ~limit_s:(Float.min 170. (float (3 * !seconds) +. 30.));
    fingerprint ~w ~seed:!seed ~seconds:!seconds ~trace:!trace;
    let metrics, acc = run ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
    report metrics acc;
    print_endline (json_line metrics acc);
    exit 0
