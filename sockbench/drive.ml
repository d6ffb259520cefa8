(* Workload drivers and sessions.

   A session is one listener of one rung, one worker domain and the calling
   (client) domain — the load the benchmark is sized for: one process, one
   client domain, one worker domain, at most two connections open at once.
   The client runs a list of timed segments on it; segments are marked
   measured (their cost and latencies count) and traced (the benchmark's
   own spans around every call into the socket layer are recorded, and the
   program's span sampling is on).

   Every workload is closed-loop with one client: stream clients block on
   ring credits, RPC and churn clients wait for each reply. *)

module Rt_dom = Sds_rt.Rt_dom
module Rt_sock = Sds_rt.Rt_sock
module Span = Sds_obs.Span

external cpu_us : unit -> int = "sockbench_cpu_us" [@@noalloc]
external maxrss_kb : unit -> int = "sockbench_maxrss_kb" [@@noalloc]
external allowed_cpu : int -> int = "sockbench_allowed_cpu" [@@noalloc]
external pin_cpu : int -> int = "sockbench_pin_cpu" [@@noalloc]

(* The client runs on the first CPU the process may use, each worker on the
   second: one domain per core, as the paper dedicates cores.  Left to the
   scheduler, a worker woken from a park often lands on the client's CPU;
   the two then take turns draining whole rings, a second performance mode
   (about 40 % faster on stream-64) that comes and goes with scheduling
   rather than with the code.  With fewer than two CPUs nothing is pinned. *)
let cpus = lazy (allowed_cpu 0, allowed_cpu 1)

let pinned () =
  let client, worker = Lazy.force cpus in
  client >= 0 && worker >= 0

let pin_client () = if pinned () then ignore (pin_cpu (fst (Lazy.force cpus)))

let now = Span.monotonic_ns

type kind = Stream | Rpc | Churn

type workload = {
  name : string;
  kind : kind;
  size : int;  (** message bytes *)
  burst : int;  (** messages per send call (streams) *)
  gated : bool;  (** listed in BENCHMARK.json *)
  why : string;
}

(* stream-64 and conn-churn are not gated: on a shared 2-vCPU host their
   run-to-run spread (IQR/median over ten runs, 0.13-0.37) exceeds any
   bound a regression gate may use; they stay runnable by name. *)
let workloads =
  [
    { name = "stream-64"; kind = Stream; size = 64; burst = 32; gated = false;
      why = "per-message cost of the inline path: ring, Batch_ctl batching, token fast path" };
    { name = "stream-16k"; kind = Stream; size = 16 * 1024; burst = 1; gated = true;
      why = "descriptor (zero-copy) path: Pagepool alloc/adopt/release per message" };
    { name = "rpc-64"; kind = Rpc; size = 64; burst = 1; gated = true;
      why = "one request in flight: Waiter park/wake and two token-held ops per round trip" };
    { name = "conn-churn"; kind = Churn; size = 64; burst = 1; gated = false;
      why = "connect, one request, one reply, close: monitor dispatch and Rt_sock.pair set-up" };
  ]

let find_workload n = List.find_opt (fun w -> String.equal w.name n) workloads

(* Payload bytes one op delivers: a message, or a request plus its reply. *)
let bytes_per_op w = match w.kind with Stream -> w.size | Rpc | Churn -> 2 * w.size

type seg = { dur_ns : int; traced : bool; measured : bool }

(* ---- progress: (time, ops, cpu) checkpoints every millisecond ---- *)

let cadence_ns = 1_000_000

type progress = {
  pt : int array;
  pops : int array;
  pcpu : int array;
  pseg : int array;
  mutable len : int;
  mutable last : int;
  mutable ops : int;
  stride_mask : int;  (** look at the clock every [stride_mask + 1] ops *)
}

(* Sized for the planned segments, so the arrays do not inflate the peak
   resident set the benchmark reports. *)
let progress ~stride ~segs =
  let cap = (Array.fold_left (fun a s -> a + s.dur_ns) 0 segs / cadence_ns) + 64 in
  { pt = Array.make cap 0; pops = Array.make cap 0; pcpu = Array.make cap 0;
    pseg = Array.make cap 0; len = 0; last = 0; ops = 0; stride_mask = stride - 1 }

let checkpoint p ~seg t =
  if p.len < Array.length p.pt then begin
    p.pt.(p.len) <- t;
    p.pops.(p.len) <- p.ops;
    p.pcpu.(p.len) <- cpu_us ();
    p.pseg.(p.len) <- seg;
    p.len <- p.len + 1
  end;
  p.last <- t

let[@inline] tick p ~seg =
  p.ops <- p.ops + 1;
  if p.ops land p.stride_mask = 0 then begin
    let t = now () in
    if t - p.last >= cadence_ns then checkpoint p ~seg t
  end

(* [tick] for a caller that just read the clock. *)
let[@inline] tick_at p ~seg t =
  p.ops <- p.ops + 1;
  if t - p.last >= cadence_ns then checkpoint p ~seg t

(* Cost over the given segments, from the first to the last checkpoint
   inside each: (ns per op, CPU ns per op), or [None] without progress.  A
   whole segment, not the median of short windows: stream rates flip
   between two modes many times a second, and the median of a two-mode
   sample jumps with the mix while the mean moves with it smoothly. *)
let cost p ~segs =
  let dt = ref 0 and dops = ref 0 and dcpu = ref 0 in
  List.iter
    (fun s ->
      let first = ref (-1) and last = ref (-1) in
      for j = 0 to p.len - 1 do
        if p.pseg.(j) = s then begin
          if !first < 0 then first := j;
          last := j
        end
      done;
      if !first >= 0 then begin
        dt := !dt + p.pt.(!last) - p.pt.(!first);
        dops := !dops + p.pops.(!last) - p.pops.(!first);
        dcpu := !dcpu + p.pcpu.(!last) - p.pcpu.(!first)
      end)
    segs;
  if !dops = 0 then None
  else Some (float_of_int !dt /. float_of_int !dops, float_of_int !dcpu *. 1000. /. float_of_int !dops)

(* ---- spans recorded by the benchmark around its calls into a layer ---- *)

type spans = {
  send : Hist.t;  (** one Rt_sock send/send_burst call *)
  recv_wait : Hist.t;  (** one Rt_sock recv call, mostly waiting *)
  close : Hist.t;
  connect : Hist.t;  (** Rt_monitor.connect *)
  accept_wait : Hist.t;  (** Rt_monitor.accept, including the park *)
  lat : Hist.t;  (** per-op latency in measured untraced segments *)
}

let spans () =
  { send = Hist.create (); recv_wait = Hist.create (); close = Hist.create ();
    connect = Hist.create (); accept_wait = Hist.create (); lat = Hist.create () }

let merge_spans ~dst s =
  Hist.merge_into ~dst:dst.send s.send;
  Hist.merge_into ~dst:dst.recv_wait s.recv_wait;
  Hist.merge_into ~dst:dst.close s.close;
  Hist.merge_into ~dst:dst.connect s.connect;
  Hist.merge_into ~dst:dst.accept_wait s.accept_wait;
  Hist.merge_into ~dst:dst.lat s.lat

(* ---- fault injection into the traffic, for the checker's self-test ---- *)

type inject = No_fault | Corrupt of int | Drop of int

(* Sequence number the client stamps on its [i]-th message: [Drop k]
   skips sequence [k], so the peer sees a gap exactly there. *)
let seq_of inject i = match inject with Drop k when i >= k -> i + 1 | _ -> i

(* Flip one body byte of message [k]; applied again after the send, it
   restores the reused buffer. *)
let corrupt inject seq buf =
  match inject with
  | Corrupt k when seq = k -> Bytes.set buf 20 (Char.chr (Char.code (Bytes.get buf 20) lxor 0x5a))
  | _ -> ()

(* ---- one session ---- *)

type shared = {
  segs : seg array;
  cur : int Atomic.t;  (** segment the client is in; [Array.length segs] once done *)
  sent_at : int array;  (** stream send stamps of latency-sampled messages *)
}

let sent_slots = 4096

(* Streams sample one message in [2^lat_shift] for one-way latency. *)
let lat_shift w = match w.kind with Stream when w.size < 1024 -> 6 | _ -> 0
let[@inline] sent_slot ~shift seq = (seq lsr shift) land (sent_slots - 1)

type result = {
  fails : Payload.fails;
  attempted : int;  (** ops the client started *)
  prog : progress;  (** completions: the worker's for streams, the client's otherwise *)
  sp : spans;
  setup_ns : int;  (** listener creation to the first message handed over *)
  spawn_ns : int;  (** Rt_dom.spawn until the worker body runs *)
  register_ns : int;
  minor_words : float;  (** both domains *)
}

type worker_out = {
  w_checker : Payload.checker;
  w_prog : progress;
  w_sp : spans;
  w_started : int;
  w_register_ns : int;
  w_minor : float;
}

(* The client moves to segment [s]; the program's own span sampling follows
   the segment's traced mark. *)
let enter sh s =
  Span.set_enabled sh.segs.(s).traced;
  Atomic.set sh.cur s

let[@inline] seg_of sh = min (Atomic.get sh.cur) (Array.length sh.segs - 1)

(* Worker: accept connections until the listener shuts; a sink verifies
   streams, an echo server verifies each request and sends it back. *)
let worker ~(rung : Rungs.rung) ~w ~spec ~sh () =
  let started = now () in
  let dom = Rt_dom.self () in
  let minor0 = Gc.minor_words () in
  let t0 = now () in
  rung.register ();
  let register_ns = now () - t0 in
  let sp = spans () in
  let c = Payload.checker spec in
  let stride = match w.kind with Stream when w.size < 1024 -> 32 | _ -> 1 in
  let prog = progress ~stride ~segs:sh.segs in
  let rbuf = Bytes.create Rungs.recv_buf_size in
  let shift = lat_shift w in
  let lmask = (1 lsl shift) - 1 in
  let cur_ep = ref None in
  let seg = ref 0 in
  let on_msg buf off seq =
    match w.kind with
    | Stream ->
      let s = sh.segs.(!seg) in
      if s.measured && (not s.traced) && seq land lmask = 0 then
        Hist.record sp.lat (now () - sh.sent_at.(sent_slot ~shift seq));
      tick prog ~seg:!seg
    | Rpc | Churn -> (
      match !cur_ep with
      | Some (ep : Rungs.ep) ->
        let s = sh.segs.(!seg) in
        if s.traced then begin
          let t = now () in
          ep.send buf off spec.Payload.size;
          Hist.record sp.send (now () - t)
        end
        else ep.send buf off spec.Payload.size
      | None -> ())
  in
  let serve (ep : Rungs.ep) =
    cur_ep := Some ep;
    let rec loop () =
      seg := seg_of sh;
      let n =
        if sh.segs.(!seg).traced then begin
          let t = now () in
          let n = ep.recv rbuf in
          Hist.record sp.recv_wait (now () - t);
          n
        end
        else ep.recv rbuf
      in
      if n > 0 then begin
        Payload.feed c rbuf ~len:n ~on_msg;
        loop ()
      end
    in
    (try
       loop ();
       match w.kind with Stream -> ep.release () | Rpc | Churn -> ep.close ()
     with Rt_sock.Peer_dead -> Payload.fail c.fails Peer_dead 1);
    if ep.poisoned () then Payload.fail c.fails Peer_dead 1;
    cur_ep := None
  in
  let rec accept_loop () =
    let traced = sh.segs.(seg_of sh).traced in
    let t = now () in
    match rung.accept ~dom with
    | None -> ()
    | Some ep ->
      if traced then Hist.record sp.accept_wait (now () - t);
      serve ep;
      accept_loop ()
  in
  accept_loop ();
  checkpoint prog ~seg:!seg (now ());
  {
    w_checker = c;
    w_prog = prog;
    w_sp = sp;
    w_started = started;
    w_register_ns = register_ns;
    w_minor = Gc.minor_words () -. minor0;
  }

(* Client-side reply wait: feed chunks until one more message completed.
   False when the stream ended first. *)
let await_reply (ep : Rungs.ep) c rbuf ~traced sp =
  let before = c.Payload.next in
  let eof = ref false in
  while (not !eof) && c.Payload.next = before do
    let t = if traced then now () else 0 in
    let n = ep.recv rbuf in
    if traced then Hist.record sp.recv_wait (now () - t);
    if n = 0 then eof := true else Payload.feed c rbuf ~len:n ~on_msg:(fun _ _ _ -> ())
  done;
  not !eof

let drain (ep : Rungs.ep) rbuf =
  while ep.recv rbuf > 0 do
    ()
  done;
  ep.release ()

(* Obs metrics shard their cells by [Domain.self () land (shards - 1)] and
   update a shard without atomics, so two domains running on one shard lose
   updates (a pages-in-use gauge that drifts, counters that undercount).
   Domain ids grow by one per spawn, so every [shards]-th worker would share
   the client's shard; such an id is spent on an empty domain instead,
   keeping the counts the audits and per-layer metrics read exact. *)
let last_spawned = ref (-1)

let spare_client_shard () =
  let mask = Sds_obs.Obs.shards - 1 in
  let mine = (Domain.self () :> int) land mask in
  while !last_spawned >= 0 && (!last_spawned + 1) land mask = mine do
    let d = Domain.spawn ignore in
    last_spawned := (Domain.get_id d :> int);
    Domain.join d
  done

(* A new domain's thread inherits its creator's CPU mask, so the client
   steps onto the worker's CPU to spawn it and steps back. *)
let spawn f =
  if pinned () then ignore (pin_cpu (snd (Lazy.force cpus)));
  let d = Rt_dom.spawn f in
  pin_client ();
  last_spawned := (Domain.get_id d :> int);
  d

let session ?(inject = No_fault) ~rung:rung_name ~w ~seed ~segs () =
  let sh = { segs; cur = Atomic.make 0; sent_at = Array.make sent_slots 0 } in
  let spec = Payload.spec ~seed ~size:w.size in
  let dom = Rt_dom.self () in
  spare_client_shard ();
  let minor0 = Gc.minor_words () in
  let t_setup = now () in
  let rung = Rungs.make rung_name in
  let t_spawn = now () in
  let d = spawn (worker ~rung ~w ~spec ~sh) in
  while not (rung.ready ()) do
    Domain.cpu_relax ()
  done;
  let sp = spans () in
  let fails = Payload.no_fails () in
  let first_send = ref 0 in
  let[@inline] handing () = if !first_send = 0 then first_send := now () in
  let reply = Payload.checker spec in
  let rbuf = Bytes.create Rungs.recv_buf_size in
  let cprog = progress ~stride:1 ~segs in
  let attempted = ref 0 in
  let nsegs = Array.length segs in
  let connect ~traced =
    let t = now () in
    let ep = rung.connect ~dom in
    if traced then Hist.record sp.connect (now () - t);
    ep
  in
  let timed_send (ep : Rungs.ep) ~traced buf =
    if traced then begin
      let t = now () in
      ep.send buf 0 w.size;
      Hist.record sp.send (now () - t)
    end
    else ep.send buf 0 w.size
  in
  let close (ep : Rungs.ep) ~traced =
    let t = now () in
    ep.close ();
    if traced then Hist.record sp.close (now () - t)
  in
  (try
     match w.kind with
     | Stream ->
       let ep = connect ~traced:segs.(0).traced in
       let bufs = Array.init w.burst (fun _ -> Payload.fresh spec) in
       let entries = Array.map (fun b -> (b, 0, w.size)) bufs in
       let shift = lat_shift w in
       let lmask = (1 lsl shift) - 1 in
       let i = ref 0 in
       for s = 0 to nsegs - 1 do
         enter sh s;
         let { dur_ns; traced; _ } = segs.(s) in
         let deadline = now () + dur_ns in
         let go = ref true in
         while !go do
           for k = 0 to w.burst - 1 do
             let seq = seq_of inject (!i + k) in
             Payload.stamp spec bufs.(k) seq;
             corrupt inject seq bufs.(k)
           done;
           handing ();
           let t = now () in
           for k = 0 to w.burst - 1 do
             let seq = seq_of inject (!i + k) in
             if seq land lmask = 0 then sh.sent_at.(sent_slot ~shift seq) <- t
           done;
           if w.burst = 1 then ep.send bufs.(0) 0 w.size else ep.send_burst entries w.burst;
           let t' = now () in
           for k = 0 to w.burst - 1 do
             corrupt inject (seq_of inject (!i + k)) bufs.(k)
           done;
           if traced then Hist.record sp.send (t' - t);
           i := !i + w.burst;
           attempted := !attempted + w.burst;
           if t' >= deadline then go := false
         done
       done;
       Atomic.set sh.cur nsegs;
       close ep ~traced:segs.(nsegs - 1).traced
     | Rpc ->
       let ep = connect ~traced:segs.(0).traced in
       let buf = Payload.fresh spec in
       (* Each request goes out as a one-message burst, so Batch_ctl sits on
          the path with nothing to amortise. *)
       let one = [| (buf, 0, w.size) |] in
       let i = ref 0 in
       for s = 0 to nsegs - 1 do
         enter sh s;
         let { dur_ns; traced; measured } = segs.(s) in
         let deadline = now () + dur_ns in
         let go = ref true in
         while !go do
           let seq = seq_of inject !i in
           Payload.stamp spec buf seq;
           corrupt inject seq buf;
           handing ();
           let t = now () in
           ep.send_burst one 1;
           if traced then Hist.record sp.send (now () - t);
           corrupt inject seq buf;
           incr attempted;
           if not (await_reply ep reply rbuf ~traced sp) then raise Exit;
           let t' = now () in
           if measured && not traced then Hist.record sp.lat (t' - t);
           tick_at cprog ~seg:s t';
           incr i;
           if t' >= deadline then go := false
         done
       done;
       Atomic.set sh.cur nsegs;
       close ep ~traced:segs.(nsegs - 1).traced;
       drain ep rbuf;
       if ep.poisoned () then Payload.fail fails Peer_dead 1
     | Churn ->
       let buf = Payload.fresh spec in
       let i = ref 0 in
       for s = 0 to nsegs - 1 do
         enter sh s;
         let { dur_ns; traced; measured } = segs.(s) in
         let deadline = now () + dur_ns in
         let go = ref true in
         while !go do
           let seq = seq_of inject !i in
           Payload.stamp spec buf seq;
           corrupt inject seq buf;
           let t = now () in
           let ep = connect ~traced in
           handing ();
           incr attempted;
           timed_send ep ~traced buf;
           corrupt inject seq buf;
           if not (await_reply ep reply rbuf ~traced sp) then raise Exit;
           close ep ~traced;
           drain ep rbuf;
           if ep.poisoned () then Payload.fail fails Peer_dead 1;
           let t' = now () in
           if measured && not traced then Hist.record sp.lat (t' - t);
           tick_at cprog ~seg:s t';
           incr i;
           if t' >= deadline then go := false
         done
       done;
       Atomic.set sh.cur nsegs
   with
  | Rt_sock.Peer_dead -> Payload.fail fails Peer_dead 1
  | Exit -> Payload.fail fails Short 1);
  Atomic.set sh.cur nsegs;
  checkpoint cprog ~seg:(nsegs - 1) (now ());
  rung.shutdown ();
  let wo = Domain.join d in
  (* Reconcile what the client handed over with what the peers saw. *)
  let expected = seq_of inject !attempted in
  Payload.finish wo.w_checker ~expected;
  Payload.add_fails ~dst:fails wo.w_checker.fails;
  (match w.kind with
  | Stream -> ()
  | Rpc | Churn ->
    Payload.finish reply ~expected;
    Payload.add_fails ~dst:fails reply.fails);
  merge_spans ~dst:sp wo.w_sp;
  {
    fails;
    attempted = !attempted;
    prog = (match w.kind with Stream -> wo.w_prog | Rpc | Churn -> cprog);
    sp;
    setup_ns = !first_send - t_setup;
    spawn_ns = wo.w_started - t_spawn;
    register_ns = wo.w_register_ns;
    minor_words = Gc.minor_words () -. minor0 +. wo.w_minor;
  }
