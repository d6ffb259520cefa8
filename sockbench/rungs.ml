(* The layer ladder: the same connection surface built five ways, each rung
   adding one layer of the real-domain stack on top of the previous one.

     ring   two Spsc_ring (one per direction), inline records only
     pool   + a staging Pagepool per direction: payloads >= the socket's
            zero-copy threshold cross as page-descriptor records
     token  + an Rt_token per queue direction around every operation
     sock   Rt_sock.pair (adds poisoning, page adoption, Batch_ctl, byte
            accounting), connections handed to the worker by a mailbox
     full   Rt_monitor connect/dispatch/accept in place of the mailbox

   The workload drivers only see [ep] and [rung], so every rung carries
   byte-identical traffic; the difference between two adjacent rungs is the
   cost of the layer between them.  The ring/pool/token rungs mirror the
   socket's own record handling (inline copy or descriptor record, FIN as an
   empty flagged record, batched credit return) without its crash-safety
   machinery. *)

module R = Sds_ring.Spsc_ring
module Pp = Sds_vm.Pagepool
module Waiter = Sds_notify.Waiter
module Rt_dom = Sds_rt.Rt_dom
module Rt_token = Sds_rt.Rt_token
module Rt_sock = Sds_rt.Rt_sock
module Rt_monitor = Sds_rt.Rt_monitor

type ep = {
  send : Bytes.t -> int -> int -> unit;  (** [send buf off len], blocking *)
  send_burst : (Bytes.t * int * int) array -> int -> unit;
  recv : Bytes.t -> int;  (** next chunk into the buffer at 0; 0 at EOF *)
  close : unit -> unit;  (** EOF, then hand back tokens *)
  release : unit -> unit;  (** hand back tokens without EOF *)
  poisoned : unit -> bool;
}

type rung = {
  register : unit -> unit;  (** worker domain, once, before accepting *)
  ready : unit -> bool;  (** the worker has registered *)
  connect : dom:int -> ep;  (** client side *)
  accept : dom:int -> ep option;  (** worker side, blocking; [None] once shut *)
  shutdown : unit -> unit;
}

let names = [ "ring"; "pool"; "token"; "sock"; "full" ]

(* A receive buffer that holds any record the socket may deliver. *)
let recv_buf_size = max Rt_sock.max_inline (Rt_sock.max_desc_per_record * Pp.page_size)
let ring_size = 64 * 1024
let pool_pages = 512

(* ---- ring / pool / token endpoints ---- *)

type dir = { ring : R.t; pool : Pp.t option }

let[@inline] return_pending ring =
  let c = R.take_credit_return ring in
  if c > 0 then R.return_credits ring c

let enqueue_inline ring buf ~off ~len =
  while not (R.try_enqueue ring buf ~off ~len) do
    R.wait_tx ring ~len
  done

(* Stage [len] bytes into pool pages and publish one descriptor record;
   [false] on pool exhaustion (the caller copies inline instead). *)
let enqueue_desc ring pool pages stage buf ~off ~len =
  let h = Pp.domain_handle pool in
  let npages = (len + Pp.page_size - 1) / Pp.page_size in
  let got = ref 0 in
  while !got < npages && (pages.(!got) <- Pp.alloc h; pages.(!got) <> Pp.no_page) do
    incr got
  done;
  if !got < npages then begin
    for i = 0 to !got - 1 do
      Pp.release h pages.(i)
    done;
    false
  end
  else begin
    for i = 0 to npages - 1 do
      let o = i * Pp.page_size in
      let chunk = min Pp.page_size (len - o) in
      Pp.blit_from_bytes pool ~src:buf ~src_off:(off + o) ~page:pages.(i) ~off:0 ~len:chunk;
      stage.(i) <- R.desc_entry ~page:pages.(i) ~off:0 ~len:chunk
    done;
    while not (R.try_enqueue_descs ring stage ~n:npages) do
      R.wait_tx ring ~len:(8 * npages)
    done;
    true
  end

let raw_send tx pages stage buf off len =
  let pos = ref off in
  while !pos < off + len do
    let rem = off + len - !pos in
    let sent =
      match tx.pool with
      | Some pool when rem >= Rt_sock.zc_threshold ->
        let chunk = min rem (Rt_sock.max_desc_per_record * Pp.page_size) in
        if enqueue_desc tx.ring pool pages stage buf ~off:!pos ~len:chunk then chunk else 0
      | _ -> 0
    in
    let sent =
      if sent > 0 then sent
      else begin
        (* A bare ring carries whole messages inline (up to half the ring);
           with a pool present the fallback copies in socket-sized chunks. *)
        let chunk = if Option.is_none tx.pool then rem else min rem Rt_sock.max_inline in
        enqueue_inline tx.ring buf ~off:!pos ~len:chunk;
        chunk
      end
    in
    pos := !pos + sent
  done

let raw_send_burst tx srcs n =
  let sent = ref 0 in
  while !sent < n do
    let attempt =
      if !sent = 0 && n = Array.length srcs then srcs else Array.sub srcs !sent (n - !sent)
    in
    let k = R.enqueue_batch tx.ring attempt in
    if k = 0 then begin
      let _, _, l = srcs.(!sent) in
      R.wait_tx tx.ring ~len:l
    end;
    sent := !sent + k
  done

let raw_recv rx descs fin dst =
  if !fin then 0
  else begin
    let ring = rx.ring in
    let rec go () =
      let p = R.peek_packed ring in
      if p = R.no_msg then begin
        R.wait_rx ring;
        go ()
      end
      else if R.is_desc_packed p then begin
        let pool = Option.get rx.pool in
        let q = R.try_dequeue_descs ring ~entries:descs in
        let h = Pp.domain_handle pool in
        let pos = ref 0 in
        for i = 0 to R.desc_count_packed q - 1 do
          let e = descs.(i) in
          Pp.blit_to_bytes pool ~page:(R.desc_page e) ~off:(R.desc_off e) ~dst ~dst_off:!pos
            ~len:(R.desc_len e);
          pos := !pos + R.desc_len e;
          Pp.release h (R.desc_page e)
        done;
        return_pending ring;
        !pos
      end
      else if R.packed_flags p land Rt_sock.flag_fin <> 0 then begin
        ignore (R.try_dequeue_packed ring ~dst ~dst_off:0);
        fin := true;
        return_pending ring;
        0
      end
      else begin
        let q = R.try_dequeue_packed ring ~dst ~dst_off:0 in
        if q = R.no_msg then go ()
        else begin
          return_pending ring;
          R.packed_len q
        end
      end
    in
    go ()
  end

let fin_scratch = Bytes.create 0

(* One endpoint over [tx]/[rx]; with [tokens], every operation runs under
   the direction's token, as the socket does.  [owner] is the slot whose
   tokens start held ([-1]: free, taken by the first operator). *)
let raw_ep ~tokens ~owner ~dom tx rx =
  let pages = Array.make Rt_sock.max_desc_per_record 0 in
  let stage = Array.make Rt_sock.max_desc_per_record 0 in
  let descs = Array.make Rt_sock.max_desc_per_record 0 in
  let fin = ref false in
  let send buf off len = raw_send tx pages stage buf off len in
  let send_burst srcs n = raw_send_burst tx srcs n in
  let recv dst = raw_recv rx descs fin dst in
  let close () =
    while not (R.try_enqueue ~flags:Rt_sock.flag_fin tx.ring fin_scratch ~off:0 ~len:0) do
      R.wait_tx tx.ring ~len:0
    done
  in
  if not tokens then
    { send; send_burst; recv; close; release = ignore; poisoned = (fun () -> false) }
  else begin
    let st = Rt_token.create ~name:"send" ~holder:owner () in
    let rt = Rt_token.create ~name:"recv" ~holder:owner () in
    let release () =
      Rt_token.release st ~dom;
      Rt_token.release rt ~dom
    in
    {
      send = (fun buf off len -> Rt_token.with_held st ~dom (fun () -> send buf off len));
      send_burst = (fun srcs n -> Rt_token.with_held st ~dom (fun () -> send_burst srcs n));
      recv = (fun dst -> Rt_token.with_held rt ~dom (fun () -> recv dst));
      close =
        (fun () ->
          Rt_token.with_held st ~dom close;
          release ());
      release;
      poisoned = (fun () -> false);
    }
  end

let sock_ep s ~dom =
  {
    send = (fun buf off len -> Rt_sock.send s ~dom buf ~off ~len);
    send_burst = (fun srcs n -> Rt_sock.send_burst s ~dom srcs ~n);
    recv = (fun dst -> Rt_sock.recv s ~dom dst ~off:0 ~len:(Bytes.length dst));
    close = (fun () -> Rt_sock.close s ~dom);
    release = (fun () -> Rt_sock.release_tokens s ~dom);
    poisoned = (fun () -> Rt_sock.poisoned s);
  }

(* ---- the mailbox: the benchmark's own minimal accept path ----

   Rungs below the monitor hand the server end of each new connection to
   the worker through a mutex-guarded queue and the worker's Rt_dom waiter
   — the least a connection handoff needs, so [full - sock] is what the
   monitor costs on top of it. *)

type mailbox = {
  mu : Mutex.t;
  q : (int -> ep) Queue.t;  (** server ends, built for the accepting slot *)
  pending : int Atomic.t;
  closed : bool Atomic.t;
  worker : int Atomic.t;  (** the worker's Rt_dom slot, -1 until registered *)
}

let mailbox_rung make_pair =
  let mb =
    { mu = Mutex.create (); q = Queue.create (); pending = Atomic.make 0;
      closed = Atomic.make false; worker = Atomic.make (-1) }
  in
  let connect ~dom =
    let client, server = make_pair ~dom in
    Mutex.lock mb.mu;
    Queue.push server mb.q;
    Atomic.incr mb.pending;
    Mutex.unlock mb.mu;
    Waiter.notify (Rt_dom.waiter (Atomic.get mb.worker));
    client
  in
  let rec accept ~dom =
    Mutex.lock mb.mu;
    let r = Queue.take_opt mb.q in
    if Option.is_some r then Atomic.decr mb.pending;
    Mutex.unlock mb.mu;
    match r with
    | Some server -> Some (server dom)
    | None ->
      if Atomic.get mb.closed then None
      else begin
        Waiter.wait (Rt_dom.waiter dom) ~ready:(fun () ->
            Atomic.get mb.pending > 0 || Atomic.get mb.closed);
        accept ~dom
      end
  in
  {
    register = (fun () -> Atomic.set mb.worker (Rt_dom.self ()));
    ready = (fun () -> Atomic.get mb.worker >= 0);
    connect;
    accept;
    shutdown =
      (fun () ->
        Atomic.set mb.closed true;
        let w = Atomic.get mb.worker in
        if w >= 0 then Waiter.notify (Rt_dom.waiter w));
  }

let raw_pair ~pool ~tokens ~dom =
  let dir () =
    { ring = R.create ~size:ring_size ();
      pool = (if pool then Some (Pp.create ~pages:pool_pages ()) else None) }
  in
  let ab = dir () and ba = dir () in
  let client = raw_ep ~tokens ~owner:dom ~dom ab ba in
  (client, fun sdom -> raw_ep ~tokens ~owner:(-1) ~dom:sdom ba ab)

let sock_pair ~dom =
  let c, s = Rt_sock.pair ~ring_size ~pool_pages ~a_owner:dom ~b_owner:(-1) () in
  (sock_ep c ~dom, fun sdom -> sock_ep s ~dom:sdom)

let monitor_rung () =
  let mon = Rt_monitor.create ~ring_size ~pool_pages ~workers:1 () in
  {
    register = (fun () -> ignore (Rt_monitor.register mon ~index:0));
    ready = (fun () -> Rt_monitor.registered mon >= 1);
    connect = (fun ~dom -> sock_ep (Rt_monitor.connect mon ~dom) ~dom);
    accept =
      (fun ~dom -> Option.map (fun s -> sock_ep s ~dom) (Rt_monitor.accept mon ~index:0));
    shutdown = (fun () -> Rt_monitor.close_listener mon);
  }

(* A fresh instance of the named rung (one listener per session). *)
let make = function
  | "ring" -> mailbox_rung (raw_pair ~pool:false ~tokens:false)
  | "pool" -> mailbox_rung (raw_pair ~pool:true ~tokens:false)
  | "token" -> mailbox_rung (raw_pair ~pool:true ~tokens:true)
  | "sock" -> mailbox_rung sock_pair
  | "full" -> monitor_rung ()
  | n -> invalid_arg ("Rungs.make: " ^ n)
