(* Real-domain sockets: the §4.2 per-connection queue pair on actual OCaml
   domains, wired through the existing ring + notify + pagepool stack.

   One connection = two SPSC rings (one per direction) + one staging
   [Pagepool] per direction for the §4.6 descriptor path + four
   [Rt_token]s (a send and a recv token per endpoint).  Small payloads
   travel inline in ring records; payloads >= [zc_threshold] are staged
   into pool pages and cross the ring as page-descriptor records — an
   ownership handoff, no payload byte through the ring.

   Records are stream chunks.  A zero-length record flagged [flag_fin]
   carries EOF.  The receiver returns the ring's batched credits and, on
   descriptor records, releases the pages after landing the payload.

   Every endpoint pair registers in a process-wide registry: the
   [rt_conn] flight-recorder section shows owners, ring occupancy and byte
   counts per connection — the "ring-pair registry per domain pair".

   Crash compatibility (§4.3): both endpoints of a pair share one poison
   flag.  When an involved domain dies ([Rt_dom.on_death] hook below), the
   connection is poisoned and every parked waiter kicked: blocking
   operations on either end raise [Peer_dead] (EPIPE on send, ECONNRESET
   on recv) instead of hanging, and in-flight staging pages of the dead
   incarnation are reclaimed ([Pagepool.reclaim_owner]).  Receivers adopt
   descriptor pages before touching the payload, so reclamation and
   consumption arbitrate through the page's owner cell — exactly one
   wins.  Every blocking park is bounded, so the exit path does not
   depend on any notify arriving. *)

module R = Sds_ring.Spsc_ring
module Pp = Sds_vm.Pagepool
module Waiter = Sds_notify.Waiter
module Batch_ctl = Sds_proto.Batch_ctl
module Obs = Sds_obs.Obs

exception Peer_dead

let flag_fin = 0x200
let max_inline = 8 * 1024

(* §4.6 copy/zero-copy crossover, same resting point as [Copy_policy]. *)
let zc_threshold = 16 * 1024

(* Pages per descriptor record: bounds one record at 32 KiB of payload, so
   receive buffers stay small; larger sends split into several records. *)
let max_desc_per_record = 8

let m_sends = Obs.Metrics.counter "rt.sends"
let m_recvs = Obs.Metrics.counter "rt.recvs"
let m_desc_sends = Obs.Metrics.counter "rt.desc_sends"
let m_pool_fallbacks = Obs.Metrics.counter "rt.pool_fallbacks"
let m_poisoned = Obs.Metrics.counter "rt.poisoned"

(* One direction of an endpoint.  [handle] is this endpoint's own page
   cache on [pool]: the send token guards the tx one, the recv token the rx
   one, like the scratch arrays below.  Owned by the endpoint rather than
   by a domain, it dies with the connection and takes the pool with it. *)
type dir = { ring : R.t; pool : Pp.t; handle : Pp.handle }

type t = {
  tx : dir;
  rx : dir;
  send_tok : Rt_token.t;
  recv_tok : Rt_token.t;
  batch : Batch_ctl.t;
  pool_w : Waiter.t;  (** paces a sender on a dry pool, token-guarded *)
  stage : int array;  (** send-side descriptor staging, token-guarded *)
  pages : int array;  (** page ids being staged, token-guarded *)
  descs : int array;  (** recv-side descriptor scratch, token-guarded *)
  mutable bytes_sent : int;  (** guarded by [send_tok] *)
  mutable bytes_received : int;  (** guarded by [recv_tok] *)
  mutable fin_rx : bool;  (** guarded by [recv_tok] *)
  mutable fin_tx : bool;  (** guarded by [send_tok] *)
  cid : int;
  peer_slot : int;
  dead : bool Atomic.t;  (** the poison flag, shared by both endpoints *)
  mutable peer : t option;  (** the other endpoint; set by [pair] *)
  mutable op_slot : int;  (** last slot to operate this end (racy; init owner) *)
}

(* Polls a sender spends on a dry pool before it naps.  The receiver hands
   pages back 64 at a time ([Pagepool] spills), about once per 16 messages
   of 16 KiB, while the records already queued keep it busy for far
   longer; a sender spinning through that gap only slows the receiver,
   whose page and ring cache lines it keeps reading. *)
let pool_spin = 32

(* ---- connection registry (flight recorder / tests) ---- *)

let reg_mu = Mutex.create ()
let reg : t Weak.t = Weak.create 1024
let cid_counter = ref 0

let register t =
  Mutex.lock reg_mu;
  (try
     let placed = ref false in
     for i = 0 to Weak.length reg - 1 do
       if (not !placed) && Weak.get reg i = None then begin
         Weak.set reg i (Some t);
         placed := true
       end
     done
   with e ->
     Mutex.unlock reg_mu;
     raise e);
  Mutex.unlock reg_mu

let render_conns () =
  let b = Buffer.create 256 in
  Mutex.lock reg_mu;
  for i = 0 to Weak.length reg - 1 do
    match Weak.get reg i with
    | None -> ()
    | Some t ->
      Buffer.add_string b
        (Printf.sprintf
           "conn#%d peer_slot=%d op_slot=%d tx_used=%d rx_used=%d sent=%d received=%d \
            fin_tx=%b fin_rx=%b poisoned=%b\n"
           t.cid t.peer_slot t.op_slot (R.used t.tx.ring) (R.used t.rx.ring) t.bytes_sent
           t.bytes_received t.fin_tx t.fin_rx (Atomic.get t.dead))
  done;
  Mutex.unlock reg_mu;
  Buffer.contents b

let () = Sds_obs.Flight.register_state "rt_conn" render_conns

(* ---- construction ---- *)

let endpoint ~ring_size ~pool_pages ~owner ~peer_slot ~tx_ring ~tx_pool ~rx_ring ~rx_pool
    ~dead =
  ignore ring_size;
  ignore pool_pages;
  incr cid_counter;
  let t =
    {
      tx = { ring = tx_ring; pool = tx_pool; handle = Pp.handle tx_pool };
      rx = { ring = rx_ring; pool = rx_pool; handle = Pp.handle rx_pool };
      send_tok = Rt_token.create ~name:"send" ~holder:owner ();
      recv_tok = Rt_token.create ~name:"recv" ~holder:owner ();
      batch = Batch_ctl.create ();
      pool_w = Waiter.create ~spin:pool_spin ~adaptive:false ();
      stage = Array.make max_desc_per_record 0;
      pages = Array.make max_desc_per_record 0;
      descs = Array.make max_desc_per_record 0;
      bytes_sent = 0;
      bytes_received = 0;
      fin_rx = false;
      fin_tx = false;
      cid = !cid_counter;
      peer_slot;
      dead;
      peer = None;
      op_slot = owner;
    }
  in
  register t;
  t

(* A connected endpoint pair: [a]'s tx ring is [b]'s rx ring and vice
   versa; each direction's staging pool is shared by its sender (alloc +
   blit) and receiver (blit + release). *)
let pair ?(ring_size = 64 * 1024) ?(pool_pages = 512) ~a_owner ~b_owner () =
  let ab = R.create ~size:ring_size () in
  let ba = R.create ~size:ring_size () in
  let pool_ab = Pp.create ~pages:pool_pages () in
  let pool_ba = Pp.create ~pages:pool_pages () in
  let dead = Atomic.make false in
  let a =
    endpoint ~ring_size ~pool_pages ~owner:a_owner ~peer_slot:b_owner ~tx_ring:ab
      ~tx_pool:pool_ab ~rx_ring:ba ~rx_pool:pool_ba ~dead
  in
  let b =
    endpoint ~ring_size ~pool_pages ~owner:b_owner ~peer_slot:a_owner ~tx_ring:ba
      ~tx_pool:pool_ba ~rx_ring:ab ~rx_pool:pool_ab ~dead
  in
  a.peer <- Some b;
  b.peer <- Some a;
  (a, b)

let bytes_sent t = t.bytes_sent
let bytes_received t = t.bytes_received

(* ---- poison (peer death) ---- *)

let poisoned t = Atomic.get t.dead

(* Declare the connection dead and kick everyone out of their parks: both
   rings' rx/tx waiters and every slot parked on the four tokens.  The
   kicked waiters re-check their (poison-aware) conditions and raise
   [Peer_dead].  Idempotent; the flag is shared, so poisoning either
   endpoint poisons the pair. *)
let poison t =
  if not (Atomic.exchange t.dead true) then Obs.Metrics.incr m_poisoned;
  Waiter.notify (R.rx_waiter t.tx.ring);
  Waiter.notify (R.tx_waiter t.tx.ring);
  Waiter.notify (R.rx_waiter t.rx.ring);
  Waiter.notify (R.tx_waiter t.rx.ring);
  Rt_token.kick t.send_tok;
  Rt_token.kick t.recv_tok;
  match t.peer with
  | Some p ->
    Rt_token.kick p.send_tok;
    Rt_token.kick p.recv_tok
  | None -> ()

let[@inline] check_poison t = if Atomic.get t.dead then raise Peer_dead

(* Bounded poison-aware parks: the ready conditions are the ring's own
   progress conditions *or* poison, and the deadline bounds the silence
   window even if every notify is lost.  Deadlines are raw monotonic time,
   the clock [Waiter.wait_until] checks them against. *)
let park_window_ns = 10_000_000

let wait_tx_p t ~len =
  check_poison t;
  let ring = t.tx.ring in
  let need = R.record_bytes len in
  ignore
    (Waiter.wait_until (R.tx_waiter ring)
       ~deadline_ns:(Sds_obs.Span.monotonic_ns () + park_window_ns)
       ~ready:(fun () -> Atomic.get t.dead || R.credits ring >= need))

let wait_rx_p t =
  check_poison t;
  let ring = t.rx.ring in
  ignore
    (Waiter.wait_until (R.rx_waiter ring)
       ~deadline_ns:(Sds_obs.Span.monotonic_ns () + park_window_ns)
       ~ready:(fun () -> Atomic.get t.dead || not (R.is_empty ring)))

(* The pool has fewer than [npages] pages for [h]: wait for the receiver
   to release some, within the same bounded window as a credit wait, but
   with [pool_spin] polls before the naps.  The wait ends early once the
   tx ring is empty, since no page is in flight then and none will come
   back (the rest sit in handle caches). *)
let wait_pool_p t h ~npages =
  check_poison t;
  let ring = t.tx.ring in
  ignore
    (Waiter.wait_until t.pool_w
       ~deadline_ns:(Sds_obs.Span.monotonic_ns () + park_window_ns)
       ~ready:(fun () -> Atomic.get t.dead || Pp.available h >= npages || R.is_empty ring));
  check_poison t

(* ---- send ---- *)

(* Return the ring's batched credits owed by the consumer side. *)
let[@inline] return_pending ring =
  let c = R.take_credit_return ring in
  if c > 0 then R.return_credits ring c

(* Stage [len] bytes from [buf] into pool pages and enqueue them as one
   descriptor record.  A short pool is waited for first, as a full ring
   is: a sender that outruns its receiver paces itself on page releases
   instead of switching to inline copies that queue behind every record
   still in flight.  False when the pool is still exhausted after the
   wait (caller falls back to the inline-copy path — the Libra
   fallback).  Pages are stamped with the sending slot so
   [reclaim_owner] can find them if we die between allocation and the
   receiver's adoption. *)
let send_desc_record t ~dom buf ~off ~len =
  let h = t.tx.handle in
  Pp.set_owner h dom;
  let npages = (len + Pp.page_size - 1) / Pp.page_size in
  if Pp.available h < npages then wait_pool_p t h ~npages;
  let got = ref 0 in
  let ok = ref true in
  while !ok && !got < npages do
    let p = Pp.alloc h in
    if p = Pp.no_page then ok := false
    else begin
      t.pages.(!got) <- p;
      incr got
    end
  done;
  if not !ok then begin
    for i = 0 to !got - 1 do
      Pp.release h t.pages.(i)
    done;
    Obs.Metrics.incr m_pool_fallbacks;
    false
  end
  else begin
    for i = 0 to npages - 1 do
      let chunk_off = i * Pp.page_size in
      let chunk = min Pp.page_size (len - chunk_off) in
      Pp.blit_from_bytes t.tx.pool ~src:buf ~src_off:(off + chunk_off) ~page:t.pages.(i)
        ~off:0 ~len:chunk;
      t.stage.(i) <- R.desc_entry ~page:t.pages.(i) ~off:0 ~len:chunk
    done;
    (* Chaos site: die holding filled, unpublished pages — only
       [reclaim_owner] can get them back. *)
    if Sds_fault.armed () then Sds_fault.inject "rt_sock.holding_pages";
    while not (R.try_enqueue_descs t.tx.ring t.stage ~n:npages) do
      wait_tx_p t ~len:(8 * npages)
    done;
    Obs.Metrics.incr m_desc_sends;
    true
  end

let send_locked t ~dom buf ~off ~len =
  if t.fin_tx then invalid_arg "Rt_sock.send: after close";
  check_poison t;
  let pos = ref off in
  let remaining = ref len in
  while !remaining > 0 do
    let sent =
      if !remaining >= zc_threshold then begin
        let chunk = min !remaining (max_desc_per_record * Pp.page_size) in
        if send_desc_record t ~dom buf ~off:!pos ~len:chunk then chunk else 0
      end
      else 0
    in
    let sent =
      if sent > 0 then sent
      else begin
        (* Inline copy path (small payload, or pool exhausted). *)
        let chunk = min !remaining max_inline in
        while not (R.try_enqueue t.tx.ring buf ~off:!pos ~len:chunk) do
          wait_tx_p t ~len:chunk
        done;
        chunk
      end
    in
    pos := !pos + sent;
    remaining := !remaining - sent;
    (* Chaos site: die between the records of one streamed payload. *)
    if !remaining > 0 && Sds_fault.armed () then Sds_fault.inject "rt_sock.mid_publish"
  done;
  t.bytes_sent <- t.bytes_sent + len;
  Obs.Metrics.incr m_sends

let send t ~dom buf ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length buf then invalid_arg "Rt_sock.send";
  t.op_slot <- dom;
  Rt_token.with_held t.send_tok ~dom (fun () -> send_locked t ~dom buf ~off ~len)

(* Vectored small-message send under one token hold: each enqueue_batch is
   bounded by the shared §4.5 [Batch_ctl] budget; the in-flight batch is
   drained before the operation boundary, where a posted takeover is
   served. *)
let send_burst t ~dom srcs ~n =
  if n < 0 || n > Array.length srcs then invalid_arg "Rt_sock.send_burst";
  t.op_slot <- dom;
  Rt_token.with_held t.send_tok ~dom (fun () ->
      if t.fin_tx then invalid_arg "Rt_sock.send_burst: after close";
      check_poison t;
      let sent = ref 0 in
      let bytes = ref 0 in
      while !sent < n do
        let want = min (Batch_ctl.budget t.batch) (n - !sent) in
        let attempt =
          if !sent = 0 && want = n && want = Array.length srcs then srcs
          else Array.sub srcs !sent want
        in
        let k = R.enqueue_batch t.tx.ring attempt in
        Batch_ctl.observe t.batch ~sent:k ~attempted:want ~pressure:(!sent + want < n);
        if k = 0 then begin
          let _, _, l = srcs.(!sent) in
          wait_tx_p t ~len:l
        end
        else
          for i = !sent to !sent + k - 1 do
            let _, _, l = srcs.(i) in
            bytes := !bytes + l
          done;
        sent := !sent + k
      done;
      t.bytes_sent <- t.bytes_sent + !bytes;
      Obs.Metrics.incr m_sends)

(* ---- recv ---- *)

(* Receive the next stream chunk into [dst]; 0 on EOF.  [dst] must hold a
   whole record: >= [max_inline] for inline records, >= the payload of one
   descriptor record (<= [max_desc_per_record] pages) on connections
   carrying zero-copy traffic. *)
let recv_locked t ~dom dst ~off =
  if t.fin_rx then 0
  else begin
    check_poison t;
    let ring = t.rx.ring in
    let rec go () =
      let p = R.peek_packed ring in
      if p = R.no_msg then begin
        wait_rx_p t;
        go ()
      end
      else if R.is_desc_packed p then begin
        let q = R.try_dequeue_descs ring ~entries:t.descs in
        if q = R.no_msg then go ()
        else begin
          let cnt = R.desc_count_packed q in
          let h = t.rx.handle in
          Pp.set_owner h dom;
          (* Adopt every page of the record before touching any payload:
             once adopted, a crash of the sender cannot reclaim it out
             from under us.  Adoption failing means the reclaimer already
             won — the payload is gone with its owner. *)
          let adopted = ref 0 in
          while
            !adopted < cnt
            && Pp.try_adopt t.rx.pool ~page:(R.desc_page t.descs.(!adopted)) ~owner:dom
          do
            incr adopted
          done;
          if !adopted < cnt then begin
            for i = 0 to !adopted - 1 do
              Pp.release h (R.desc_page t.descs.(i))
            done;
            return_pending ring;
            poison t;
            raise Peer_dead
          end;
          let pos = ref off in
          for i = 0 to cnt - 1 do
            let e = t.descs.(i) in
            let elen = R.desc_len e in
            Pp.blit_to_bytes t.rx.pool ~page:(R.desc_page e) ~off:(R.desc_off e) ~dst
              ~dst_off:!pos ~len:elen;
            pos := !pos + elen;
            Pp.release h (R.desc_page e)
          done;
          return_pending ring;
          !pos - off
        end
      end
      else if R.packed_flags p land flag_fin <> 0 then begin
        ignore (R.try_dequeue_packed ring ~dst ~dst_off:off);
        t.fin_rx <- true;
        return_pending ring;
        0
      end
      else begin
        let q = R.try_dequeue_packed ring ~dst ~dst_off:off in
        if q = R.no_msg then go ()
        else begin
          return_pending ring;
          R.packed_len q
        end
      end
    in
    let n = go () in
    if n > 0 then begin
      t.bytes_received <- t.bytes_received + n;
      Obs.Metrics.incr m_recvs
    end;
    n
  end

let recv t ~dom dst ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length dst then invalid_arg "Rt_sock.recv";
  t.op_slot <- dom;
  Rt_token.with_held t.recv_tok ~dom (fun () -> recv_locked t ~dom dst ~off)

(* ---- shutdown ---- *)

let fin_scratch = Bytes.create 0

(* On a poisoned pair, close degenerates to releasing the tokens (like
   close(2) on a reset socket: succeeds, nothing to send to). *)
let close t ~dom =
  (if not (Atomic.get t.dead) then
     try
       Rt_token.with_held t.send_tok ~dom (fun () ->
           if not t.fin_tx then begin
             t.fin_tx <- true;
             while not (R.try_enqueue ~flags:flag_fin t.tx.ring fin_scratch ~off:0 ~len:0) do
               wait_tx_p t ~len:0
             done
           end)
     with Peer_dead -> ());
  Rt_token.release t.send_tok ~dom;
  Rt_token.release t.recv_tok ~dom

(* Ownership declaration without an operation: an acceptor that popped
   this endpoint from a backlog is involved in it from that instant —
   if it dies before its first send/recv, recovery must still poison the
   pair. *)
let claim t ~dom = t.op_slot <- dom

(* Cooperative-hold contract: a domain done operating this endpoint hands
   its tokens back so a later owner takes them without arbitration. *)
let release_tokens t ~dom =
  Rt_token.release t.send_tok ~dom;
  Rt_token.release t.recv_tok ~dom

let send_token t = t.send_tok
let recv_token t = t.recv_tok
let at_eof t = t.fin_rx

(* ---- crash recovery hook ----------------------------------------------

   Runs after [Rt_token]'s reap hook (registration order = module
   dependency order), so by the time a connection is poisoned its tokens
   are already live-or-free.  Involvement is judged from the slots that
   actually operated each end (plus the configured peer slot); poisoning
   first, reclaiming second, so a survivor kicked out of a park observes
   poison before it could go look for more descriptors, and pages the
   survivor already adopted are out of the reclaimer's reach. *)

let reap_conns slot =
  let live = ref [] in
  Mutex.lock reg_mu;
  for i = 0 to Weak.length reg - 1 do
    match Weak.get reg i with Some t -> live := t :: !live | None -> ()
  done;
  Mutex.unlock reg_mu;
  List.iter
    (fun t ->
      let involved =
        t.op_slot = slot || t.peer_slot = slot
        || (match t.peer with Some p -> p.op_slot = slot | None -> false)
      in
      if involved then begin
        poison t;
        ignore (Pp.reclaim_owner t.tx.pool ~owner:slot);
        ignore (Pp.reclaim_owner t.rx.pool ~owner:slot)
      end)
    !live

let () = Rt_dom.on_death reap_conns
