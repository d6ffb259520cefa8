(* Tests for the simulated virtual-memory subsystem: pages, copy-on-write,
   pools and the page-return protocol, buffer spaces. *)

open Sds_vm

let test_page_write_read () =
  let p = Page.create ~owner:1 in
  let src = Bytes.of_string "hello-page" in
  let p', copied = Page.write p ~off:100 ~src ~src_off:0 ~len:10 in
  Alcotest.(check bool) "no COW on private page" false copied;
  Alcotest.(check bool) "same page" true (p == p');
  let dst = Bytes.create 10 in
  Page.read p ~off:100 ~dst ~dst_off:0 ~len:10;
  Alcotest.(check string) "content" "hello-page" (Bytes.to_string dst)

let test_page_cow () =
  let p = Page.create ~owner:1 in
  let original = Bytes.of_string "original" in
  ignore (Page.write p ~off:0 ~src:original ~src_off:0 ~len:8);
  (* Share it (sender marks COW before handing to the receiver). *)
  Page.share p;
  Alcotest.(check int) "refcount 2" 2 p.Page.refcount;
  (* Writing now must copy, leaving the shared original intact. *)
  let fresh, copied = Page.write p ~off:0 ~src:(Bytes.of_string "modified") ~src_off:0 ~len:8 in
  Alcotest.(check bool) "COW triggered" true copied;
  Alcotest.(check bool) "new page" true (fresh != p);
  let dst = Bytes.create 8 in
  Page.read p ~off:0 ~dst ~dst_off:0 ~len:8;
  Alcotest.(check string) "original preserved" "original" (Bytes.to_string dst);
  Page.read fresh ~off:0 ~dst ~dst_off:0 ~len:8;
  Alcotest.(check string) "copy modified" "modified" (Bytes.to_string dst);
  Alcotest.(check int) "old page deref'd" 1 p.Page.refcount

let test_page_write_after_last_unref () =
  let p = Page.create ~owner:1 in
  Page.share p;
  Page.unref p;
  (* Back to exclusive: write in place, no copy. *)
  let p', copied = Page.write p ~off:0 ~src:(Bytes.of_string "x") ~src_off:0 ~len:1 in
  Alcotest.(check bool) "no copy when exclusive again" false copied;
  Alcotest.(check bool) "same page" true (p == p')

let test_pool_alloc_free () =
  let pool = Pool.create ~owner:7 ~capacity:4 in
  Alcotest.(check int) "initial" 4 (Pool.available pool);
  let p = Pool.alloc pool in
  Alcotest.(check int) "allocated" 3 (Pool.available pool);
  (match Pool.free pool p with
  | Pool.Local -> ()
  | Pool.Foreign _ -> Alcotest.fail "own page reported foreign");
  Alcotest.(check int) "returned" 4 (Pool.available pool)

let test_pool_refill_on_empty () =
  let pool = Pool.create ~owner:7 ~capacity:1 in
  let _ = Pool.alloc pool in
  let _ = Pool.alloc pool in
  Alcotest.(check int) "refilled from kernel" 1 (Pool.refills pool)

let test_pool_foreign_return () =
  let pool_a = Pool.create ~owner:1 ~capacity:2 in
  let pool_b = Pool.create ~owner:2 ~capacity:2 in
  let page = Pool.alloc pool_a in
  (* B frees A's page: must be routed back to owner 1, not pooled by B. *)
  (match Pool.free pool_b page with
  | Pool.Foreign owner -> Alcotest.(check int) "owner id" 1 owner
  | Pool.Local -> Alcotest.fail "foreign page pooled locally");
  Alcotest.(check int) "B's pool untouched" 2 (Pool.available pool_b);
  Pool.take_back pool_a page;
  Alcotest.(check int) "A recovered its page" 2 (Pool.available pool_a)

let test_pool_take_back_rejects_foreign () =
  let pool_a = Pool.create ~owner:1 ~capacity:1 in
  let pool_b = Pool.create ~owner:2 ~capacity:1 in
  let page_b = Pool.alloc pool_b in
  Alcotest.check_raises "wrong owner" (Invalid_argument "Pool.take_back: not our page")
    (fun () -> Pool.take_back pool_a page_b)

let test_pool_shared_page_not_freed_early () =
  let pool = Pool.create ~owner:1 ~capacity:2 in
  let p = Pool.alloc pool in
  Page.share p;
  (match Pool.free pool p with
  | Pool.Local -> ()
  | Pool.Foreign _ -> Alcotest.fail "unexpected foreign");
  (* Still one reference out: the page must NOT be back in the free list. *)
  Alcotest.(check int) "not pooled while shared" 1 (Pool.available pool);
  (match Pool.free pool p with Pool.Local -> () | Pool.Foreign _ -> Alcotest.fail "foreign");
  Alcotest.(check int) "pooled after last unref" 2 (Pool.available pool)

let test_space_roundtrip () =
  let sp = Space.create ~pid:11 ~pool_capacity:64 in
  let payload = Bytes.init 10_000 (fun i -> Char.chr (i mod 256)) in
  let buf = Space.buffer_of_bytes sp payload ~off:0 ~len:10_000 in
  Alcotest.(check int) "page count" 3 (Array.length buf.Space.pages);
  let back = Space.to_bytes buf in
  Alcotest.(check string) "content intact" (Bytes.to_string payload) (Bytes.to_string back)

let test_space_cow_on_write () =
  let sp = Space.create ~pid:12 ~pool_capacity:64 in
  let payload = Bytes.make 8192 'a' in
  let buf = Space.buffer_of_bytes sp payload ~off:0 ~len:8192 in
  Space.share_for_send buf;
  (* Overwrite crossing a page boundary: both touched pages must COW. *)
  let copies = Space.write sp buf ~at:4000 ~src:(Bytes.make 200 'b') ~src_off:0 ~len:200 in
  Alcotest.(check int) "two pages copied" 2 copies;
  Alcotest.(check int) "space counted them" 2 (Space.cow_copies sp);
  let back = Space.to_bytes buf in
  Alcotest.(check char) "before region" 'a' (Bytes.get back 3999);
  Alcotest.(check char) "in region" 'b' (Bytes.get back 4100);
  Alcotest.(check char) "after region" 'a' (Bytes.get back 4200)

let test_space_unmap_returns_foreign () =
  let sender = Space.create ~pid:21 ~pool_capacity:16 in
  let receiver = Space.create ~pid:22 ~pool_capacity:16 in
  let payload = Bytes.make 4096 'q' in
  let buf = Space.buffer_of_bytes sender payload ~off:0 ~len:4096 in
  (* Receiver maps the sender's page, then unmaps it: the page must be
     reported for return to pid 21. *)
  let rbuf = Space.map_received receiver buf.Space.pages ~len:4096 in
  let foreign = Space.unmap receiver rbuf in
  Alcotest.(check int) "one page to return" 1 (List.length foreign);
  (match foreign with
  | [ (owner, _) ] -> Alcotest.(check int) "owner is the sender" 21 owner
  | _ -> Alcotest.fail "expected one foreign page")

let prop_space_roundtrip =
  QCheck.Test.make ~name:"space buffer_of_bytes/to_bytes roundtrip" ~count:100
    QCheck.(string_of_size (Gen.int_range 1 20000))
    (fun s ->
      let sp = Space.create ~pid:31 ~pool_capacity:64 in
      let buf = Space.buffer_of_bytes sp (Bytes.of_string s) ~off:0 ~len:(String.length s) in
      Bytes.to_string (Space.to_bytes buf) = s)

let prop_cow_preserves_sharers =
  QCheck.Test.make ~name:"COW writes never alter the shared original" ~count:100
    QCheck.(pair (int_range 0 4000) (int_range 1 96))
    (fun (at, len) ->
      let sp = Space.create ~pid:32 ~pool_capacity:64 in
      let original = Bytes.make 4096 'o' in
      let buf = Space.buffer_of_bytes sp original ~off:0 ~len:4096 in
      (* Keep a handle on the original pages, as a receiver would. *)
      let shared_pages = Array.copy buf.Space.pages in
      Space.share_for_send buf;
      ignore (Space.write sp buf ~at ~src:(Bytes.make len 'w') ~src_off:0 ~len);
      (* The shared originals must still read all-'o'. *)
      Array.for_all
        (fun p ->
          let d = Bytes.create 4096 in
          Page.read p ~off:0 ~dst:d ~dst_off:0 ~len:4096;
          Bytes.for_all (fun c -> c = 'o') d)
        shared_pages)

(* ---- the real shared page pool (§4.6 descriptor path) ---- *)

let test_pagepool_roundtrip () =
  let t = Pagepool.create ~pages:8 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Alcotest.(check bool) "allocated a real page" true (p <> Pagepool.no_page);
  Alcotest.(check int) "refcount 1" 1 (Pagepool.refcount t p);
  let payload = Bytes.of_string "zero-copy payload" in
  Pagepool.blit_from_bytes t ~src:payload ~src_off:0 ~page:p ~off:64 ~len:17;
  let back = Bytes.create 17 in
  Pagepool.blit_to_bytes t ~page:p ~off:64 ~dst:back ~dst_off:0 ~len:17;
  Alcotest.(check string) "content intact" "zero-copy payload" (Bytes.to_string back);
  let view = Pagepool.slice t ~page:p ~off:64 ~len:17 in
  Alcotest.(check char) "slice is a live view" 'z' (Bigarray.Array1.get view 0);
  Pagepool.release h p;
  Alcotest.(check int) "all pages free again" 8 (Pagepool.free_pages t)

let test_pagepool_double_release () =
  let t = Pagepool.create ~pages:4 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Pagepool.release h p;
  Alcotest.check_raises "double release" (Invalid_argument "Pagepool.release: double release")
    (fun () -> Pagepool.release h p)

let test_pagepool_use_after_release () =
  let t = Pagepool.create ~pages:4 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Pagepool.release h p;
  Alcotest.check_raises "slice of a freed page"
    (Invalid_argument "Pagepool.slice: use after release") (fun () ->
      ignore (Pagepool.slice t ~page:p ~off:0 ~len:8));
  Alcotest.check_raises "incref of a freed page"
    (Invalid_argument "Pagepool.incref: page is free") (fun () -> Pagepool.incref t p)

let test_pagepool_incref_sharing () =
  let t = Pagepool.create ~pages:4 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  Pagepool.incref t p;
  Alcotest.(check int) "two references" 2 (Pagepool.refcount t p);
  Pagepool.release h p;
  (* One reference still out: the page must not be recycled yet. *)
  Alcotest.(check bool) "still live" true (Pagepool.refcount t p = 1);
  ignore (Pagepool.slice t ~page:p ~off:0 ~len:1);
  Pagepool.release_global t p;
  Alcotest.(check int) "recycled after last release" 4 (Pagepool.free_pages t)

let test_pagepool_exhaustion () =
  let t = Pagepool.create ~pages:3 () in
  let h = Pagepool.handle t in
  let got = List.init 3 (fun _ -> Pagepool.alloc h) in
  Alcotest.(check bool) "all real" true (List.for_all (fun p -> p <> Pagepool.no_page) got);
  Alcotest.(check int) "exhausted returns no_page" Pagepool.no_page (Pagepool.alloc h);
  Alcotest.(check (float 0.001)) "occupancy full" 1.0 (Pagepool.occupancy t);
  List.iter (Pagepool.release h) got;
  Alcotest.(check bool) "alloc works again" true (Pagepool.alloc h <> Pagepool.no_page)

(* [available h] counts what [alloc h] can still hand out: the handle's
   cache and the global stack, but not pages parked in another handle's
   cache. *)
let test_pagepool_available () =
  let t = Pagepool.create ~pages:3 () in
  let h = Pagepool.handle t and other = Pagepool.handle t in
  Alcotest.(check int) "all pages on the global stack" 3 (Pagepool.available h);
  let got = List.init 3 (fun _ -> Pagepool.alloc h) in
  Alcotest.(check int) "none left" 0 (Pagepool.available h);
  List.iter (Pagepool.release other) got;
  Alcotest.(check int) "released into another handle's cache" 0 (Pagepool.available h);
  Alcotest.(check int) "which that handle can use" 3 (Pagepool.available other);
  Alcotest.(check int) "and free_pages counts" 3 (Pagepool.free_pages t)

let test_pagepool_spill_refill () =
  (* Drain through one handle, release through another: pages must migrate
     between caches via the global stack without loss or duplication. *)
  let pages = 4 * Pagepool.batch in
  let t = Pagepool.create ~pages () in
  let ha = Pagepool.handle t in
  let hb = Pagepool.handle t in
  let all = Array.init pages (fun _ -> Pagepool.alloc ha) in
  Array.iter (fun p -> Alcotest.(check bool) "real page" true (p <> Pagepool.no_page)) all;
  Alcotest.(check int) "drained" Pagepool.no_page (Pagepool.alloc hb);
  Array.iter (Pagepool.release hb) all;
  Alcotest.(check int) "nothing lost" pages (Pagepool.free_pages t);
  (* The releasing handle (cache + spilled global stock) can re-allocate
     every page back, and not one more. *)
  let again = Array.init pages (fun _ -> Pagepool.alloc hb) in
  Alcotest.(check bool) "no duplication: all real, then empty" true
    (Array.for_all (fun p -> p <> Pagepool.no_page) again
    && Pagepool.alloc hb = Pagepool.no_page);
  Array.iter (Pagepool.release hb) again

(* A handle that has only ever released pages spills once it holds a
   quarter of a small pool, so a receiver cannot sit on the pages a sender
   needs; once it allocates, it keeps the full cache. *)
let test_pagepool_receive_only_spills () =
  let pages = 64 in
  let t = Pagepool.create ~pages () in
  let sender = Pagepool.handle t and receiver = Pagepool.handle t in
  let all = Array.init pages (fun _ -> Pagepool.alloc sender) in
  Array.iter (Pagepool.release receiver) all;
  Alcotest.(check bool)
    (Printf.sprintf "the receiver kept at most a quarter (sender can take %d)"
       (Pagepool.available sender))
    true
    (Pagepool.available sender >= pages - (pages / 4));
  Alcotest.(check int) "nothing lost" pages (Pagepool.free_pages t);
  (* The receiver now allocates everything and frees it back: it is a
     sending handle and may cache up to 128 pages again. *)
  let again = Array.init pages (fun _ -> Pagepool.alloc receiver) in
  Array.iter (Pagepool.release receiver) again;
  Alcotest.(check int) "an allocating handle keeps its pages" 0 (Pagepool.available sender)

(* [domain_handle] is one handle per (pool, domain): the same one on every
   call in a domain, a different one in another domain. *)
let test_pagepool_domain_handle_identity () =
  let t = Pagepool.create ~pages:8 () in
  let mine = Pagepool.domain_handle t in
  Alcotest.(check bool) "repeat calls return the same handle" true
    (mine == Pagepool.domain_handle t);
  let other_same, other =
    Domain.join
      (Domain.spawn (fun () ->
           let h = Pagepool.domain_handle t in
           (h == Pagepool.domain_handle t, h)))
  in
  Alcotest.(check bool) "stable inside the other domain too" true other_same;
  Alcotest.(check bool) "another domain gets its own handle" true (not (mine == other));
  Alcotest.(check bool) "and ours is unchanged" true (mine == Pagepool.domain_handle t)

(* A long-lived domain that allocated through [domain_handle] must not keep
   the pool alive: once the pools are dropped, their pages leave the
   [pool.pages] gauge. *)
let[@inline never] use_pools_through_domain_handles n =
  for _ = 1 to n do
    let t = Pagepool.create ~pages:512 () in
    let h = Pagepool.domain_handle t in
    let p = Pagepool.alloc h in
    Pagepool.blit_from_bytes t ~src:(Bytes.make 16 'd') ~src_off:0 ~page:p ~off:0 ~len:16;
    Pagepool.release h p
  done

let test_pagepool_domain_handle_no_pin () =
  let before = Helpers.live_pool_pages () in
  use_pools_through_domain_handles 8;
  Alcotest.(check int) "no dropped pool is still live" before (Helpers.live_pool_pages ())

(* [pool.pages] counts the pages of live pools only. *)
let test_pagepool_pages_gauge () =
  let before = Helpers.live_pool_pages () in
  let t = Pagepool.create ~pages:100 () in
  Alcotest.(check int) "a new pool adds its pages" (before + 100) (Helpers.live_pool_pages ());
  ignore (Sys.opaque_identity t);
  Alcotest.(check int) "a dead pool takes them out" before (Helpers.live_pool_pages ())

(* Differential check of the bulk staging blits against a byte-at-a-time
   reference.  The pool has three live pages and the blits target the
   middle one, so both neighbours act as canaries; the whole pool buffer
   and the whole Bytes are compared against the reference after each
   blit, which also catches a stray byte on either side of the range. *)

let blit_pool =
  lazy
    (let t = Pagepool.create ~pages:3 () in
     let h = Pagepool.handle t in
     for _ = 1 to 3 do
       ignore (Pagepool.alloc h)
     done;
     t)

let pool_pattern i = Char.unsafe_chr (((i * 7) + 3) land 0xFF)

(* Paint the whole pool buffer with [pool_pattern]; returns the matching
   model the caller updates with the reference copy. *)
let paint_pool t =
  let buf = Pagepool.buffer t in
  let model = Bytes.init (Bigarray.Array1.dim buf) pool_pattern in
  Bytes.iteri (fun i c -> Bigarray.Array1.set buf i c) model;
  model

let pool_matches t model =
  let buf = Pagepool.buffer t in
  let ok = ref true in
  Bytes.iteri (fun i c -> if Bigarray.Array1.get buf i <> c then ok := false) model;
  !ok

(* (off, len, bytes_off, bytes_len): len = 0 and a whole page are drawn
   often, as are ranges flush with the page end and with the Bytes end. *)
let gen_blit_case =
  let ps = Pagepool.page_size in
  QCheck.Gen.(
    let* len = frequency [ (1, return 0); (1, return ps); (6, int_range 0 ps) ] in
    let* off = frequency [ (1, return 0); (1, return (ps - len)); (4, int_range 0 (ps - len)) ] in
    let* boff = frequency [ (1, return 0); (3, int_range 0 64) ] in
    let* slack = frequency [ (1, return 0); (3, int_range 1 64) ] in
    return (off, len, boff, boff + len + slack))

let prop_pagepool_blit_differential =
  QCheck.Test.make ~name:"pagepool bulk blits match a byte-loop reference" ~count:300
    (QCheck.make
       ~print:(fun (o, l, bo, bl) ->
         Printf.sprintf "off=%d len=%d bytes_off=%d bytes_len=%d" o l bo bl)
       gen_blit_case)
    (fun (off, len, boff, blen) ->
      let t = Lazy.force blit_pool in
      let page = 1 in
      let base = Pagepool.page_base page + off in
      let model = paint_pool t in
      let src = Bytes.init blen (fun i -> Char.unsafe_chr (((i * 13) + 5) land 0xFF)) in
      Pagepool.blit_from_bytes t ~src ~src_off:boff ~page ~off ~len;
      for i = 0 to len - 1 do
        Bytes.set model (base + i) (Bytes.get src (boff + i))
      done;
      let into_pool = pool_matches t model in
      let dst = Bytes.make blen '\xA5' in
      let expect = Bytes.copy dst in
      Pagepool.blit_to_bytes t ~page ~off ~dst ~dst_off:boff ~len;
      for i = 0 to len - 1 do
        Bytes.set expect (boff + i) (Bytes.get model (base + i))
      done;
      into_pool && Bytes.equal dst expect && pool_matches t model)

(* Every rejected blit raises its exact message and writes no byte, into
   the pool or into the destination Bytes. *)
let test_pagepool_blit_checks () =
  let t = Pagepool.create ~pages:2 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  let other = Pagepool.alloc h in
  let model = paint_pool t in
  let src = Bytes.make 64 's' in
  let dst = Bytes.make 64 'd' in
  let rejects name msg f =
    Alcotest.check_raises name (Invalid_argument msg) f;
    Alcotest.(check bool) (name ^ ": pool untouched") true (pool_matches t model);
    Alcotest.(check string) (name ^ ": dst untouched") (String.make 64 'd') (Bytes.to_string dst)
  in
  let from ~src_off ~page ~off ~len () = Pagepool.blit_from_bytes t ~src ~src_off ~page ~off ~len in
  let into ~dst_off ~page ~off ~len () = Pagepool.blit_to_bytes t ~page ~off ~dst ~dst_off ~len in
  let ps = Pagepool.page_size in
  rejects "from: past page end" "Pagepool.blit_from_bytes: bad range"
    (from ~src_off:0 ~page:p ~off:(ps - 8) ~len:9);
  rejects "from: negative off" "Pagepool.blit_from_bytes: bad range"
    (from ~src_off:0 ~page:p ~off:(-1) ~len:8);
  rejects "from: negative len" "Pagepool.blit_from_bytes: bad range"
    (from ~src_off:0 ~page:p ~off:0 ~len:(-1));
  rejects "from: past src end" "Pagepool.blit_from_bytes: bad source range"
    (from ~src_off:1 ~page:p ~off:0 ~len:64);
  rejects "from: negative src_off" "Pagepool.blit_from_bytes: bad source range"
    (from ~src_off:(-1) ~page:p ~off:0 ~len:8);
  rejects "from: bad page id" "Pagepool.blit_from_bytes" (from ~src_off:0 ~page:2 ~off:0 ~len:8);
  rejects "into: past page end" "Pagepool.blit_to_bytes: bad range"
    (into ~dst_off:0 ~page:p ~off:(ps - 8) ~len:9);
  rejects "into: negative off" "Pagepool.blit_to_bytes: bad range"
    (into ~dst_off:0 ~page:p ~off:(-1) ~len:8);
  rejects "into: negative len" "Pagepool.blit_to_bytes: bad range"
    (into ~dst_off:0 ~page:p ~off:0 ~len:(-1));
  rejects "into: past dst end" "Pagepool.blit_to_bytes: bad destination range"
    (into ~dst_off:1 ~page:p ~off:0 ~len:64);
  rejects "into: negative dst_off" "Pagepool.blit_to_bytes: bad destination range"
    (into ~dst_off:(-1) ~page:p ~off:0 ~len:8);
  rejects "into: bad page id" "Pagepool.blit_to_bytes" (into ~dst_off:0 ~page:(-1) ~off:0 ~len:8);
  Pagepool.release h p;
  rejects "from: released page" "Pagepool.blit_from_bytes: use after release"
    (from ~src_off:0 ~page:p ~off:0 ~len:8);
  rejects "into: released page" "Pagepool.blit_to_bytes: use after release"
    (into ~dst_off:0 ~page:p ~off:0 ~len:8);
  Pagepool.release h other

let test_pagepool_int_le_roundtrip () =
  let t = Pagepool.create ~pages:2 () in
  let h = Pagepool.handle t in
  let p = Pagepool.alloc h in
  let base = Pagepool.page_base p in
  List.iter
    (fun v ->
      Pagepool.set_int_le t base v;
      Alcotest.(check int) "int round trip" (v land max_int) (Pagepool.get_int_le t base))
    [ 0; 1; 0xDEAD_BEEF; max_int; min_int + 1 ];
  (* Little-endian on every host: byte 0 holds the low byte. *)
  Pagepool.set_int_le t base 0x0807_0605_0403_0201;
  let buf = Pagepool.buffer t in
  for i = 0 to 7 do
    Alcotest.(check int) (Printf.sprintf "byte %d" i) (i + 1)
      (Char.code (Bigarray.Array1.get buf (base + i)))
  done;
  Pagepool.release h p

let suite =
  [
    Alcotest.test_case "page write/read" `Quick test_page_write_read;
    Alcotest.test_case "page copy-on-write" `Quick test_page_cow;
    Alcotest.test_case "page write after last unref" `Quick test_page_write_after_last_unref;
    Alcotest.test_case "pool alloc/free" `Quick test_pool_alloc_free;
    Alcotest.test_case "pool kernel refill" `Quick test_pool_refill_on_empty;
    Alcotest.test_case "pool foreign return" `Quick test_pool_foreign_return;
    Alcotest.test_case "pool take_back owner check" `Quick test_pool_take_back_rejects_foreign;
    Alcotest.test_case "pool holds shared pages" `Quick test_pool_shared_page_not_freed_early;
    Alcotest.test_case "space roundtrip" `Quick test_space_roundtrip;
    Alcotest.test_case "space COW on write" `Quick test_space_cow_on_write;
    Alcotest.test_case "space unmap returns foreign pages" `Quick test_space_unmap_returns_foreign;
    QCheck_alcotest.to_alcotest prop_space_roundtrip;
    QCheck_alcotest.to_alcotest prop_cow_preserves_sharers;
    Alcotest.test_case "pagepool alloc/blit/slice roundtrip" `Quick test_pagepool_roundtrip;
    Alcotest.test_case "pagepool double release raises" `Quick test_pagepool_double_release;
    Alcotest.test_case "pagepool use after release raises" `Quick test_pagepool_use_after_release;
    Alcotest.test_case "pagepool incref sharing" `Quick test_pagepool_incref_sharing;
    Alcotest.test_case "pagepool exhaustion returns no_page" `Quick test_pagepool_exhaustion;
    Alcotest.test_case "pagepool available counts only what a handle can take" `Quick
      test_pagepool_available;
    Alcotest.test_case "pagepool cross-handle spill/refill" `Quick test_pagepool_spill_refill;
    Alcotest.test_case "pagepool receive-only handle spills early on a small pool" `Quick
      test_pagepool_receive_only_spills;
    Alcotest.test_case "pagepool domain_handle is one handle per domain" `Quick
      test_pagepool_domain_handle_identity;
    Alcotest.test_case "pagepool domain_handle does not pin the pool" `Quick
      test_pagepool_domain_handle_no_pin;
    Alcotest.test_case "pagepool pool.pages counts live pools" `Quick test_pagepool_pages_gauge;
    Alcotest.test_case "pagepool little-endian int roundtrip" `Quick test_pagepool_int_le_roundtrip;
    QCheck_alcotest.to_alcotest prop_pagepool_blit_differential;
    Alcotest.test_case "pagepool blit checks raise and write nothing" `Quick test_pagepool_blit_checks;
  ]
