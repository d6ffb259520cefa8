(* Sds_check: trigger/non-trigger fixtures for every lint rule, tree-level
   (.mli parity) checks over a synthesized tree, the interleaving checker on
   the shipped protocol models (must be clean) and on seeded-bug mutations
   (must be caught), and the shared het-map the obj-unsafe rule blesses. *)

module Lint = Sds_check.Lint
module Interleave = Sds_check.Interleave
module Models = Sds_check.Models
module Hmap = Sds_het.Hmap

let cfg = Lint.default

(* Locate the repo root (walking up to dune-project) — tests run from
   _build/default/test, and the build context carries the full source
   tree, so model extraction and tree lint both work against it.  [None]
   only in a sandboxed run without sources: skip those tests. *)
let repo_root () =
  let rec find_root d =
    if Sys.file_exists (Filename.concat d "dune-project") then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else find_root parent
  in
  find_root (Sys.getcwd ())

let with_root f = match repo_root () with None -> () | Some root -> f root

let rules_of ~path source =
  List.map (fun v -> v.Lint.rule) (Lint.lint_source ~config:cfg ~path ~source)

let check_rules msg ~path source expected =
  Alcotest.(check (list string)) msg expected (rules_of ~path source)

(* ---- atomic-confined ---- *)

let test_atomic_rule () =
  check_rules "Atomic use outside the allowlist is flagged" ~path:"lib/transport/x.ml"
    "let x = Atomic.make 0" [ "atomic-confined" ];
  check_rules "Stdlib-prefixed Atomic is still caught" ~path:"lib/core/x.ml"
    "let x = Stdlib.Atomic.make 0" [ "atomic-confined" ];
  check_rules "open Atomic is an escape hatch, flagged" ~path:"lib/core/x.ml"
    "open Atomic\nlet x = make 0" [ "atomic-confined" ];
  check_rules "aliasing Atomic is an escape hatch, flagged" ~path:"lib/core/x.ml"
    "module A = Atomic\nlet x = A.make 0" [ "atomic-confined" ];
  check_rules "the ring is allowlisted" ~path:"lib/ring/spsc_ring.ml"
    "let x = Atomic.make 0" [];
  check_rules "the waiter is allowlisted" ~path:"lib/notify/waiter.ml"
    "let x = Atomic.make 0" [];
  check_rules "tests may use Atomic (cross-domain harnesses)" ~path:"test/t.ml"
    "let x = Atomic.make 0" [];
  check_rules "suppression covers the subtree" ~path:"lib/core/x.ml"
    "let x = (Atomic.make 0 [@sds.allow \"atomic-confined\"])" []

(* ---- poly-compare ---- *)

let test_compare_rule () =
  check_rules "bare polymorphic compare under lib/ is flagged" ~path:"lib/sim/x.ml"
    "let f a b = compare a b" [ "poly-compare" ];
  check_rules "Stdlib.compare is the same thing" ~path:"lib/sim/x.ml"
    "let f a b = Stdlib.compare a b" [ "poly-compare" ];
  check_rules "monomorphic comparators pass" ~path:"lib/sim/x.ml"
    "let f a b = Int.compare a b && Float.compare a b && String.compare a b" [];
  check_rules "structural = in a data-path library is flagged" ~path:"lib/ring/x.ml"
    "let f a = a = (1, 2)" [ "poly-compare" ];
  check_rules "structural <> on a constructor application too" ~path:"lib/notify/x.ml"
    "let f a = a <> Some 3" [ "poly-compare" ];
  check_rules "string-literal = in a data-path library is flagged" ~path:"lib/core/x.ml"
    "let f a = a = \"hot\"" [ "poly-compare" ];
  check_rules "scalar = is fine even in the data path" ~path:"lib/ring/x.ml"
    "let f (a : int) b = a = b" [];
  check_rules "structural = outside the data path is tolerated" ~path:"lib/sim/x.ml"
    "let f a = a = (1, 2)" []

(* ---- obj-unsafe ---- *)

let test_obj_rule () =
  check_rules "Obj outside the safe module is flagged" ~path:"lib/sim/x.ml"
    "let f x = Obj.repr x" [ "obj-unsafe" ];
  check_rules "Obj.magic is flagged in tests too" ~path:"test/t.ml"
    "let f x = Obj.magic x" [ "obj-unsafe" ];
  check_rules "the het-map module is the one sanctioned user" ~path:"lib/het/hmap.ml"
    "let f x = Obj.repr x" []

(* ---- hot-alloc ---- *)

let test_hot_rule () =
  check_rules "closure inside [@sds.hot] is flagged" ~path:"lib/ring/x.ml"
    "let[@sds.hot] f x = let g y = y + x in g 3" [ "hot-alloc" ];
  check_rules "List combinators inside [@sds.hot] are flagged" ~path:"lib/sim/x.ml"
    "let[@sds.hot] f xs = List.map succ xs" [ "hot-alloc" ];
  check_rules "Printf inside [@sds.hot] is flagged" ~path:"lib/sim/x.ml"
    "let[@sds.hot] f x = Printf.printf \"%d\" x" [ "hot-alloc" ];
  check_rules "string concatenation inside [@sds.hot] is flagged" ~path:"lib/sim/x.ml"
    "let[@sds.hot] f a b = a ^ b" [ "hot-alloc" ];
  check_rules "lazy inside [@sds.hot] is flagged" ~path:"lib/sim/x.ml"
    "let[@sds.hot] f x = lazy (x + 1)" [ "hot-alloc" ];
  check_rules "the curried parameter chain is the function, not a closure"
    ~path:"lib/sim/x.ml" "let[@sds.hot] f a b ~c ?(d = 0) () = a + b + c + d" [];
  check_rules "[@sds.cold] exempts the rare slow path" ~path:"lib/sim/x.ml"
    "let[@sds.hot] f x = if x > 0 then x else ((List.length [ x ]) [@sds.cold])" [];
  check_rules "unannotated functions may allocate freely" ~path:"lib/sim/x.ml"
    "let f xs = List.map succ xs" []

(* ---- bigarray-unsafe ---- *)

let test_bigarray_rule () =
  check_rules "unsafe Bigarray access outside the allowlist is flagged" ~path:"lib/transport/x.ml"
    "let[@sds.hot] f b i = Bigarray.Array1.unsafe_get b i" [ "bigarray-unsafe" ];
  check_rules "even hot functions do not excuse a non-allowlisted file" ~path:"lib/core/x.ml"
    "let[@sds.hot] f b i v = Bigarray.Array1.unsafe_set b i v" [ "bigarray-unsafe" ];
  check_rules "allowlisted file but cold context is flagged" ~path:"lib/vm/pagepool.ml"
    "let f b i = Bigarray.Array1.unsafe_get b i" [ "bigarray-unsafe" ];
  check_rules "allowlisted file + [@sds.hot] passes" ~path:"lib/vm/pagepool.ml"
    "let[@sds.hot] f b i = Bigarray.Array1.unsafe_get b i" [];
  check_rules "the ring is allowlisted too" ~path:"lib/ring/spsc_ring.ml"
    "let[@sds.hot] f b i = Bigarray.Array1.unsafe_get b i" [];
  check_rules "[@sds.cold] subtrees inside hot functions are not exempt" ~path:"lib/vm/pagepool.ml"
    "let[@sds.hot] f b i = if i > 0 then 'x' else ((Bigarray.Array1.unsafe_get b i) [@sds.cold])"
    [ "bigarray-unsafe" ];
  check_rules "checked Bigarray accessors pass anywhere" ~path:"lib/transport/x.ml"
    "let f b i = Bigarray.Array1.get b i" [];
  check_rules "tests may use unsafe Bigarray (harness code)" ~path:"test/t.ml"
    "let f b i = Bigarray.Array1.unsafe_get b i" []

(* ---- metric-registration ---- *)

let test_metric_rule () =
  check_rules "registration at module top level passes" ~path:"lib/transport/x.ml"
    "let c = Obs.Metrics.counter \"shm.sends\"" [];
  check_rules "registration inside a function is flagged" ~path:"lib/transport/x.ml"
    "let f () = Obs.Metrics.counter \"shm.sends\"" [ "metric-registration" ];
  check_rules "registration inside an [@sds.hot] function is flagged" ~path:"lib/ring/x.ml"
    "let[@sds.hot] f () = ignore (Obs.Metrics.histogram \"ring.lat\")"
    [ "metric-registration" ];
  check_rules "any Metrics module prefix is recognized" ~path:"lib/core/x.ml"
    "let f () = Sds_obs.Obs.Metrics.gauge \"pool.pages\"" [ "metric-registration" ];
  check_rules "a top-level let () = block is top level" ~path:"lib/ring/x.ml"
    "let () = ignore (Obs.Metrics.probe \"ring.created\" reader)" [];
  check_rules "single-segment names break the layer.noun convention" ~path:"lib/core/x.ml"
    "let c = Obs.Metrics.counter \"sends\"" [ "metric-registration" ];
  check_rules "uppercase names break the layer.noun convention" ~path:"lib/core/x.ml"
    "let c = Obs.Metrics.counter \"Libsd.Sends\"" [ "metric-registration" ];
  check_rules "empty segments break the layer.noun convention" ~path:"lib/core/x.ml"
    "let c = Obs.Metrics.counter \"libsd..sends\"" [ "metric-registration" ];
  check_rules "underscores and digits are fine" ~path:"lib/notify/x.ml"
    "let h = Obs.Metrics.histogram \"notify.wake_latency_ns2\"" [];
  check_rules "incr/observe/gauge_set are not registrations" ~path:"lib/core/x.ml"
    "let f c = Obs.Metrics.incr c; Obs.Metrics.gauge_set g 3" [];
  check_rules "the registry implementation itself is exempt" ~path:"lib/obs/obs.ml"
    "let f () = Metrics.counter \"x\"" [];
  check_rules "tests may register ad hoc" ~path:"test/t.ml"
    "let f () = Obs.Metrics.counter \"x\"" [];
  check_rules "suppression works here too" ~path:"lib/core/x.ml"
    "let f () = (Obs.Metrics.counter \"x\" [@sds.allow \"metric-registration\"])" []

(* ---- dls-key-toplevel ---- *)

let test_dls_rule () =
  Alcotest.(check bool) "dls-key-toplevel is a registered rule" true
    (List.mem "dls-key-toplevel" Lint.all_rules);
  check_rules "a key made at module top level passes" ~path:"lib/rt/x.ml"
    "let slot_key = Domain.DLS.new_key (fun () -> -1)" [];
  check_rules "a top-level let () = block is top level" ~path:"lib/core/x.ml"
    "let () = ignore (Domain.DLS.new_key (fun () -> 0))" [];
  check_rules "a key made per object is flagged" ~path:"lib/vm/x.ml"
    "let create () = { cache = Domain.DLS.new_key (fun () -> [||]) }" [ "dls-key-toplevel" ];
  check_rules "a key made lazily inside a function is flagged" ~path:"lib/vm/x.ml"
    "let get t = match t.key with Some k -> k | None -> let k = Domain.DLS.new_key init in \
     t.key <- Some k; k"
    [ "dls-key-toplevel" ];
  check_rules "a DLS alias or opened Domain is recognized" ~path:"bench/x.ml"
    "let f () = DLS.new_key (fun () -> 0)" [ "dls-key-toplevel" ];
  check_rules "a Stdlib prefix is recognized" ~path:"bin/x.ml"
    "let f () = Stdlib.Domain.DLS.new_key (fun () -> 0)" [ "dls-key-toplevel" ];
  check_rules "get/set inside functions are fine" ~path:"lib/rt/x.ml"
    "let f () = Domain.DLS.set k (Domain.DLS.get k + 1)" [];
  check_rules "tests may make keys ad hoc" ~path:"test/t.ml"
    "let f () = Domain.DLS.new_key (fun () -> 0)" [];
  check_rules "suppression works here too" ~path:"lib/vm/x.ml"
    "let f () = (Domain.DLS.new_key (fun () -> 0) [@sds.allow \"dls-key-toplevel\"])" []

(* ---- fault-confined ---- *)

let test_fault_rule () =
  Alcotest.(check bool)
    "fault-confined is a registered rule" true
    (List.mem "fault-confined" Lint.all_rules);
  check_rules "inject outside the crash-recovery allowlist is flagged"
    ~path:"lib/transport/x.ml" "let f () = Sds_fault.inject \"shm.site\""
    [ "fault-confined" ];
  check_rules "aliasing Sds_fault outside the allowlist is an escape hatch, flagged"
    ~path:"lib/core/x.ml" "module F = Sds_fault\nlet f () = F.inject \"x.y\""
    [ "fault-confined" ];
  check_rules "allowlisted file, cold context: bare inject passes"
    ~path:"lib/rt/rt_token.ml" "let f () = Sds_fault.inject \"rt_token.grant\"" [];
  check_rules "allowlisted file, hot function, armed-gated inject passes"
    ~path:"lib/rt/rt_sock.ml"
    "let[@sds.hot] f () = if Sds_fault.armed () then Sds_fault.inject \"rt_sock.mid_publish\""
    [];
  check_rules "the gate condition may be compound" ~path:"lib/rt/rt_sock.ml"
    "let[@sds.hot] f n = if n > 0 && Sds_fault.armed () then Sds_fault.inject \"rt_sock.s\""
    [];
  check_rules "ungated inject inside [@sds.hot] is flagged even when allowlisted"
    ~path:"lib/rt/rt_sock.ml"
    "let[@sds.hot] f () = Sds_fault.inject \"rt_sock.mid_publish\"" [ "fault-confined" ];
  check_rules "an unrelated if does not count as the gate" ~path:"lib/rt/rt_sock.ml"
    "let[@sds.hot] f n = if n > 0 then Sds_fault.inject \"rt_sock.s\"" [ "fault-confined" ];
  check_rules "armed/disarm/fired_sites are not injection points"
    ~path:"lib/transport/x.ml" "let f () = Sds_fault.armed ()" [];
  check_rules "tests may inject ad hoc" ~path:"test/t.ml"
    "let f () = Sds_fault.inject \"anything\"" [];
  check_rules "suppression works here too" ~path:"lib/core/x.ml"
    "let f () = (Sds_fault.inject \"x.y\" [@sds.allow \"fault-confined\"])" []

(* ---- fence-discipline ---- *)

let test_fence_rule () =
  check_rules "plain write to the published tail is flagged" ~path:"lib/ring/x.ml"
    "let f t = t.tail <- t.tail + 1" [ "fence-discipline" ];
  check_rules "plain write to the waiter state word is flagged" ~path:"lib/notify/x.ml"
    "let f t = t.state <- 2" [ "fence-discipline" ];
  check_rules "the field name is owned however deep the record path"
    ~path:"lib/rt/x.ml" "let f t = t.inner.seq <- 0" [ "fence-discipline" ];
  check_rules "non-synchronizing fields may stay plain" ~path:"lib/ring/x.ml"
    "let f t = t.head <- t.head + 1" [];
  check_rules "outside the protocol libraries the names are free"
    ~path:"lib/sim/x.ml" "let f t = t.tail <- 3" [];
  check_rules "the single-domain allocator is allowlisted"
    ~path:"lib/ring/alloc_queue.ml" "let f t = t.tail <- t.tail + 1" [];
  check_rules "reads of the fields are not writes" ~path:"lib/ring/x.ml"
    "let f t = t.tail + 1" [];
  check_rules "suppression covers the subtree" ~path:"lib/ring/x.ml"
    "let f t = ((t.tail <- 3) [@sds.allow \"fence-discipline\"])" []

(* ---- github annotation format ---- *)

let test_github_format () =
  let v =
    {
      Lint.rule = "fence-discipline";
      file = "lib/ring/x.ml";
      line = 7;
      col = 3;
      message = "plain write,\nwith: specials and 100%";
    }
  in
  Alcotest.(check string)
    "workflow command with escaped properties and message"
    "::error file=lib/ring/x.ml,line=7,col=3,title=fence-discipline::plain write,%0Awith: \
     specials and 100%25"
    (Lint.to_github v);
  Alcotest.(check bool) "fence-discipline is a registered rule" true
    (List.mem "fence-discipline" Lint.all_rules);
  Alcotest.(check bool) "parse-error is a registered rule (so --rule accepts it)" true
    (List.mem "parse-error" Lint.all_rules)

(* ---- parse errors surface, not crash ---- *)

let test_parse_error () =
  check_rules "syntax errors are reported as violations" ~path:"lib/sim/x.ml" "let = "
    [ "parse-error" ]

(* ---- tree-level: ml_files walk + .mli parity ---- *)

let make_tree () =
  let root = Filename.temp_dir "sds_check" "tree" in
  let mkdir p = Sys.mkdir p 0o755 in
  mkdir (Filename.concat root "lib");
  mkdir (Filename.concat root "lib/sub");
  mkdir (Filename.concat root "bin");
  let write rel s =
    let oc = open_out (Filename.concat root rel) in
    output_string oc s;
    close_out oc
  in
  write "lib/sub/a.ml" "let a = 1";
  write "lib/sub/b.ml" "let b = 2";
  write "lib/sub/b.mli" "val b : int";
  write "bin/c.ml" "let c = 3";
  root

let test_mli_parity () =
  let root = make_tree () in
  Alcotest.(check (list string))
    "walk finds every .ml under the scan roots"
    [ "bin/c.ml"; "lib/sub/a.ml"; "lib/sub/b.ml" ]
    (Lint.ml_files ~config:cfg ~root);
  let missing = Lint.check_mli_parity ~config:cfg ~root in
  Alcotest.(check (list string))
    "exactly the interface-less lib module is flagged" [ "lib/sub/a.ml" ]
    (List.map (fun v -> v.Lint.file) missing);
  List.iter (fun v -> Alcotest.(check string) "rule slug" "mli-parity" v.Lint.rule) missing;
  let all = Lint.lint_tree ~config:cfg ~root in
  Alcotest.(check int) "lint_tree = per-file + parity" 1 (List.length all)

(* The repo itself must be clean: the satellite fixes (monomorphic
   comparators, the het-map, the added interfaces) are exactly what makes
   this hold.  Locate the repo root by walking up to dune-project. *)
let test_repo_clean () =
  with_root (fun root ->
      let viols = Lint.lint_tree ~config:cfg ~root in
      List.iter (fun v -> Printf.printf "unexpected: %s\n" (Lint.to_string v)) viols;
      Alcotest.(check int) "sdlint is clean on the repository" 0 (List.length viols))

(* ---- interleaving checker: the DSL itself ---- *)

let test_interleave_basics () =
  let open Interleave in
  (* Two unsynchronized plain writers: the canonical data race. *)
  let racy =
    {
      globals = [ ("x", 0) ];
      threads =
        [
          { name = "a"; body = [ Plain_store ("x", Int 1) ] };
          { name = "b"; body = [ Plain_store ("x", Int 2) ] };
        ];
    }
  in
  let o = check racy in
  Alcotest.(check bool) "plain/plain write race is reported" true (o.races <> []);
  (* Same program through atomics: clean. *)
  let sync =
    {
      globals = [ ("x", 0) ];
      threads =
        [
          { name = "a"; body = [ Store ("x", Int 1) ] };
          { name = "b"; body = [ Store ("x", Int 2) ] };
        ];
    }
  in
  Alcotest.(check bool) "atomic/atomic is not a race" true (ok (check sync));
  (* A thread parked with no peer to wake it: a lost wakeup. *)
  let stuck =
    {
      globals = [ ("x", 0) ];
      threads = [ { name = "w"; body = [ Block_until (Rel (Eq, Var "x", Int 1)) ] } ];
    }
  in
  let o = check stuck in
  Alcotest.(check bool) "terminal parked thread counts as a lost wakeup" true
    (o.lost_wakeups > 0);
  Alcotest.(check (list string)) "and names the parked thread" [ "w" ] o.blocked_threads;
  (* CAS: exactly one of two contending threads wins. *)
  let cas_race =
    {
      globals = [ ("x", 0); ("wins", 0) ];
      threads =
        [
          {
            name = "a";
            body =
              [
                Cas ("x", Int 0, Int 1, "ok");
                If (Rel (Eq, Reg "ok", Int 1), [ Load ("wins", "w"); Store ("wins", Add (Reg "w", Int 1)) ], []);
              ];
          };
          {
            name = "b";
            body =
              [
                Cas ("x", Int 0, Int 2, "ok");
                If (Rel (Eq, Reg "ok", Int 1), [ Load ("wins", "w"); Store ("wins", Add (Reg "w", Int 1)) ], []);
              ];
          };
        ];
    }
  in
  Alcotest.(check bool) "contending CAS elects exactly one winner" true (ok (check cas_race));
  Alcotest.(check bool) "exploration actually ran" true ((check cas_race).executions > 0)

let test_models_clean () =
  with_root (fun root ->
      List.iter
        (fun (name, p) ->
          let o = Interleave.check p in
          if not (Interleave.ok o) then
            Alcotest.failf "model %s not clean: %a" name Interleave.pp_outcome o)
        (Models.all ~root))

(* Mutation tests: each seeded bug class must be caught by the right
   detector.  These are the regression tests for the checker itself — if a
   refactor of [Interleave] (or of the extraction the models are now
   derived through) stops catching one of these, the checker has lost its
   reason to exist. *)

let mutation ~root name = List.assoc name (Models.mutations ~root)

let test_mutation_unfenced () =
  with_root (fun root ->
      let o = Interleave.check (mutation ~root "ring-publication-unfenced") in
      Alcotest.(check bool) "dropping the atomic tail publication races" true (o.races <> []))

let test_mutation_header_late () =
  with_root (fun root ->
      let o = Interleave.check (mutation ~root "ring-publication-header-late") in
      Alcotest.(check bool) "publishing before the header write trips the assert" true
        (o.assert_failures <> []))

let test_mutation_spend_late () =
  with_root (fun root ->
      let o = Interleave.check (mutation ~root "ring-publication-spend-late") in
      Alcotest.(check bool) "spending credits after the publish overflows the return" true
        (o.assert_failures <> []))

let test_mutation_no_recheck () =
  with_root (fun root ->
      let o = Interleave.check (mutation ~root "park-notify-no-recheck") in
      Alcotest.(check bool) "dropping the parked-flag re-check loses a wakeup" true
        (o.lost_wakeups > 0))

let test_mutation_release_early () =
  with_root (fun root ->
      let o = Interleave.check (mutation ~root "desc-handoff-release-early") in
      Alcotest.(check bool) "releasing the page before the payload read is caught" true
        (o.races <> [] || o.assert_failures <> []))

let test_mutation_token_unfenced () =
  with_root (fun root ->
      let o = Interleave.check (mutation ~root "token-handoff-unfenced") in
      Alcotest.(check bool) "losing the grant's atomicity races on socket state" true
        (o.races <> []))

let test_mutation_token_early_grant () =
  with_root (fun root ->
      let o = Interleave.check (mutation ~root "token-handoff-early-grant") in
      Alcotest.(check bool) "granting before the drain is caught" true
        (o.races <> [] || o.assert_failures <> []))

let test_mutations_all_caught () =
  with_root (fun root ->
      List.iter
        (fun (name, p) ->
          let o = Interleave.check p in
          if Interleave.ok o then Alcotest.failf "mutation %s escaped every detector" name)
        (Models.mutations ~root))

(* ---- DPOR: reduction correctness and power ----

   The sleep-set reduction must (a) prune commuting interleavings, (b) keep
   exploring conflicting ones, and (c) never change a verdict.  (a)/(b) are
   pinned on minimal programs where the expected counts are obvious; (c) is
   pinned across every shipped model and every seeded mutation. *)

let two name_a a name_b b =
  let open Interleave in
  {
    globals = [ ("x", 0); ("y", 0) ];
    threads = [ { name = name_a; body = a }; { name = name_b; body = b } ];
  }

let test_dpor_commutes () =
  let open Interleave in
  (* Disjoint variables commute: one interleaving suffices. *)
  let disjoint = two "a" [ Store ("x", Int 1) ] "b" [ Store ("y", Int 1) ] in
  Alcotest.(check int) "disjoint stores: naive explores both orders" 2
    (check ~dpor:false disjoint).executions;
  Alcotest.(check int) "disjoint stores: DPOR explores one" 1
    (check ~dpor:true disjoint).executions;
  (* Two reads of the same variable commute too. *)
  let reads = two "a" [ Load ("x", "r") ] "b" [ Load ("x", "r") ] in
  Alcotest.(check int) "read/read: naive explores both orders" 2
    (check ~dpor:false reads).executions;
  Alcotest.(check int) "read/read: DPOR explores one" 1
    (check ~dpor:true reads).executions

let test_dpor_conflicts () =
  let open Interleave in
  (* Write/write on one variable conflicts: both orders are distinct
     terminal states and DPOR must visit both. *)
  let ww = two "a" [ Store ("x", Int 1) ] "b" [ Store ("x", Int 2) ] in
  Alcotest.(check int) "conflicting stores: DPOR keeps both orders" 2
    (check ~dpor:true ww).executions;
  (* A read/write conflict whose outcome depends on the order: DPOR must
     still reach the failing order. *)
  let rw =
    two "a"
      [ Load ("x", "r"); Assert (Rel (Eq, Reg "r", Int 0), "saw the write") ]
      "b" [ Store ("x", Int 1) ]
  in
  Alcotest.(check bool) "read/write conflict: DPOR reaches the failing order" true
    ((check ~dpor:true rw).assert_failures <> []);
  (* And a plain/plain conflict is still reported as a race under DPOR. *)
  let racy = two "a" [ Plain_store ("x", Int 1) ] "b" [ Plain_store ("x", Int 2) ] in
  Alcotest.(check bool) "plain/plain race survives the reduction" true
    ((check ~dpor:true racy).races <> [])

(* Per-model regression bounds: if the reduction degrades, these counts
   blow up long before wall-clock does.  Current values (with plenty of
   headroom): ring 2, park-notify 6, token-handoff 6, token-crash 1. *)
let test_dpor_execution_bounds () =
  with_root (fun root ->
      let bounds =
        [
          ("ring-publication", 8);
          ("park-notify", 16);
          ("desc-handoff", 8);
          ("token-handoff", 16);
          ("token-crash-recovery", 8);
        ]
      in
      List.iter
        (fun (name, p) ->
          let cap = List.assoc name bounds in
          let n = (Interleave.check ~dpor:true p).executions in
          if n > cap then
            Alcotest.failf "model %s: DPOR explored %d executions (cap %d)" name n cap)
        (Models.all ~root))

(* The headline acceptance bar: on the token-handoff model, at the same
   preemption bound, the reduced checker explores >= 10x fewer executions
   than the unreduced one — and both agree the model is clean. *)
let test_dpor_reduction_ratio () =
  with_root (fun root ->
      let p = List.assoc "token-handoff" (Models.all ~root) in
      let reduced = Interleave.check ~dpor:true p in
      let naive = Interleave.check ~dpor:false p in
      Alcotest.(check bool) "reduced verdict clean" true (Interleave.ok reduced);
      Alcotest.(check bool) "naive verdict clean" true (Interleave.ok naive);
      if naive.executions < 10 * reduced.executions then
        Alcotest.failf "DPOR reduction below 10x: %d reduced vs %d naive"
          reduced.executions naive.executions)

(* Verdict equality: for every shipped model and every seeded mutation, the
   reduced and unreduced explorations agree on cleanliness and on which
   detector fired. *)
let test_dpor_verdicts_equal () =
  with_root (fun root ->
      List.iter
        (fun (name, p) ->
          let r = Interleave.check ~dpor:true p in
          let u = Interleave.check ~dpor:false p in
          let agree label a b =
            if a <> b then
              Alcotest.failf "%s: reduced/unreduced disagree on %s" name label
          in
          agree "cleanliness" (Interleave.ok r) (Interleave.ok u);
          agree "races" (r.races <> []) (u.races <> []);
          agree "assertion failures" (r.assert_failures <> []) (u.assert_failures <> []);
          agree "lost wakeups" (r.lost_wakeups > 0) (u.lost_wakeups > 0))
        (Models.all ~root @ Models.mutations ~root))

(* ---- extraction: annotations, goldens, drift ---- *)

let ring_files = [ "lib/ring/spsc_ring.ml" ]

let test_extract_regions () =
  with_root (fun root ->
      Alcotest.(check (list string))
        "the ring announces its annotated regions"
        [ "ring-publication/producer" ]
        (Sds_check.Extract.region_names ~root ~files:ring_files);
      let waiter = Sds_check.Extract.region_names ~root ~files:[ "lib/notify/waiter.ml" ] in
      List.iter
        (fun n ->
          if not (List.mem n waiter) then Alcotest.failf "waiter region %s missing" n)
        [ "park-notify/notifier"; "park-notify/waiter"; "waiter/prepare"; "waiter/commit" ];
      let token = Sds_check.Extract.region_names ~root ~files:[ "lib/rt/rt_token.ml" ] in
      List.iter
        (fun n ->
          if not (List.mem n token) then Alcotest.failf "token region %s missing" n)
        [ "token-handoff/grant"; "token-crash/seize" ])

(* In-process mirror of `sdmodel check`: every extracted program renders to
   exactly its committed golden. *)
let test_extract_goldens () =
  with_root (fun root ->
      List.iter
        (fun (name, p) ->
          let path = Filename.concat root ("test/golden/" ^ name ^ ".golden") in
          if not (Sys.file_exists path) then Alcotest.failf "no golden for %s" name;
          let ic = open_in_bin path in
          let golden = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Alcotest.(check string)
            (Printf.sprintf "extraction of %s matches its golden" name)
            golden
            (Interleave.render_program p))
        (Models.extracted ~root))

(* Fixture: mutate a *copy of the real source* and assert the drift gate
   trips — the end-to-end guarantee that editing an annotated hot path
   cannot silently diverge from the checked model. *)
let copy_tree_fixture root tmp =
  List.iter
    (fun rel ->
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      let dst = Filename.concat tmp rel in
      mkdir_p (Filename.dirname dst);
      let ic = open_in_bin (Filename.concat root rel) in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin dst in
      output_string oc s;
      close_out oc)
    [ "lib/ring/spsc_ring.ml"; "lib/notify/waiter.ml"; "lib/rt/rt_token.ml" ]

let replace_in_file path ~pat ~by =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let b = Buffer.create (String.length s) in
  let plen = String.length pat in
  let i = ref 0 in
  let hits = ref 0 in
  while !i < String.length s do
    if !i + plen <= String.length s && String.sub s !i plen = pat then begin
      Buffer.add_string b by;
      incr hits;
      i := !i + plen
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  if !hits = 0 then Alcotest.failf "fixture pattern %S not found in %s" pat path;
  let oc = open_out_bin path in
  Buffer.output_buffer oc b;
  close_out oc

(* The built CLI sits next to this test binary's build context
   (_build/default/{test,bin}); resolve it relative to the executable so
   the test works under both `dune runtest` and `dune exec`. *)
let sdmodel_exe root =
  let beside =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/sdmodel.exe"
  in
  if Sys.file_exists beside then beside else Filename.concat root "bin/sdmodel.exe"

let run_sdmodel exe args =
  Sys.command (Filename.quote_command exe args ^ " > /dev/null 2>&1")

let test_sdmodel_drift_fixture () =
  with_root (fun root ->
      let exe = sdmodel_exe root in
      if not (Sys.file_exists exe) then Alcotest.failf "sdmodel.exe not built at %s" exe;
      let golden = Filename.concat root "test/golden" in
      let tmp = Filename.temp_dir "sds_model" "fixture" in
      copy_tree_fixture root tmp;
      (* Unmutated copy: the gate passes. *)
      Alcotest.(check int) "clean fixture passes the drift gate" 0
        (run_sdmodel exe [ "--root"; tmp; "--golden-dir"; golden; "check" ]);
      (* Mutate the publication: the tail advances by two slots.  Still
         compiles, still extracts — but the model differs, and the gate
         must fail. *)
      replace_in_file
        (Filename.concat tmp "lib/ring/spsc_ring.ml")
        ~pat:"Atomic.set t.tail (tail + need)"
        ~by:"Atomic.set t.tail (tail + need + need)";
      let dump = Filename.concat tmp "dump" in
      Alcotest.(check int) "mutated fixture fails the drift gate" 1
        (run_sdmodel exe
           [ "--root"; tmp; "--golden-dir"; golden; "--dump-dir"; dump; "check" ]);
      Alcotest.(check bool) "the drifted render is dumped for the CI artifact" true
        (Sys.file_exists (Filename.concat dump "ring-publication.extracted"));
      (* A mutation the spec cannot classify is an extraction error, not
         silent drift: exit 2. *)
      replace_in_file
        (Filename.concat tmp "lib/ring/spsc_ring.ml")
        ~pat:"Atomic.set t.tail (tail + need + need)"
        ~by:"t.unknown_field <- tail + need";
      Alcotest.(check int) "unclassifiable source is an extraction error" 2
        (run_sdmodel exe [ "--root"; tmp; "--golden-dir"; golden; "check" ]))

(* ---- the shared het-map ---- *)

let test_hmap () =
  let k_int : int Hmap.key = Hmap.create_key ~name:"int" () in
  let k_str : string Hmap.key = Hmap.create_key ~name:"str" () in
  let k_int2 : int Hmap.key = Hmap.create_key ~name:"int2" () in
  let m = Hmap.create () in
  Alcotest.(check (option int)) "empty" None (Hmap.find m k_int);
  Hmap.set m k_int 42;
  Hmap.set m k_str "hello";
  Alcotest.(check (option int)) "int roundtrip" (Some 42) (Hmap.find m k_int);
  Alcotest.(check (option string)) "string roundtrip" (Some "hello") (Hmap.find m k_str);
  Alcotest.(check (option int)) "same-type keys do not collide" None (Hmap.find m k_int2);
  let calls = ref 0 in
  let v =
    Hmap.find_or m k_int2 ~create:(fun () ->
        incr calls;
        7)
  in
  Alcotest.(check int) "find_or installs" 7 v;
  Alcotest.(check int) "find_or is memoized" 7 (Hmap.find_or m k_int2 ~create:(fun () -> 99));
  Alcotest.(check int) "create ran once" 1 !calls;
  Alcotest.(check int) "length" 3 (Hmap.length m);
  Hmap.remove m k_int;
  Alcotest.(check bool) "remove" false (Hmap.mem m k_int);
  Alcotest.(check string) "key_name" "str" (Hmap.key_name k_str)

let suite =
  [
    Alcotest.test_case "lint: atomic-confined" `Quick test_atomic_rule;
    Alcotest.test_case "lint: poly-compare" `Quick test_compare_rule;
    Alcotest.test_case "lint: obj-unsafe" `Quick test_obj_rule;
    Alcotest.test_case "lint: hot-alloc" `Quick test_hot_rule;
    Alcotest.test_case "lint: bigarray-unsafe" `Quick test_bigarray_rule;
    Alcotest.test_case "lint: metric-registration" `Quick test_metric_rule;
    Alcotest.test_case "lint: dls-key-toplevel" `Quick test_dls_rule;
    Alcotest.test_case "lint: fault-confined" `Quick test_fault_rule;
    Alcotest.test_case "lint: fence-discipline" `Quick test_fence_rule;
    Alcotest.test_case "lint: github annotation format" `Quick test_github_format;
    Alcotest.test_case "lint: parse errors" `Quick test_parse_error;
    Alcotest.test_case "lint: mli parity over a tree" `Quick test_mli_parity;
    Alcotest.test_case "lint: repository is clean" `Quick test_repo_clean;
    Alcotest.test_case "interleave: DSL basics" `Quick test_interleave_basics;
    Alcotest.test_case "interleave: shipped protocols are clean" `Quick test_models_clean;
    Alcotest.test_case "mutation: unfenced publication races" `Quick test_mutation_unfenced;
    Alcotest.test_case "mutation: late header trips assert" `Quick test_mutation_header_late;
    Alcotest.test_case "mutation: late credit spend trips assert" `Quick test_mutation_spend_late;
    Alcotest.test_case "mutation: no-recheck loses wakeup" `Quick test_mutation_no_recheck;
    Alcotest.test_case "mutation: early release is use-after-free" `Quick test_mutation_release_early;
    Alcotest.test_case "mutation: unfenced token grant races" `Quick test_mutation_token_unfenced;
    Alcotest.test_case "mutation: token grant before drain" `Quick test_mutation_token_early_grant;
    Alcotest.test_case "mutation: all variants caught" `Quick test_mutations_all_caught;
    Alcotest.test_case "dpor: commuting ops collapse" `Quick test_dpor_commutes;
    Alcotest.test_case "dpor: conflicting ops explored" `Quick test_dpor_conflicts;
    Alcotest.test_case "dpor: execution-count regression bounds" `Quick test_dpor_execution_bounds;
    Alcotest.test_case "dpor: >=10x reduction on token-handoff" `Quick test_dpor_reduction_ratio;
    Alcotest.test_case "dpor: verdicts equal reduced vs unreduced" `Quick test_dpor_verdicts_equal;
    Alcotest.test_case "extract: annotated regions discovered" `Quick test_extract_regions;
    Alcotest.test_case "extract: renders match committed goldens" `Quick test_extract_goldens;
    Alcotest.test_case "sdmodel: drift fixture trips the gate" `Quick test_sdmodel_drift_fixture;
    Alcotest.test_case "het-map" `Quick test_hmap;
  ]
