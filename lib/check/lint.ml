(* Sds_check.Lint — repo-specific concurrency/correctness lint over the
   compiler-libs Parsetree.

   The data path of this tree is a set of handwritten lock-free protocols
   (the ring's payload-then-header-then-tail publication, the waiter's
   eventcount park/notify).  Their correctness arguments are *local*: they
   hold only while every [Atomic] access lives in the audited modules and
   the hot paths stay allocation-free.  These rules machine-check those
   locality assumptions:

   - [atomic-confined]   [Atomic.*] (and [open Atomic] / module aliases)
                         may appear only in the allowlisted modules whose
                         protocols the interleaving checker models.
   - [poly-compare]      bare polymorphic [compare] anywhere under [lib/],
                         and [=]/[<>] applied to syntactically structured
                         operands (tuples, records, strings, non-constant
                         constructors) in the data-path libraries.
   - [obj-unsafe]        any [Obj.*] outside the one designated module
                         ([lib/het/hmap.ml], the shared het-map).
   - [mli-parity]        every [.ml] under [lib/] must have a sibling
                         [.mli] (interfaces are where invariants live).
   - [hot-alloc]         inside functions annotated [@sds.hot]: no
                         closures ([fun]/[function]/[lazy]), no
                         [Printf]/[Format], no [List] combinators, no
                         [^]/[@] concatenation.  Subtrees marked
                         [@sds.cold] (rare slow paths) are exempt.
   - [bigarray-unsafe]   [Bigarray.*.unsafe_*] accesses are confined to
                         the allowlisted data-path modules (the page pool
                         and the ring), and there only inside [@sds.hot]
                         functions — i.e. on paths whose bounds checks
                         have been hoisted and audited.
   - [metric-registration] [Metrics.counter/gauge/histogram/probe] calls
                         must sit at module top level (registration takes
                         the registry lock and allocates; doing it inside a
                         function — worst of all an [@sds.hot] one — puts
                         that on a per-call path), and a literal metric
                         name must follow the [layer.noun] convention:
                         lowercase dot-separated segments, e.g.
                         ["ring.enqueues"], ["span.wake"].
   - [dls-key-toplevel]  [Domain.DLS.new_key] only at module top level.
                         OCaml never reclaims a DLS key, and each domain
                         keeps its value for as long as the domain lives,
                         so a key made per object (per pool, per socket)
                         pins that object in every long-lived domain that
                         touched it.
   - [fault-confined]    [Sds_fault.inject] call sites may appear only in
                         the allowlisted crash-recovery modules, and inside
                         [@sds.hot] functions only under the zero-cost
                         [if Sds_fault.armed () then ...] gate — chaos
                         hooks must never grow into the general tree or
                         put an unconditional call on a fast path.
   - [fence-discipline]  in the protocol libraries, a plain [<-] write to
                         a field name the model extraction maps treat as
                         synchronizing state ([tail], [state], [seq],
                         [credits]) is flagged: those words carry the
                         fences the interleaving checker verified, and a
                         mutable twin (or a demotion from [Atomic.t])
                         silently voids that proof.  Single-domain
                         structures that use the names privately are
                         file-allowlisted ([lib/ring/alloc_queue.ml]).
   - [parse-error]       a file that does not parse is itself a violation
                         (surfaced, never a crash of the pass).

   Any rule can be locally silenced with [@sds.allow "rule-slug"] on an
   expression; the suppression covers the subtree.  The pass is purely
   syntactic — it parses each file with compiler-libs and walks the
   Parsetree, so it needs no build context and runs in milliseconds over
   the whole tree. *)

type violation = {
  rule : string;
  file : string;  (** path as given (repo-relative when driven by [lint_tree]) *)
  line : int;
  col : int;
  message : string;
}

type config = {
  atomic_allow : string list;  (** files allowed to touch [Atomic] *)
  obj_allow : string list;  (** files allowed to touch [Obj] *)
  bigarray_allow : string list;  (** files allowed unsafe Bigarray access (hot only) *)
  fault_allow : string list;  (** files allowed to call [Sds_fault.inject] *)
  atomic_dirs : string list;  (** scopes of the atomic-confined rule *)
  obj_dirs : string list;
  bigarray_dirs : string list;  (** scopes of the bigarray-unsafe rule *)
  fault_dirs : string list;  (** scopes of the fault-confined rule *)
  compare_dirs : string list;  (** bare [compare] flagged here *)
  data_path_dirs : string list;  (** structural [=]/[<>] flagged here *)
  mli_dirs : string list;  (** [.mli] parity enforced here *)
  metric_dirs : string list;  (** scopes of the metric-registration rule *)
  metric_allow : string list;  (** files exempt from it (the registry itself) *)
  dls_dirs : string list;  (** scopes of the dls-key-toplevel rule *)
  fence_dirs : string list;  (** scopes of the fence-discipline rule *)
  fence_fields : string list;  (** field names owned by the extraction maps *)
  fence_allow : string list;  (** single-domain users of those names *)
  scan_dirs : string list;  (** roots walked by [lint_tree] *)
  exclude_dirs : string list;  (** pruned subtrees (fixtures, _build) *)
}

let default =
  {
    atomic_allow =
      [
        "lib/ring/spsc_ring.ml";
        "lib/notify/waiter.ml";
        "lib/vm/pagepool.ml";
        (* The real-domain backend: the token word, the dispatcher's
           backlog mirrors, the liveness epochs, and the connections'
           poison flags are the audited cross-domain state. *)
        "lib/rt/rt_token.ml";
        "lib/rt/rt_monitor.ml";
        "lib/rt/rt_dom.ml";
        "lib/rt/rt_sock.ml";
        (* The chaos gate: a single relaxed flag read on the armed path. *)
        "lib/fault/sds_fault.ml";
      ];
    obj_allow = [ "lib/het/hmap.ml" ];
    bigarray_allow = [ "lib/vm/pagepool.ml"; "lib/ring/spsc_ring.ml" ];
    fault_allow =
      [
        "lib/fault/sds_fault.ml";
        "lib/rt/rt_token.ml";
        "lib/rt/rt_sock.ml";
        "lib/rt/rt_monitor.ml";
      ];
    atomic_dirs = [ "lib"; "bin"; "bench"; "examples" ];
    obj_dirs = [ "lib"; "bin"; "bench"; "examples"; "test" ];
    bigarray_dirs = [ "lib"; "bin"; "bench"; "examples" ];
    fault_dirs = [ "lib"; "bin"; "bench"; "examples" ];
    compare_dirs = [ "lib" ];
    data_path_dirs =
      [ "lib/ring"; "lib/notify"; "lib/transport"; "lib/core"; "lib/proto"; "lib/rt" ];
    mli_dirs = [ "lib" ];
    metric_dirs = [ "lib"; "bin"; "bench" ];
    metric_allow = [ "lib/obs/obs.ml" ];
    dls_dirs = [ "lib"; "bin"; "bench"; "examples" ];
    fence_dirs = [ "lib/ring"; "lib/notify"; "lib/rt" ];
    fence_fields = [ "tail"; "state"; "seq"; "credits" ];
    (* The allocator's cursors are domain-private by construction; its
       plain [tail]/[head] are the documented exception. *)
    fence_allow = [ "lib/ring/alloc_queue.ml" ];
    scan_dirs = [ "lib"; "bin"; "bench"; "examples"; "test" ];
    exclude_dirs = [ "_build"; ".git"; "test/fixtures" ];
  }

let rule_atomic = "atomic-confined"
let rule_compare = "poly-compare"
let rule_obj = "obj-unsafe"
let rule_mli = "mli-parity"
let rule_hot = "hot-alloc"
let rule_bigarray = "bigarray-unsafe"
let rule_metric = "metric-registration"
let rule_dls = "dls-key-toplevel"
let rule_fault = "fault-confined"
let rule_fence = "fence-discipline"
let rule_parse = "parse-error"

let all_rules =
  [
    rule_atomic;
    rule_compare;
    rule_obj;
    rule_mli;
    rule_hot;
    rule_bigarray;
    rule_metric;
    rule_dls;
    rule_fault;
    rule_fence;
    rule_parse;
  ]

(* ---- path scoping ---- *)

let in_dir path dir =
  let ld = String.length dir and lp = String.length path in
  lp > ld && String.sub path 0 ld = dir && path.[ld] = '/'

let in_any path dirs = List.exists (in_dir path) dirs
let is_allowed path allow = List.mem path allow

(* ---- AST pass ---- *)

open Parsetree

let attr_is name (a : attribute) = a.attr_name.txt = name

(* Payload of [@sds.allow "slug"]. *)
let allow_payload (a : attribute) =
  if not (attr_is "sds.allow" a) then None
  else
    match a.attr_payload with
    | PStr
        [
          {
            pstr_desc =
              Pstr_eval ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
            _;
          };
        ] ->
      Some s
    | _ -> None

let lint_source ~config ~path ~source =
  let viols = ref [] in
  let suppressed : string list ref = ref [] in
  let hot = ref 0 in
  let cold = ref 0 in
  let check_atomic = in_any path config.atomic_dirs && not (is_allowed path config.atomic_allow) in
  let check_obj = in_any path config.obj_dirs && not (is_allowed path config.obj_allow) in
  let check_bigarray = in_any path config.bigarray_dirs in
  let bigarray_allowed = is_allowed path config.bigarray_allow in
  let check_compare = in_any path config.compare_dirs in
  let check_struct_eq = in_any path config.data_path_dirs in
  let check_metric = in_any path config.metric_dirs && not (is_allowed path config.metric_allow) in
  let check_dls = in_any path config.dls_dirs in
  let check_fault = in_any path config.fault_dirs in
  let fault_allowed = is_allowed path config.fault_allow in
  let check_fence = in_any path config.fence_dirs && not (is_allowed path config.fence_allow) in
  (* Nesting depth in [fun]/[function] bodies: 0 = module top level. *)
  let fun_depth = ref 0 in
  (* Inside the then-branch of [if Sds_fault.armed () then ...]. *)
  let fault_gate = ref 0 in
  let add ~loc rule message =
    if not (List.mem rule !suppressed) then begin
      let p = loc.Location.loc_start in
      viols :=
        { rule; file = path; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol; message }
        :: !viols
    end
  in
  (* Module-path head of a longident: [Atomic.get] -> Some "Atomic", also
     seeing through a [Stdlib.] prefix ([Stdlib.Atomic.get] -> Some "Atomic"). *)
  let head_module lid =
    match Longident.flatten lid with
    | "Stdlib" :: m :: _ :: _ -> Some m
    | m :: _ :: _ -> Some m
    | _ -> None
  in
  let is_bare name lid =
    match Longident.flatten lid with
    | [ n ] | [ "Stdlib"; n ] -> n = name
    | _ -> false
  in
  let check_ident lid loc =
    (match head_module lid with
    | Some "Atomic" when check_atomic ->
      add ~loc rule_atomic
        "Atomic.* is confined to the allowlisted lock-free modules (lib/ring/spsc_ring.ml, \
         lib/notify/waiter.ml, lib/vm/pagepool.ml); route new shared state through them"
    | Some "Bigarray" when check_bigarray -> (
      match List.rev (Longident.flatten lid) with
      | last :: _ when String.length last > 7 && String.sub last 0 7 = "unsafe_" ->
        if not bigarray_allowed then
          add ~loc rule_bigarray
            "Bigarray unsafe access outside the audited data-path modules \
             (lib/vm/pagepool.ml, lib/ring/spsc_ring.ml); use the checked accessors"
        else if not (!hot > 0 && !cold = 0) then
          add ~loc rule_bigarray
            "Bigarray unsafe access outside an [@sds.hot] function; unchecked loads/stores \
             are only for hot paths whose bounds checks were hoisted"
      | _ -> ())
    | Some "Obj" when check_obj ->
      add ~loc rule_obj "Obj.* outside the designated safe module (lib/het/hmap.ml)"
    | Some "Sds_fault"
      when check_fault
           && (match List.rev (Longident.flatten lid) with
              | "inject" :: _ -> true
              | _ -> false) ->
      if not fault_allowed then
        add ~loc rule_fault
          "Sds_fault.inject outside the crash-recovery allowlist (lib/fault, lib/rt); chaos \
           hooks live only where the recovery protocol is audited"
      else if !hot > 0 && !cold = 0 && !fault_gate = 0 then
        add ~loc rule_fault
          "ungated Sds_fault.inject inside an [@sds.hot] function; wrap it as \
           [if Sds_fault.armed () then Sds_fault.inject ...] so the disarmed fast path \
           pays one flag read"
    | Some (("Printf" | "Format") as m) when !hot > 0 && !cold = 0 ->
      add ~loc rule_hot (Printf.sprintf "%s.* formats (and allocates) inside an [@sds.hot] function" m)
    | Some "List" when !hot > 0 && !cold = 0 ->
      add ~loc rule_hot "List.* combinators allocate inside an [@sds.hot] function"
    | _ -> ());
    (if check_dls && !fun_depth > 0 then
       match List.rev (Longident.flatten lid) with
       | "new_key" :: "DLS" :: _ ->
         add ~loc rule_dls
           "Domain.DLS.new_key inside a function; OCaml never reclaims a DLS key and every \
            domain keeps its value for life, so a key made per object pins that object — \
            create the key once at module top level, or keep the per-object state in the \
            object"
       | _ -> ());
    if check_compare && is_bare "compare" lid then
      add ~loc rule_compare
        "polymorphic compare; use a monomorphic comparator (Int.compare, Float.compare, \
         String.compare, ...)";
    if !hot > 0 && !cold = 0 then
      match Longident.flatten lid with
      | [ ("^" | "@") as op ] ->
        add ~loc rule_hot (Printf.sprintf "(%s) concatenation allocates inside an [@sds.hot] function" op)
      | _ -> ()
  in
  (* [Obs.Metrics.counter], [Metrics.histogram], ... — a registration call
     head, whatever the module prefix. *)
  let is_registration lid =
    match List.rev (Longident.flatten lid) with
    | ("counter" | "gauge" | "histogram" | "probe") :: "Metrics" :: _ -> true
    | _ -> false
  in
  (* layer.noun: two or more dot-separated lowercase [a-z][a-z0-9_]* segments. *)
  let metric_name_ok s =
    let seg_ok seg =
      String.length seg > 0
      && (match seg.[0] with 'a' .. 'z' -> true | _ -> false)
      && String.for_all (function 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false) seg
    in
    match String.split_on_char '.' s with
    | _ :: _ :: _ as segs -> List.for_all seg_ok segs
    | _ -> false
  in
  let check_registration lid args loc =
    if is_registration lid then begin
      if !fun_depth > 0 then
        add ~loc rule_metric
          "metric registration inside a function; Metrics.counter/gauge/histogram/probe take \
           the registry lock and allocate — register once at module top level and close over \
           the handle";
      match
        List.find_opt
          (fun (lbl, a) ->
            lbl = Asttypes.Nolabel
            && match a.pexp_desc with Pexp_constant (Pconst_string _) -> true | _ -> false)
          args
      with
      | Some (_, { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }) ->
        if not (metric_name_ok s) then
          add ~loc rule_metric
            (Printf.sprintf
               "metric name %S breaks the layer.noun convention (lowercase dot-separated \
                segments, e.g. \"ring.enqueues\")"
               s)
      | _ -> ()
    end
  in
  (* Does this guard expression test [Sds_fault.armed ()]?  Sees through
     the common composed forms ([armed () && more], [not (...)],
     parentheses/constraints). *)
  let rec mentions_armed e =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } -> (
      match Longident.flatten txt with
      | [ "Sds_fault"; "armed" ] -> true
      | _ -> false)
    | Pexp_apply (f, args) ->
      mentions_armed f || List.exists (fun (_, a) -> mentions_armed a) args
    | Pexp_constraint (e', _) -> mentions_armed e'
    | _ -> false
  in
  (* Syntactically structured operand: comparing one with polymorphic =
     walks the structure at runtime. *)
  let is_structural e =
    match e.pexp_desc with
    | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
    | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> true
    | Pexp_construct (_, Some _) -> true
    | Pexp_variant (_, Some _) -> true
    | Pexp_constant (Pconst_string _) -> true
    | _ -> false
  in
  let with_attrs attrs k =
    let allows = List.filter_map allow_payload attrs in
    let is_cold = List.exists (attr_is "sds.cold") attrs in
    let saved = !suppressed in
    suppressed := allows @ saved;
    if is_cold then incr cold;
    k ();
    if is_cold then decr cold;
    suppressed := saved
  in
  let default_it = Ast_iterator.default_iterator in
  let expr it e =
    with_attrs e.pexp_attributes (fun () ->
        (match e.pexp_desc with
        | Pexp_ident { txt; loc } -> check_ident txt loc
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident ("=" | "<>"); _ }; _ }, [ (_, a); (_, b) ])
          when check_struct_eq && (is_structural a || is_structural b) ->
          add ~loc:e.pexp_loc rule_compare
            "polymorphic =/<> on a structured value in a data-path library; use a monomorphic \
             equality"
        | Pexp_setfield (_, { txt = fld; _ }, _)
          when check_fence
               && (match List.rev (Longident.flatten fld) with
                  | f :: _ -> List.mem f config.fence_fields
                  | [] -> false) ->
          add ~loc:e.pexp_loc rule_fence
            (Printf.sprintf
               "plain write to %S, a synchronizing field of the checked protocols; the model \
                extraction maps own this name — publish through the Atomic API, or allowlist \
                the file if the structure is provably single-domain"
               (List.hd (List.rev (Longident.flatten fld))))
        | (Pexp_fun _ | Pexp_function _) when !hot > 0 && !cold = 0 ->
          add ~loc:e.pexp_loc rule_hot "closure allocation inside an [@sds.hot] function"
        | Pexp_lazy _ when !hot > 0 && !cold = 0 ->
          add ~loc:e.pexp_loc rule_hot "lazy block allocates inside an [@sds.hot] function"
        | _ -> ());
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) when check_metric ->
          check_registration txt args e.pexp_loc
        | _ -> ());
        match e.pexp_desc with
        | Pexp_fun _ | Pexp_function _ ->
          incr fun_depth;
          default_it.expr it e;
          decr fun_depth
        | Pexp_ifthenelse (cond, then_, else_) when mentions_armed cond ->
          it.Ast_iterator.expr it cond;
          incr fault_gate;
          it.Ast_iterator.expr it then_;
          decr fault_gate;
          Option.iter (it.Ast_iterator.expr it) else_
        | _ -> default_it.expr it e)
  in
  (* [let[@sds.hot] f p1 p2 = body]: the curried parameter chain is the
     function itself, not a nested closure — skip through it, then walk the
     body in hot context. *)
  let value_binding it vb =
    if List.exists (attr_is "sds.hot") vb.pvb_attributes then
      with_attrs vb.pvb_attributes (fun () ->
          it.Ast_iterator.pat it vb.pvb_pat;
          incr hot;
          let rec skip e =
            match e.pexp_desc with
            | Pexp_fun (_, dflt, pat, body) ->
              Option.iter (it.Ast_iterator.expr it) dflt;
              it.Ast_iterator.pat it pat;
              (* The body still sits inside a function for depth-sensitive
                 rules, even though this chain is not a nested closure. *)
              incr fun_depth;
              skip body;
              decr fun_depth
            | Pexp_newtype (_, body) -> skip body
            | Pexp_constraint (body, ty) ->
              it.Ast_iterator.typ it ty;
              skip body
            | _ -> it.Ast_iterator.expr it e
          in
          skip vb.pvb_expr;
          decr hot)
    else default_it.value_binding it vb
  in
  (* [open Atomic] / [module A = Atomic]: escape hatches for the ident rule. *)
  let module_head me =
    match me.pmod_desc with
    | Pmod_ident { txt; loc } -> Some (Longident.flatten txt, loc)
    | _ -> None
  in
  let check_module_path (flat, loc) =
    match flat with
    | "Atomic" :: _ when check_atomic ->
      add ~loc rule_atomic "aliasing/opening Atomic outside the allowlisted lock-free modules"
    | "Obj" :: _ when check_obj ->
      add ~loc rule_obj "aliasing/opening Obj outside the designated safe module"
    | "Sds_fault" :: _ when check_fault && not fault_allowed ->
      add ~loc rule_fault
        "aliasing/opening Sds_fault outside the crash-recovery allowlist"
    | _ -> ()
  in
  let module_expr it me =
    (match module_head me with Some h -> check_module_path h | None -> ());
    default_it.module_expr it me
  in
  let open_description it (od : open_description) =
    check_module_path (Longident.flatten od.popen_expr.txt, od.popen_expr.loc);
    default_it.open_description it od
  in
  let it =
    { default_it with expr; value_binding; module_expr; open_description }
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  (match Parse.implementation lexbuf with
  | str -> it.structure it str
  | exception _ ->
    let p = lexbuf.Lexing.lex_curr_p in
    viols :=
      {
        rule = rule_parse;
        file = path;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        message = "syntax error: file does not parse";
      }
      :: !viols);
  List.rev !viols

(* ---- tree driver ---- *)

let read_file f =
  let ic = open_in_bin f in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ~config ~root ~path =
  lint_source ~config ~path ~source:(read_file (Filename.concat root path))

(* All .ml files under [config.scan_dirs], repo-relative, sorted. *)
let ml_files ~config ~root =
  let acc = ref [] in
  let rec walk rel =
    if not (List.mem rel config.exclude_dirs) then begin
      let abs = Filename.concat root rel in
      match Sys.is_directory abs with
      | true ->
        Array.iter
          (fun entry -> walk (Filename.concat rel entry))
          (Sys.readdir abs)
      | false -> if Filename.check_suffix rel ".ml" then acc := rel :: !acc
      | exception Sys_error _ -> ()
    end
  in
  List.iter (fun d -> if Sys.file_exists (Filename.concat root d) then walk d) config.scan_dirs;
  List.sort String.compare !acc

let check_mli_parity ~config ~root =
  List.filter_map
    (fun path ->
      if in_any path config.mli_dirs && not (Sys.file_exists (Filename.concat root (path ^ "i")))
      then
        Some
          {
            rule = rule_mli;
            file = path;
            line = 1;
            col = 0;
            message = "missing interface: every module under lib/ needs a sibling .mli";
          }
      else None)
    (ml_files ~config ~root)

let lint_tree ~config ~root =
  let per_file =
    List.concat_map (fun path -> lint_file ~config ~root ~path) (ml_files ~config ~root)
  in
  per_file @ check_mli_parity ~config ~root

let pp_violation ppf v =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" v.file v.line v.col v.rule v.message

let to_string v = Format.asprintf "%a" pp_violation v

(* GitHub Actions workflow-command annotation.  Property values escape
   [%%], CR, LF, [,] and [:]; the free-text message escapes only the first
   three. *)
let to_github v =
  let escape ~prop s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '%' -> Buffer.add_string b "%25"
        | '\r' -> Buffer.add_string b "%0D"
        | '\n' -> Buffer.add_string b "%0A"
        | ',' when prop -> Buffer.add_string b "%2C"
        | ':' when prop -> Buffer.add_string b "%3A"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  Printf.sprintf "::error file=%s,line=%d,col=%d,title=%s::%s"
    (escape ~prop:true v.file) v.line v.col
    (escape ~prop:true v.rule)
    (escape ~prop:false v.message)
