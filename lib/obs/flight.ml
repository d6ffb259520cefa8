(* Flight recorder: the last thing the process remembers.

   The recent past is [Obs.Trace]'s per-domain event rings: trace events,
   resolved spans and park→wake edges, read without clearing them.  Next
   to it sits a registry of cold-path state providers — closures that
   render a data structure's current state as text (live rings, waiter
   park flags, pagepool occupancy).  On crash, deadlock or SIGQUIT the
   recorder renders everything — the ring snapshot, every provider, and
   the full metrics snapshot — into one postmortem file.

   Nothing here is on a hot path; dumping, parsing and the watchdog
   allocate freely. *)

(* ---- state providers --------------------------------------------------- *)

let providers : (string * (unit -> string)) list ref = ref []
let providers_mu = Mutex.create ()

let register_state name fn =
  Mutex.lock providers_mu;
  providers := (name, fn) :: List.filter (fun (n, _) -> n <> name) !providers;
  Mutex.unlock providers_mu

(* ---- heartbeat providers ----------------------------------------------- *)

(* Named monotone counters the watchdog samples alongside its [progress]
   closure: a provider returns one (name, value) sample per watched entity
   (e.g. one per enrolled Rt_dom slot).  An entity that disappears from
   the provider's output is simply dropped — providers are expected to
   stop reporting entities whose silence is legitimate (parked, exited). *)
let hb_providers : (string * (unit -> (string * int) list)) list ref = ref []

let register_heartbeats name fn =
  Mutex.lock providers_mu;
  hb_providers := (name, fn) :: List.filter (fun (n, _) -> n <> name) !hb_providers;
  Mutex.unlock providers_mu

(* Flattened "provider/entity" samples; provider exceptions drop the
   provider for that sample round only. *)
let heartbeat_samples () =
  let ps = Mutex.lock providers_mu; let p = !hb_providers in Mutex.unlock providers_mu; p in
  List.concat_map
    (fun (pname, fn) ->
      match fn () with
      | samples -> List.map (fun (n, v) -> (pname ^ "/" ^ n, v)) samples
      | exception _ -> [])
    ps

(* ---- rendering / dumping ----------------------------------------------- *)

let dump_schema = "sds-flight/1"

let render ~reason () =
  let b = Buffer.create 8192 in
  Buffer.add_string b (dump_schema ^ "\n");
  Buffer.add_string b ("reason: " ^ reason ^ "\n");
  Buffer.add_string b "== spans ==\n";
  List.iter
    (fun (e : Obs.Trace.event) ->
      Buffer.add_string b
        (Printf.sprintf "domain=%d kind=%s a=%d b=%d c=%d d=%d\n" e.domain
           (Obs.Trace.tag_name e.tag) e.arg e.b e.c e.ts))
    (Obs.Trace.snapshot ());
  let ps = Mutex.lock providers_mu; let p = !providers in Mutex.unlock providers_mu; p in
  List.iter
    (fun (name, fn) ->
      Buffer.add_string b ("== state:" ^ name ^ " ==\n");
      (match fn () with
      | s -> Buffer.add_string b s
      | exception e -> Buffer.add_string b ("<provider raised: " ^ Printexc.to_string e ^ ">\n"));
      if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '\n' then
        Buffer.add_char b '\n')
    (List.rev ps);
  Buffer.add_string b "== metrics ==\n";
  Buffer.add_string b (Obs.Metrics.to_text ());
  Buffer.add_string b "== end ==\n";
  Buffer.contents b

let default_path () =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "sds-flight-%d.dump" (Unix.getpid ()))

let dump_to_file ?path ~reason () =
  let path = match path with Some p -> p | None -> default_path () in
  let body = render ~reason () in
  let oc = open_out path in
  output_string oc body;
  close_out oc;
  let n = List.length (Obs.Trace.snapshot ()) in
  Obs.Trace.emit_n Obs.Trace.Flight_dump n;
  path

(* ---- dump parsing (tooling and tests) ---------------------------------- *)

type dump = {
  d_reason : string;
  d_records : Obs.Trace.event list;
  d_states : (string * string) list;
  d_metrics : string;
}

let parse_dump body =
  let lines = String.split_on_char '\n' body in
  (match lines with
  | first :: _ when first = dump_schema -> ()
  | _ -> invalid_arg "Obs.Flight.parse_dump: bad header");
  let reason = ref "" and records = ref [] and states = ref [] in
  let metrics = Buffer.create 256 in
  let section = ref `Head in
  let cur_state = ref "" and cur_buf = Buffer.create 256 in
  let flush_state () =
    if !section = `State then states := (!cur_state, Buffer.contents cur_buf) :: !states;
    Buffer.clear cur_buf
  in
  (* [key=value] where [key] starts the line or follows a space, so "d="
     does not match the tail of "kind=". *)
  let str_field line key =
    let pat = key ^ "=" in
    let plen = String.length pat and n = String.length line in
    let rec find i =
      if i + plen > n then None
      else if (i = 0 || line.[i - 1] = ' ') && String.sub line i plen = pat then begin
        let stop = ref (i + plen) in
        while !stop < n && line.[!stop] <> ' ' do Stdlib.incr stop done;
        Some (String.sub line (i + plen) (!stop - i - plen))
      end
      else find (i + 1)
    in
    find 0
  in
  let int_field line key = Option.bind (str_field line key) int_of_string_opt in
  List.iter
    (fun line ->
      if line = "== spans ==" then (flush_state (); section := `Spans)
      else if line = "== metrics ==" then (flush_state (); section := `Metrics)
      else if line = "== end ==" then (flush_state (); section := `End)
      else if String.length line > 9 && String.sub line 0 9 = "== state:" then begin
        flush_state ();
        section := `State;
        let stop = String.length line - 3 in
        cur_state := String.sub line 9 (stop - 9)
      end
      else
        match !section with
        | `Head ->
          if String.length line > 8 && String.sub line 0 8 = "reason: " then
            reason := String.sub line 8 (String.length line - 8)
        | `Spans -> (
          match (int_field line "domain", Option.bind (str_field line "kind") Obs.Trace.tag_of_name) with
          | Some domain, Some tag ->
            let g k = Option.value ~default:0 (int_field line k) in
            records :=
              { Obs.Trace.ts = g "d"; domain; tag; arg = g "a"; b = g "b"; c = g "c" } :: !records
          | _ -> ())
        | `State -> Buffer.add_string cur_buf (line ^ "\n")
        | `Metrics -> Buffer.add_string metrics (line ^ "\n")
        | `End -> ())
    lines;
  {
    d_reason = !reason;
    d_records = List.rev !records;
    d_states = List.rev !states;
    d_metrics = Buffer.contents metrics;
  }

(* ---- crash / signal hooks ---------------------------------------------- *)

let installed = ref false

(* Wire SIGQUIT (^\) and uncaught exceptions to a dump.  Meant for the
   long-running drivers (sdsim, bench); tests trigger dumps explicitly so
   alcotest keeps its own exception reporting. *)
let install ?path () =
  if not !installed then begin
    installed := true;
    (try
       Sys.set_signal Sys.sigquit
         (Sys.Signal_handle (fun _ -> ignore (dump_to_file ?path ~reason:"sigquit" ())))
     with Invalid_argument _ | Sys_error _ -> ());
    Printexc.set_uncaught_exception_handler (fun e bt ->
        (try ignore (dump_to_file ?path ~reason:("crash: " ^ Printexc.to_string e) ())
         with _ -> ());
        Printexc.default_uncaught_exception_handler e bt)
  end

(* ---- zero-progress watchdog -------------------------------------------- *)

type watchdog = {
  mutable w_stop : bool;
  mutable w_fired : string option;
  w_mu : Mutex.t;
  mutable w_thread : Thread.t option;
}

(* Sample [progress] every [interval_s]; after [stalls] consecutive
   unchanged samples, dump with the given reason and stop watching.  The
   progress closure should be a cheap monotone observation (messages
   consumed, engine events executed).

   With [watch_heartbeats] (the default), every registered heartbeat
   sample is watched the same way: a named entity whose value stays
   unchanged for [stalls] consecutive rounds — while the entity keeps
   being reported, i.e. its silence is not legitimate — fires a dump with
   the stalled name in the reason.  Entities that stop being reported are
   forgotten (a parked or exited domain is not a stall).  Slot epochs
   reach the dump through the [rt_dom] state provider. *)
let watchdog ?path ?(reason = "deadlock") ?(watch_heartbeats = true) ~interval_s ~stalls
    ~progress () =
  let w = { w_stop = false; w_fired = None; w_mu = Mutex.create (); w_thread = None } in
  let fire r =
    let p = dump_to_file ?path ~reason:r () in
    Mutex.lock w.w_mu;
    w.w_fired <- Some p;
    Mutex.unlock w.w_mu
  in
  let body () =
    let last = ref (progress ()) in
    let stalled = ref 0 in
    (* name -> (last value, consecutive unchanged rounds) *)
    let hb : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
    let running = ref true in
    while !running do
      Thread.delay interval_s;
      if w.w_stop then running := false
      else begin
        let v = progress () in
        if v <> !last then begin
          last := v;
          stalled := 0
        end
        else begin
          Stdlib.incr stalled;
          if !stalled >= stalls then begin
            fire reason;
            running := false
          end
        end;
        if !running && watch_heartbeats then begin
          let samples = heartbeat_samples () in
          let seen = Hashtbl.create 16 in
          List.iter
            (fun (name, v) ->
              Hashtbl.replace seen name ();
              let stale =
                match Hashtbl.find_opt hb name with
                | Some (prev, n) when prev = v -> n + 1
                | _ -> 0
              in
              Hashtbl.replace hb name (v, stale);
              if stale >= stalls && !running then begin
                fire (Printf.sprintf "heartbeat-stall: %s" name);
                running := false
              end)
            samples;
          (* forget entities no longer reported (parked / exited) *)
          Hashtbl.iter
            (fun name _ -> if not (Hashtbl.mem seen name) then Hashtbl.remove hb name)
            (Hashtbl.copy hb)
        end
      end
    done
  in
  w.w_thread <- Some (Thread.create body ());
  w

let watchdog_fired w =
  Mutex.lock w.w_mu;
  let f = w.w_fired in
  Mutex.unlock w.w_mu;
  f

let watchdog_stop w =
  w.w_stop <- true;
  match w.w_thread with Some t -> Thread.join t | None -> ()
