(* Shared scaffolding for the simulation test-suites. *)

open Sds_sim
open Sds_transport

type world = { engine : Engine.t; cost : Cost.t; rng : Rng.t; mutable hosts : Host.t list }

let make_world ?(cost = Cost.default) ?(seed = 42) () =
  { engine = Engine.create (); cost; rng = Rng.create ~seed; hosts = [] }

let add_host ?(cores = 16) ?(rdma = true) w =
  let id = List.length w.hosts in
  let h = Host.create w.engine ~cost:w.cost ~id ~cores ~rdma ~rng:w.rng () in
  w.hosts <- w.hosts @ [ h ];
  h

(* Run [main] as a simulated proc and drive the engine until it completes
   (or [horizon] simulated nanoseconds pass).  Raises if the proc raised. *)
let run ?(horizon = 10_000_000_000) w main =
  let finished = ref false in
  let _p =
    Proc.spawn w.engine ~name:"test-main" (fun () ->
        main ();
        finished := true)
  in
  Engine.run ~until:horizon w.engine;
  if not !finished then failwith "simulation horizon reached before test main finished"

(* Spawn a background participant (server etc.). *)
let spawn w name fn = Proc.spawn w.engine ~name fn

(* Busy-wait (in simulated time) until a condition set by another proc. *)
let wait_for flag =
  while not !flag do
    Proc.sleep_ns 1_000
  done

let check_bytes msg expected actual =
  Alcotest.(check string) msg (Bytes.to_string expected) (Bytes.to_string actual)

(* Ring conveniences over the packed primitives.  [Spsc_ring] exports only
   what the data path runs; tests that want an allocated payload, an
   option, a list or a blocking enqueue build it here from [peek_packed] +
   [try_dequeue_packed] and [try_enqueue] + [wait_tx]. *)
module Ring = struct
  module R = Sds_ring.Spsc_ring

  type msg = { data : Bytes.t; flags : int }

  let peek_len r =
    let p = R.peek_packed r in
    if p = R.no_msg then None else Some (R.packed_len p)

  let dequeue_into ?auto_credit r ~dst ~dst_off =
    let p = R.try_dequeue_packed ?auto_credit r ~dst ~dst_off in
    if p = R.no_msg then None else Some (R.packed_len p, R.packed_flags p)

  let dequeue ?auto_credit r =
    match peek_len r with
    | None -> None
    | Some len ->
      let data = Bytes.create len in
      Option.map (fun (_, flags) -> { data; flags }) (dequeue_into ?auto_credit r ~dst:data ~dst_off:0)

  let rec dequeue_batch ?auto_credit r ~max =
    if max = 0 then []
    else
      match dequeue ?auto_credit r with
      | None -> []
      | Some m -> m :: dequeue_batch ?auto_credit r ~max:(max - 1)

  let rec enqueue_blocking ?flags r src ~off ~len =
    if not (R.try_enqueue ?flags r src ~off ~len) then begin
      R.wait_tx r ~len;
      enqueue_blocking ?flags r src ~off ~len
    end
end

(* Pages of every live [Pagepool], read from the [pool.pages] gauge after
   two full major collections, so pools that just became unreachable have
   been finalised and left the count. *)
let live_pool_pages () =
  Gc.full_major ();
  Gc.full_major ();
  Sds_obs.Obs.Metrics.gauge_value (Sds_obs.Obs.Metrics.gauge "pool.pages")
