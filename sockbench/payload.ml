(* Seeded message generator and the receive-side checker.

   Message [seq] of [size] bytes (size >= 24) is laid out as
     [0, 8)            seq
     [8, 16)           tag  = mix(seed, seq)
     [16, size - 8)    body = a seed-derived pattern, the same for every message
     [size - 8, size)  tail = mix(tag, size)
   so the header proves order and origin, the tail proves the message
   arrived whole, and the body proves the bytes in between.  Senders keep
   preformatted buffers and restamp only the three words per message.

   The checker reassembles the byte stream into messages (records may split
   or merge messages; the socket layer promises a byte stream only) and
   classifies every failure under a named reason. *)

let min_size = 24

(* splitmix-style 63-bit mixer. *)
let mix a b =
  let x = (a * 0x1E3779B97F4A7C15) lxor b in
  let x = (x lxor (x lsr 31)) * 0x3F58476D1CE4E5B9 in
  let x = (x lxor (x lsr 29)) * 0x14D049BB133111EB in
  x lxor (x lsr 32)

type spec = { seed : int; size : int; pattern : Bytes.t }

let spec ~seed ~size =
  if size < min_size then invalid_arg "Payload.spec: message too small";
  let pattern = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.set_uint8 pattern i (mix seed (i + 1) land 0xFF)
  done;
  { seed; size; pattern }

let tag s seq = mix s.seed seq
let tail s tg = mix tg s.size

(* A sender buffer: the pattern; [stamp] then fills in header and tail. *)
let fresh s = Bytes.copy s.pattern

let stamp s buf seq =
  let tg = tag s seq in
  Bytes.set_int64_le buf 0 (Int64.of_int seq);
  Bytes.set_int64_le buf 8 (Int64.of_int tg);
  Bytes.set_int64_le buf (s.size - 8) (Int64.of_int (tail s tg))

(* ---- failure reasons ---- *)

type reason = Checksum | Short | Missing | Peer_dead | Timeout | Leak

let reasons = [ Checksum; Short; Missing; Peer_dead; Timeout; Leak ]

let reason_name = function
  | Checksum -> "checksum"
  | Short -> "short"
  | Missing -> "missing"
  | Peer_dead -> "peer_dead"
  | Timeout -> "timeout"
  | Leak -> "leak"

let reason_index = function
  | Checksum -> 0
  | Short -> 1
  | Missing -> 2
  | Peer_dead -> 3
  | Timeout -> 4
  | Leak -> 5

(* Per-reason failure counters; one per domain, merged after joins. *)
type fails = int array

let no_fails () = Array.make (List.length reasons) 0
let fail (f : fails) r k = f.(reason_index r) <- f.(reason_index r) + k
let total (f : fails) = Array.fold_left ( + ) 0 f
let add_fails ~(dst : fails) (src : fails) = Array.iteri (fun i c -> dst.(i) <- dst.(i) + c) src

let fails_to_string (f : fails) =
  String.concat " "
    (List.filter_map
       (fun r ->
         let c = f.(reason_index r) in
         if c > 0 then Some (Printf.sprintf "%s=%d" (reason_name r) c) else None)
       reasons)

(* ---- checker ---- *)

type checker = {
  s : spec;
  fails : fails;
  asm : Bytes.t;  (** reassembly buffer for a message split across records *)
  mutable fill : int;
  mutable next : int;  (** expected next sequence number *)
  mutable bytes : int;  (** payload bytes fed *)
  body_mask : int;  (** verify the body of messages with [seq land body_mask = 0] *)
}

(* Large messages verify their body on one message in eight (header and
   tail on every one); small ones on every message. *)
let checker s =
  let body_mask = if s.size > 1024 then 7 else 0 in
  { s; fails = no_fails (); asm = Bytes.create s.size; fill = 0; next = 0; bytes = 0; body_mask }

let body_ok s buf off =
  let p = s.pattern in
  let stop = s.size - 8 in
  let i = ref 16 in
  let ok = ref true in
  while !ok && !i + 8 <= stop do
    if Bytes.get_int64_le buf (off + !i) <> Bytes.get_int64_le p !i then ok := false;
    i := !i + 8
  done;
  while !ok && !i < stop do
    if Bytes.get buf (off + !i) <> Bytes.get p !i then ok := false;
    incr i
  done;
  !ok

(* Verify one whole message at [buf.[off]].  A header that fails its tag
   is corrupt content (checksum) and takes the expected position; a valid
   header ahead of the expected sequence is a gap (missing); one behind it
   is a duplicate (checksum).  Returns the message's sequence number. *)
let verify c buf off =
  let s = c.s in
  let seq = Int64.to_int (Bytes.get_int64_le buf off) in
  let tg = Int64.to_int (Bytes.get_int64_le buf (off + 8)) in
  if tg <> tag s seq then begin
    fail c.fails Checksum 1;
    let seq = c.next in
    c.next <- seq + 1;
    seq
  end
  else begin
    if seq > c.next then fail c.fails Missing (seq - c.next);
    let ok =
      seq >= c.next
      && Int64.to_int (Bytes.get_int64_le buf (off + s.size - 8)) = tail s tg
      && (seq land c.body_mask <> 0 || body_ok s buf off)
    in
    if not ok then fail c.fails Checksum 1;
    if seq >= c.next then c.next <- seq + 1;
    seq
  end

(* Feed a received chunk; [on_msg buf off seq] runs for every whole
   message, in place when the chunk holds it whole at a boundary. *)
let feed c buf ~len ~on_msg =
  c.bytes <- c.bytes + len;
  let size = c.s.size in
  let pos = ref 0 in
  while !pos < len do
    if c.fill = 0 && len - !pos >= size then begin
      let seq = verify c buf !pos in
      on_msg buf !pos seq;
      pos := !pos + size
    end
    else begin
      let k = min (size - c.fill) (len - !pos) in
      Bytes.blit buf !pos c.asm c.fill k;
      c.fill <- c.fill + k;
      pos := !pos + k;
      if c.fill = size then begin
        c.fill <- 0;
        let seq = verify c c.asm 0 in
        on_msg c.asm 0 seq
      end
    end
  done

(* End of a stream whose sender handed [expected] messages to the socket:
   a partial message is short, messages never seen are missing, and the
   byte total must match exactly. *)
let finish c ~expected =
  if c.fill > 0 then begin
    fail c.fails Short 1;
    c.fill <- 0
  end;
  if c.next < expected then fail c.fails Missing (expected - c.next);
  if total c.fails = 0 && c.bytes <> expected * c.s.size then
    fail c.fails (if c.bytes < expected * c.s.size then Short else Checksum) 1
