(* Latency histograms for the benchmark's own spans, and percentile
   extraction with sample-count discipline.

   A percentile p is only reported when at least ten samples lie beyond
   it (n * (1 - p) >= 10): a p99 needs 1000 samples, a p50 twenty.
   Below that it is [None], which the report prints as
   [insufficient_samples] next to the sample count. *)

(* Log-linear buckets: values below 32 exactly, above that 32 sub-buckets
   per power of two (about 3 % resolution).  Recording is one index
   computation and one store, no allocation. *)
let sub_bits = 5
let sub = 1 lsl sub_bits
let nbuckets = (62 - sub_bits + 1) * sub

type t = { counts : int array; mutable n : int; mutable max : int }

let create () = { counts = Array.make nbuckets 0; n = 0; max = 0 }

let[@inline] index v =
  if v < sub then if v < 0 then 0 else v
  else
    let e = Sds_obs.Obs.log2_floor v in
    ((e - sub_bits + 1) lsl sub_bits) lor ((v lsr (e - sub_bits)) land (sub - 1))

let record t v =
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  if v > t.max then t.max <- v

let count t = t.n
let max_sample t = t.max

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  if src.max > dst.max then dst.max <- src.max

(* Midpoint of bucket [i]. *)
let value_of i =
  if i < sub then float_of_int i
  else
    let e = (i lsr sub_bits) + sub_bits - 1 in
    let m = i land (sub - 1) in
    let width = 1 lsl (e - sub_bits) in
    float_of_int (((sub + m) lsl (e - sub_bits)) + (width / 2))

let enough ~n p = float_of_int n *. (1. -. p) >= 10.

(* Rank of the p-quantile among [n] samples, 1-based. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n))))

let percentile t p =
  if not (enough ~n:t.n p) then None
  else begin
    let r = rank ~n:t.n p in
    let i = ref 0 and cum = ref t.counts.(0) in
    while !cum < r do
      incr i;
      cum := !cum + t.counts.(!i)
    done;
    Some (value_of !i)
  end

(* Exact median of a float sample (empty -> nan). *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
