(* Order statistics behind every number the benchmark prints. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks on the sorted samples
   (rank q·(n−1)), the usual definition of a sample percentile. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let s = sorted a in
  let r = Float.min 1. (Float.max 0. q) *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  s.(lo) +. ((r -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = percentile a 0.5

(* Python's [statistics.quantiles(data, n=4)] with its default
   "exclusive" method, reproduced to the operation so the spread this
   benchmark reports is the spread an outside checker computes from the
   same values. *)
let quartiles a =
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let s = sorted a in
  let n = 4 and m = ld + 1 in
  Array.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((s.(j - 1) *. float_of_int (n - delta)) +. (s.(j) *. float_of_int delta))
      /. float_of_int n)

(* Inter-quartile distance as a share of the median — the steadiness
   figure a metric's bound is compared against. *)
let spread a =
  let q = quartiles a in
  let med = median a in
  if med = 0. then if q.(2) -. q.(0) = 0. then 0. else infinity
  else (q.(2) -. q.(0)) /. Float.abs med

(* Growable float buffer for per-request samples. *)
module Samples = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.sub t.data 0 t.len

  (* 0 for an empty buffer: a layer the workload never calls reads 0. *)
  let percentile t q = if t.len = 0 then 0. else percentile (to_array t) q
  let median t = percentile t 0.5
end
