(* Order statistics for the benchmark's reports. *)

let median = function [] -> nan | xs -> Emc_util.Stats.median (Array.of_list xs)

(* The reporting rule: a percentile is shown only when at least ten
   samples lie beyond it, so p50 needs 20 samples, p90 100 and p99 1000.
   Below that, a tail number is one or two outliers, not a distribution. *)
let min_samples p = int_of_float (Float.ceil (10.0 *. 100.0 /. (100.0 -. p)))

let percentile (xs : float array) p =
  if Array.length xs < min_samples p then None else Some (Emc_util.Stats.percentile xs p)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q = Emc_util.Stats.quantiles (Array.of_list xs) 4 in
  (q.(2) -. q.(0)) /. Float.abs (median xs)

(* A growable float array: hundreds of thousands of latency samples
   without a cons cell each, so the harness's own memory barely depends on
   how many requests a run completed. *)
type samples = { mutable data : float array; mutable len : int }

let samples () = { data = Array.make 4096 0.0; len = 0 }

let push s v =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- v;
  s.len <- s.len + 1

let contents s = Array.sub s.data 0 s.len
