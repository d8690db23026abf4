(* Seconds on the monotonic clock, with nanosecond resolution: request
   latencies of a few tens of microseconds would otherwise be quantised by
   gettimeofday's microsecond steps. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
