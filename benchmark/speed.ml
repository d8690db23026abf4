(* The machine's speed while a run measures. A shared virtual machine
   slows down and speeds up by tens of percent over minutes, as other
   tenants take the host's caches and memory bandwidth, so two runs of the
   same program minutes apart read differently. Each run therefore also
   times a fixed piece of computation written here and never changed,
   between the operations it measures, and rescales the time of each
   operation by the speed measured just before and just after it.

   Two speeds come out of the same samples. A sample is 400 back-to-back
   pieces of about 50 us each. The median piece is the processor's speed
   while this process runs: it is what a request of a few tens of
   microseconds sees, since a request seldom straddles a moment the
   processor was taken away. The whole sample's time also counts those
   moments, as an operation of a second or a set-up of several processes
   does. *)

(* Hashing, allocation, sorting and float arithmetic, the mix the
   program's OCaml code does. On a 2-vCPU machine its time drifted with
   that of the simulator and of model fitting, timed in the same loop
   (correlation 0.98 of the logarithms over 50 windows of 5 s, each
   ranging over 1.4x to 1.6x); an allocation-free arithmetic loop moved a
   seventh as much, and loops over an 8 MB array followed less closely
   (correlation 0.4 to 0.7). No code of the program runs here, so no
   change to the program can change its time. *)
let piece seed =
  let s = ref seed in
  let rand () =
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    !s
  in
  let h = Hashtbl.create 512 in
  for _ = 1 to 320 do
    let k = rand () land 0x3ff in
    Hashtbl.replace h k (Float.of_int k)
  done;
  let sorted = List.sort Float.compare (List.init 320 (fun _ -> Float.of_int (rand ()) *. 1e-3)) in
  List.fold_left (fun acc x -> acc +. sqrt x) (Hashtbl.fold (fun _ v acc -> acc +. v) h 0.0) sorted

let pieces_per_sample = 400

(* Median piece and median sample, in seconds, on the 2-vCPU machine the
   bounds in BENCHMARK.json were calibrated on. *)
let nominal_piece = 50e-6
let nominal_sample = 0.025

(* One run's samples, in the order they were taken. *)
type t = {
  ends : Stat.samples;  (** when each sample ended *)
  samples : Stat.samples;  (** how long each took *)
  pieces : Stat.samples;  (** each one's median piece *)
}

let create () = { ends = Stat.samples (); samples = Stat.samples (); pieces = Stat.samples () }

(* Take [n] samples. *)
let sample ?(n = 1) t =
  let piece_times = Array.make pieces_per_sample 0.0 in
  for _ = 1 to n do
    let t0 = Clock.now () in
    for i = 0 to pieces_per_sample - 1 do
      let t1 = Clock.now () in
      ignore (Sys.opaque_identity (piece i));
      piece_times.(i) <- Clock.now () -. t1
    done;
    let t2 = Clock.now () in
    Stat.push t.samples (t2 -. t0);
    Stat.push t.pieces (Emc_util.Stats.median piece_times);
    Stat.push t.ends t2
  done

(* The samples around an operation that started at [start]: the last
   [window] taken before it and the first [window] after it. *)
let window = 3

let around t start =
  let rec first_after lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.ends.data.(mid) <= start then first_after (mid + 1) hi else first_after lo mid
  in
  let p = first_after 0 t.ends.len in
  (max 0 (p - window), min t.ends.len (p + window))

let factor nominal (s : Stat.samples) t start =
  let lo, hi = around t start in
  if hi = lo then 1.0 else nominal /. Emc_util.Stats.median (Array.sub s.data lo (hi - lo))

(* Multiply the time of an operation that started at [start] by a factor
   to express it at the nominal speed: [short_factor] for requests of
   microseconds, [long_factor] for everything longer. 1 when nothing was
   sampled. *)
let short_factor t start = factor nominal_piece t.pieces t start
let long_factor t start = factor nominal_sample t.samples t start

(* The run's median piece and median sample, in seconds. *)
let median (s : Stat.samples) = if s.len = 0 then nan else Emc_util.Stats.median (Stat.contents s)
