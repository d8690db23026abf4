(** Tests for the fork-based worker pool and the parallel/cached measurement
    paths built on it: [Par.map] agrees with [Array.map] (order included),
    worker failures surface as exceptions rather than hangs, parallel
    dataset construction is bit-identical to sequential, and a warm
    persistent result cache serves a full re-run with zero simulations. *)

open Emc_core
open Emc_par

let cb = Alcotest.(check bool)
let ci = Alcotest.(check int)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---------------- Par.map ---------------- *)

let test_map_matches_sequential () =
  let xs = Array.init 37 Fun.id in
  let f i = (i * i) + 3 in
  Alcotest.(check (array int)) "jobs=4 = Array.map" (Array.map f xs) (Par.map ~jobs:4 f xs);
  Alcotest.(check (array int)) "jobs=1 = Array.map" (Array.map f xs) (Par.map ~jobs:1 f xs);
  (* more workers than tasks *)
  let small = [| 10; 20; 30 |] in
  Alcotest.(check (array int)) "jobs>n" (Array.map f small) (Par.map ~jobs:8 f small);
  Alcotest.(check (array int)) "empty input" [||] (Par.map ~jobs:4 f [||])

let test_map_preserves_order () =
  (* a non-commutative function of the index: any reordering of results
     across the strided slices would be visible *)
  let xs = Array.init 23 (fun i -> Printf.sprintf "t%d" i) in
  Alcotest.(check (array string)) "index-tagged strings"
    (Array.map String.uppercase_ascii xs)
    (Par.map ~jobs:5 String.uppercase_ascii xs)

let test_worker_exception_surfaces () =
  let f i = if i = 7 then failwith "boom at 7" else i in
  match Par.map ~jobs:3 f (Array.init 12 Fun.id) with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Par.Worker_error msg ->
      cb (Printf.sprintf "message mentions the exception (%s)" msg) true
        (contains ~sub:"boom at 7" msg)

let test_worker_crash_raises () =
  (* a worker that dies without marshalling anything must produce an error,
     not a hang or a partial result *)
  let f i = if i mod 2 = 1 then Unix._exit 9 else i in
  match Par.map ~jobs:2 f (Array.init 8 Fun.id) with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Par.Worker_error msg ->
      cb (Printf.sprintf "crash reported (%s)" msg) true (String.length msg > 0)

let test_worker_killed_mid_batch () =
  (* a worker killed by a signal (not a clean exit) mid-batch: the parent
     must report the kill, not hang on the dead pipe or return a partial
     array *)
  let f i =
    if i = 5 then Unix.kill (Unix.getpid ()) Sys.sigkill;
    i * 2
  in
  match Par.map ~jobs:3 f (Array.init 12 Fun.id) with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Par.Worker_error msg ->
      cb (Printf.sprintf "kill reported (%s)" msg) true (String.length msg > 0)

let test_crash_leaves_counters_consistent () =
  (* metrics merged from workers that did complete must still be exact:
     a crashed batch contributes nothing, and a subsequent successful
     batch on the same tables merges its counters exactly once *)
  let w = Emc_workloads.Registry.find "mcf" in
  let points =
    let rng = Emc_util.Rng.create 99 in
    Emc_doe.Doe.lhs rng Params.space_all 4
  in
  let m = Measure.create { Scale.tiny with Scale.workload_scale = 0.05; jobs = 3 } in
  let sims0 = m.Measure.simulations in
  (* same points through a crashing Par.map first: Measure state untouched *)
  (match Par.map ~jobs:2 (fun _ -> Unix._exit 7) (Array.init 4 Fun.id) with
  | _ -> Alcotest.fail "expected Worker_error"
  | exception Par.Worker_error _ -> ());
  ci "no simulations leaked from the crashed batch" sims0 m.Measure.simulations;
  let y = Measure.cycles_coded_many m w ~variant:Emc_workloads.Workload.Train points in
  ci "successful batch merges once" (Array.length points) (m.Measure.simulations - sims0);
  let m_seq = Measure.create { Scale.tiny with Scale.workload_scale = 0.05; jobs = 1 } in
  let y_seq = Measure.cycles_coded_many m_seq w ~variant:Emc_workloads.Workload.Train points in
  Alcotest.(check (array (float 0.0))) "values unaffected by the earlier crash" y_seq y

let test_default_jobs_env () =
  cb "default_jobs is positive" true (Par.default_jobs () >= 1)

(* ---------------- parallel measurement ---------------- *)

let small_scale jobs = { Scale.tiny with Scale.workload_scale = 0.05; jobs }

let design_points n =
  let rng = Emc_util.Rng.create 123 in
  Emc_doe.Doe.lhs rng Params.space_all n

let test_parallel_dataset_bit_identical () =
  let w = Emc_workloads.Registry.find "gzip" in
  let points = design_points 10 in
  let m_seq = Measure.create (small_scale 1) in
  let m_par = Measure.create (small_scale 4) in
  let d_seq = Modeling.build_dataset m_seq w ~variant:Emc_workloads.Workload.Train points in
  let d_par = Modeling.build_dataset m_par w ~variant:Emc_workloads.Workload.Train points in
  Alcotest.(check (array (float 0.0))) "bit-identical responses"
    d_seq.Emc_regress.Dataset.y d_par.Emc_regress.Dataset.y;
  ci "same simulation count" m_seq.Measure.simulations m_par.Measure.simulations;
  ci "same result-hit count" m_seq.Measure.result_hits m_par.Measure.result_hits;
  ci "same compile count" m_seq.Measure.compiles m_par.Measure.compiles

let test_parallel_dedups_repeated_points () =
  let w = Emc_workloads.Registry.find "mcf" in
  let p = design_points 4 in
  (* duplicate every point: only the unique half may hit the simulator *)
  let doubled = Array.append p p in
  let m = Measure.create (small_scale 4) in
  let y = Measure.cycles_coded_many m w ~variant:Emc_workloads.Workload.Train doubled in
  ci "one simulation per unique point" (Array.length p) m.Measure.simulations;
  ci "duplicates served from the memo" (Array.length p) m.Measure.result_hits;
  for i = 0 to Array.length p - 1 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "dup %d equals original" i)
      y.(i) y.(i + Array.length p)
  done

(* ---------------- persistent result cache ---------------- *)

let with_temp_cache f =
  let path = Filename.temp_file "emc_cache" ".jsonl" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let test_cache_roundtrip_warm_run () =
  with_temp_cache @@ fun path ->
  let w = Emc_workloads.Registry.find "gzip" in
  let points = design_points 6 in
  let variant = Emc_workloads.Workload.Train in
  (* cold run, parallel, writing the cache *)
  let m1 = Measure.create ~cache_file:path (small_scale 4) in
  let y1 = Measure.cycles_coded_many m1 w ~variant points in
  ci "cold run simulates every point" (Array.length points) m1.Measure.simulations;
  ci "nothing preloaded on a cold run" 0 m1.Measure.preloaded;
  (* warm run: a fresh measure against the same cache performs zero
     simulations and reproduces the dataset bit-for-bit *)
  let m2 = Measure.create ~cache_file:path (small_scale 4) in
  cb "cache preloaded" true (m2.Measure.preloaded > 0);
  let y2 = Measure.cycles_coded_many m2 w ~variant points in
  Alcotest.(check (array (float 0.0))) "bit-identical across processes' runs" y1 y2;
  ci "warm run: zero simulations" 0 m2.Measure.simulations;
  ci "warm run: all points from cache" (Array.length points) m2.Measure.result_hits

let test_cache_tolerates_garbage () =
  with_temp_cache @@ fun path ->
  let w = Emc_workloads.Registry.find "gzip" in
  let flags = Emc_opt.Flags.o2 and march = Emc_sim.Config.typical in
  let m1 = Measure.create ~cache_file:path (small_scale 1) in
  let c1 = Measure.cycles m1 w ~variant:Emc_workloads.Workload.Train flags march in
  (* corrupt the file with trailing junk; valid lines must still load *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json at all\n{\"k\":\"orphan\"}\n";
  close_out oc;
  let m2 = Measure.create ~cache_file:path (small_scale 1) in
  let c2 = Measure.cycles m2 w ~variant:Emc_workloads.Workload.Train flags march in
  Alcotest.(check (float 0.0)) "value survives junk lines" c1 c2;
  ci "served from cache" 0 m2.Measure.simulations

(* A result file answers only for the protocol that filled it: the same
   point at another input scale, or unsampled, simulates once and returns
   its own protocol's value, and from then on both rerun from the file. *)
let test_cache_names_protocol () =
  let w = Emc_workloads.Registry.find "mcf" in
  let flags = Emc_opt.Flags.o2 and march = Emc_sim.Config.typical in
  let measure ?cache_file scale =
    let m = Measure.create ?cache_file scale in
    let c = Measure.cycles m w ~variant:Emc_workloads.Workload.Train flags march in
    (c, m.Measure.simulations)
  in
  let across what a b =
    with_temp_cache @@ fun path ->
    let own_a = fst (measure a) and own_b = fst (measure b) in
    cb (what ^ ": the protocols measure differently") true (own_a <> own_b);
    ignore (measure ~cache_file:path a);
    let v, sims = measure ~cache_file:path b in
    ci (what ^ ": the second protocol simulates") 1 sims;
    Alcotest.(check (float 0.0)) (what ^ ": the second protocol's own value") own_b v;
    List.iter
      (fun (scale, own) ->
        let v, sims = measure ~cache_file:path scale in
        ci (what ^ ": a rerun simulates nothing") 0 sims;
        Alcotest.(check (float 0.0)) (what ^ ": a rerun reads its own value") own v)
      [ (a, own_a); (b, own_b) ]
  in
  across "tiny, then quick" Scale.tiny Scale.quick;
  across "sampled, then full detail" Scale.tiny { Scale.tiny with Scale.smarts = None }

let suite =
  [
    ("par.map matches Array.map", `Quick, test_map_matches_sequential);
    ("par.map preserves order", `Quick, test_map_preserves_order);
    ("worker exception surfaces", `Quick, test_worker_exception_surfaces);
    ("worker crash raises", `Quick, test_worker_crash_raises);
    ("worker killed mid-batch raises", `Quick, test_worker_killed_mid_batch);
    ("crash leaves counters consistent", `Slow, test_crash_leaves_counters_consistent);
    ("default jobs from env", `Quick, test_default_jobs_env);
    ("parallel dataset bit-identical", `Slow, test_parallel_dataset_bit_identical);
    ("parallel dedups repeats", `Quick, test_parallel_dedups_repeated_points);
    ("cache round-trip warm run", `Slow, test_cache_roundtrip_warm_run);
    ("cache tolerates garbage", `Quick, test_cache_tolerates_garbage);
    ("persisted results name their protocol", `Quick, test_cache_names_protocol);
  ]
