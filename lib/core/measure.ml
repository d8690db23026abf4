open Emc_workloads

(** The measurement substrate of Figure 1's loop: compile the workload at the
    design point's compiler settings (with the machine description matching
    the design point's issue width, as the paper does by building one gcc per
    functional-unit configuration) and simulate it on the design point's
    microarchitecture, returning whole-program cycles.

    Compiled binaries are memoized per (workload, flags, issue-width) and
    measurements per full configuration — D-optimal designs repeat corner
    points, and searches revisit configurations. Every miss goes through
    {!respond_many}, which resolves it in process, across [scale.jobs]
    forked children ({!Emc_par.Par}) or through an attached fleet, then
    memoizes, persists and counts it in one place. The memo can be backed
    by one result file ({!Result_file}, keys signed with the protocol's
    {!Scale.signature}) that is loaded at {!create} and appended on every
    fresh simulation, so a re-run of an experiment against it performs
    zero simulations. *)

(** All three responses of one simulated design point — what crosses the
    wire between a fleet coordinator and its workers. *)
type triple = { t_cycles : float; t_energy : float; t_code_size : float }

type t = {
  scale : Scale.t;
  binaries : (string, Emc_isa.Isa.program Lazy.t) Hashtbl.t;
      (** lazy builds: a request counts, only forcing compiles *)
  inputs : (string * Workload.variant, (string * Workload.data) list) Hashtbl.t;
      (** generated once, shared by every simulation (loading copies them);
          the key needs no scale, as [scale] is fixed *)
  results : (string, float) Hashtbl.t;
  cache : out_channel option;  (** append side of the result file *)
  mutable simulations : int;  (** actual simulator runs (cache misses) *)
  mutable compiles : int;
  mutable binary_hits : int;  (** compile requests served from the memo *)
  mutable result_hits : int;  (** measurements served from the memo *)
  mutable preloaded : int;  (** results loaded from the result file *)
  mutable remote : remote option;
      (** when set (by [Fleet.attach]), cache misses are resolved by this
          function instead of local simulation *)
  store : Emc_sim.Ooo.store;  (** the machine store every attempt of {!run_sim} is built on *)
}

and remote =
  Emc_workloads.Workload.t ->
  variant:Emc_workloads.Workload.variant ->
  (Emc_opt.Flags.t * Emc_sim.Config.t) array ->
  triple array

module Metrics = Emc_obs.Metrics
module Trace = Emc_obs.Trace

let m_compiles = Metrics.counter "measure.compiles"
let m_binary_hits = Metrics.counter "measure.binary_cache_hits"
let m_simulations = Metrics.counter "measure.simulations"
let m_result_hits = Metrics.counter "measure.result_cache_hits"
let m_preloaded = Metrics.counter "measure.cache_preloaded"

(* Wall-clock seconds per simulator run (cache misses only). The simulator
   is the pipeline's dominant cost and the subject of its perf baseline
   (BENCH_sim.json); exporting the distribution makes a regression visible
   in any experiment's metrics dump, not just in the bench harness. *)
let h_sim_seconds = Metrics.histogram "measure.sim_seconds"

(* A persisted result names the protocol that measured it: its "k" is
   SIG#KEY, SIG being the Measure's [Scale.signature]. The signature sits
   inside the key so that `emc cache` dedup and compaction keep one entry
   per protocol; memo keys stay bare [result_key]s. *)
let signed_prefix scale = Scale.signature scale ^ "#"

let create ?cache_file scale =
  let results = Hashtbl.create 1024 in
  (* unsigned lines and other protocols' are skipped like malformed ones *)
  let preloaded =
    match cache_file with
    | None -> 0
    | Some path ->
        let loaded, bad, foreign = Result_file.load ~prefix:(signed_prefix scale) results path in
        if bad + foreign > 0 then
          Emc_obs.Log.warn ~src:"measure"
            ~fields:
              [ ("file", Emc_obs.Json.Str path); ("malformed", Emc_obs.Json.Int bad);
                ("other_protocol", Emc_obs.Json.Int foreign) ]
            "skipped %d malformed lines and %d unsigned or other-protocol lines in %s" bad
            foreign path;
        Emc_obs.Log.info ~src:"measure"
          ~fields:[ ("file", Emc_obs.Json.Str path); ("results", Emc_obs.Json.Int loaded) ]
          "result file %s: %d measurements preloaded" path loaded;
        Metrics.add m_preloaded loaded;
        loaded
  in
  { scale; binaries = Hashtbl.create 64; inputs = Hashtbl.create 8; results;
    cache = Option.map Result_file.open_append cache_file; simulations = 0; compiles = 0;
    binary_hits = 0; result_hits = 0; preloaded; remote = None; store = Emc_sim.Ooo.store () }

let set_remote t remote = t.remote <- Some remote

let binary_key (w : Workload.t) ~issue_width (flags : Emc_opt.Flags.t) =
  Printf.sprintf "%s|%d|%s" w.name issue_width (Emc_opt.Flags.to_string flags)

(* Request a binary: the memo holds lazy builds, so the request is counted
   (a compile or a binary hit) whether or not anything forces the build —
   a fleet coordinator counts what its workers compile without compiling. *)
let binary t (w : Workload.t) (flags : Emc_opt.Flags.t) ~issue_width =
  let key = binary_key w ~issue_width flags in
  match Hashtbl.find_opt t.binaries key with
  | Some p ->
      t.binary_hits <- t.binary_hits + 1;
      Metrics.incr m_binary_hits;
      p
  | None ->
      let prog =
        lazy
          (Trace.with_span ~cat:"compile"
             ~args:(fun () ->
               [ ("workload", Emc_obs.Json.Str w.name);
                 ("issue_width", Emc_obs.Json.Int issue_width) ])
             "compile"
             (fun () -> Emc_codegen.Compiler.compile_source ~issue_width flags w.source))
      in
      t.compiles <- t.compiles + 1;
      Metrics.incr m_compiles;
      Hashtbl.replace t.binaries key prog;
      prog

let compile t w flags ~issue_width = Lazy.force (binary t w flags ~issue_width)

let inputs t (w : Workload.t) ~variant =
  match Hashtbl.find_opt t.inputs (w.name, variant) with
  | Some arrays -> arrays
  | None ->
      let arrays = w.arrays ~scale:t.scale.Scale.workload_scale ~variant in
      Hashtbl.replace t.inputs (w.name, variant) arrays;
      arrays

(** Which system response to model. The paper's evaluation uses execution
    time; §2.2 points out the same machinery fits power consumption or code
    size, both of which the simulator substrate also reports. *)
type response = Cycles | Energy | CodeSize

let response_name = function Cycles -> "cycles" | Energy -> "energy" | CodeSize -> "code-size"

let result_key response (w : Workload.t) ~variant (flags : Emc_opt.Flags.t)
    (march : Emc_sim.Config.t) =
  Printf.sprintf "%s|%s|%s|%s|%s" (response_name response) w.name
    (Workload.variant_name variant) (Emc_opt.Flags.to_string flags)
    (Emc_sim.Config.to_string march)

(* All three content addresses of one design point, in the order [merge]
   persists them. *)
let triple_keys (w : Workload.t) ~variant ((flags : Emc_opt.Flags.t), (march : Emc_sim.Config.t)) =
  ( result_key Cycles w ~variant flags march,
    result_key Energy w ~variant flags march,
    result_key CodeSize w ~variant flags march )

(* Compile (memoized) and simulate one design point. Runs in process or in
   a forked child, whose memo tables are copy-on-write snapshots of the
   parent's; counting the simulation is [merge]'s job. *)
let run_sim t (w : Workload.t) ~variant ((flags : Emc_opt.Flags.t), (march : Emc_sim.Config.t)) =
  Trace.with_span ~cat:"measure"
    ~args:(fun () ->
      [ ("workload", Emc_obs.Json.Str w.name);
        ("variant", Emc_obs.Json.Str (Workload.variant_name variant)) ])
    "measure"
    (fun () ->
      let prog = compile t w flags ~issue_width:march.issue_width in
      (* the memo's one list per variant: a store whose memory holds it
         already restores only the pages the last attempt wrote. A forked
         child restores its copy-on-write view of the parent's store. *)
      let inputs = inputs t w ~variant and store = t.store in
      let t0 = Unix.gettimeofday () in
      let r =
        Trace.with_span ~cat:"sim" "simulate" (fun () ->
            match t.scale.Scale.smarts with
            | Some params -> Emc_sim.Smarts.run_sampled ~params ~store march prog ~inputs
            | None -> Emc_sim.Smarts.run_full ~store march prog ~inputs)
      in
      Metrics.observe h_sim_seconds (Unix.gettimeofday () -. t0);
      { t_cycles = r.Emc_sim.Smarts.cycles; t_energy = r.Emc_sim.Smarts.energy;
        t_code_size = float_of_int r.Emc_sim.Smarts.static_instrs })

(* The one place a miss becomes a result, whoever resolved it: memoize and
   persist all three responses, in [triple_keys] order so result files are
   byte-stable, and count one simulation — a point resolved by a forked
   child or a fleet worker cost one simulator run somewhere. *)
let merge t w ~variant point (tr : triple) =
  let kc, ke, ks = triple_keys w ~variant point in
  let entries = [ (kc, tr.t_cycles); (ke, tr.t_energy); (ks, tr.t_code_size) ] in
  List.iter (fun (k, v) -> Hashtbl.replace t.results k v) entries;
  Option.iter
    (fun oc ->
      let prefix = signed_prefix t.scale in
      Result_file.append oc (List.map (fun (k, v) -> (prefix ^ k, v)) entries))
    t.cache;
  t.simulations <- t.simulations + 1;
  Metrics.incr m_simulations

(* Every key now resolves from the memo; a point is a cache hit unless it
   is the first occurrence of a key we just computed. *)
let resolve_keys t keys missing =
  let first = Hashtbl.create 32 in
  Array.map
    (fun k ->
      let v = Hashtbl.find t.results k in
      if Hashtbl.mem missing k && not (Hashtbl.mem first k) then Hashtbl.add first k ()
      else begin
        t.result_hits <- t.result_hits + 1;
        Metrics.incr m_result_hits
      end;
      v)
    keys

let respond_many ?(response = Cycles) t (w : Workload.t) ~variant
    (pairs : (Emc_opt.Flags.t * Emc_sim.Config.t) array) =
  let keys = Array.map (fun (f, m) -> result_key response w ~variant f m) pairs in
  (* unique uncached configurations, in first-occurrence order: D-optimal
     designs repeat corner points, and simulating a duplicate twice would
     waste a worker *)
  let missing = Hashtbl.create 32 in
  let work = ref [] in
  Array.iteri
    (fun i k ->
      if not (Hashtbl.mem t.results k || Hashtbl.mem missing k) then begin
        Hashtbl.add missing k ();
        work := pairs.(i) :: !work
      end)
    keys;
  let work = Array.of_list (List.rev !work) in
  let jobs = t.scale.Scale.jobs in
  (* binaries are requested in work order, so the compile and binary-hit
     counters advance as the in-process resolver's do *)
  let request (flags, (march : Emc_sim.Config.t)) =
    binary t w flags ~issue_width:march.issue_width
  in
  let batch name resolve =
    Trace.with_span ~cat:"measure"
      ~args:(fun () ->
        [ ("workload", Emc_obs.Json.Str w.name);
          ("points", Emc_obs.Json.Int (Array.length pairs));
          ("misses", Emc_obs.Json.Int (Array.length work)); ("jobs", Emc_obs.Json.Int jobs) ])
      name resolve
    |> Array.iteri (fun j tr -> merge t w ~variant work.(j) tr)
  in
  (match t.remote with
  | _ when Array.length work = 0 -> ()
  | Some remote ->
      (* the workers build what they simulate: request, never force *)
      Array.iter (fun p -> ignore (request p)) work;
      batch "measure.fleet" (fun () -> remote w ~variant work)
  | None when jobs <= 1 || Array.length work = 1 ->
      (* merged point by point, so a killed run keeps every point it
         finished *)
      Array.iter (fun p -> merge t w ~variant p (run_sim t w ~variant p)) work
  | None ->
      (* build before forking: children inherit the binaries, so none is
         built twice by sibling workers *)
      Array.iter (fun p -> ignore (Lazy.force (request p))) work;
      batch "measure.batch" (fun () -> Emc_par.Par.map ~jobs (run_sim t w ~variant) work));
  resolve_keys t keys missing

(** Measured response; results are memoized per full configuration. *)
let respond ?response t w ~variant flags march =
  (respond_many ?response t w ~variant [| (flags, march) |]).(0)

let cycles_many t w ~variant pairs = respond_many ~response:Cycles t w ~variant pairs

let respond_coded_many ?response t w ~variant (points : float array array) =
  respond_many ?response t w ~variant (Array.map Params.configs_of_coded points)

let cycles_coded_many t w ~variant points =
  respond_coded_many ~response:Cycles t w ~variant points

(** Measured execution time, in cycles. *)
let cycles t w ~variant flags march = respond ~response:Cycles t w ~variant flags march

(** Measure at a coded 25-dimensional design point. *)
let cycles_coded t w ~variant coded =
  let flags, march = Params.configs_of_coded coded in
  cycles t w ~variant flags march

(** Measure an arbitrary response at a coded design point. *)
let respond_coded ?response t w ~variant coded =
  let flags, march = Params.configs_of_coded coded in
  respond ?response t w ~variant flags march
