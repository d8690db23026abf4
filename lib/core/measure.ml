open Emc_workloads

(** The measurement substrate of Figure 1's loop: compile the workload at the
    design point's compiler settings (with the machine description matching
    the design point's issue width, as the paper does by building one gcc per
    functional-unit configuration) and simulate it on the design point's
    microarchitecture, returning whole-program cycles.

    Compiled binaries are memoized per (workload, flags, issue-width) and
    measurements per full configuration — D-optimal designs repeat corner
    points, and searches revisit configurations. The measurement memo can
    additionally be backed by a persistent on-disk cache (JSONL, one
    key/value pair per line) that is loaded at {!create} and appended on
    every fresh simulation, so a re-run of an experiment against a warm
    cache performs zero simulations. Batches of independent design points
    ({!respond_many} and friends) fan out across [scale.jobs] forked worker
    processes via {!Emc_par.Par}. *)

(** All three responses of one simulated design point — what crosses the
    wire between a fleet coordinator and its workers. *)
type triple = { t_cycles : float; t_energy : float; t_code_size : float }

type t = {
  scale : Scale.t;
  binaries : (string, Emc_isa.Isa.program) Hashtbl.t;
  results : (string, float) Hashtbl.t;
  cache : out_channel option;  (** append side of the persistent cache *)
  journal : out_channel option;  (** append side of the per-run journal *)
  mutable simulations : int;  (** actual simulator runs (cache misses) *)
  mutable compiles : int;
  mutable binary_hits : int;  (** compile requests served from the memo *)
  mutable result_hits : int;  (** measurements served from the memo *)
  mutable preloaded : int;  (** results loaded from the persistent cache *)
  mutable remote : remote option;
      (** when set (by [Fleet.attach]), batch cache misses are resolved by
          this function instead of local simulation *)
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

(* ---------------- persistent result cache ---------------- *)

(* One JSON object per line. The value is a hex float literal (%h) rather
   than a JSON number: decimal printing is lossy and the cache must
   round-trip bit-identically for warm re-runs to reproduce datasets
   exactly. *)
let cache_line key v =
  Emc_obs.Json.to_string
    (Emc_obs.Json.Obj
       [ ("k", Emc_obs.Json.Str key); ("v", Emc_obs.Json.Str (Printf.sprintf "%h" v)) ])

(* Journal/store header lines ({"schema":...}) are structural, not
   entries: skipped silently so a run journal doubles as a result cache. *)
let cache_entry_of_line line =
  match Emc_obs.Json.parse line with
  | Error _ -> `Malformed
  | Ok j -> (
      if Emc_obs.Json.member "schema" j <> None then `Header
      else
        match (Emc_obs.Json.member "k" j, Emc_obs.Json.member "v" j) with
        | Some (Emc_obs.Json.Str k), Some v -> (
            match Emc_obs.Json.hex_of v with
            | Some f -> `Entry (k, f)
            | None -> `Malformed)
        | _ -> `Malformed)

(* A killed run can leave the file's last line torn mid-write (no trailing
   newline). Loads treat it like any other malformed line; the append side
   must also know, or the next record would be glued onto the torn tail,
   destroying both. *)
let ends_with_newline path =
  match open_in_bin path with
  | exception Sys_error _ -> true
  | ic ->
      let len = in_channel_length ic in
      let r =
        len = 0
        ||
        (seek_in ic (len - 1);
         match input_char ic with '\n' -> true | _ | (exception End_of_file) -> false)
      in
      close_in ic;
      r

let cache_load results path =
  if not (Sys.file_exists path) then (0, 0)
  else begin
    let ic = open_in path in
    let loaded = ref 0 and bad = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match cache_entry_of_line line with
           | `Entry (k, v) ->
               Hashtbl.replace results k v;
               incr loaded
           | `Header -> ()
           | `Malformed -> incr bad
       done
     with End_of_file -> ());
    close_in ic;
    (!loaded, !bad)
  end

let append_line oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let cache_append t key v =
  let line = lazy (cache_line key v) in
  let put = function None -> () | Some oc -> append_line oc (Lazy.force line) in
  put t.cache;
  put t.journal

(* Open the append side of a JSONL file, first terminating any torn
   trailing line so appended records start on a fresh line. *)
let open_append path =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  if not (ends_with_newline path) then begin
    Emc_obs.Log.warn ~src:"measure"
      ~fields:[ ("file", Emc_obs.Json.Str path) ]
      "%s ends mid-line (torn write from a killed run); terminating it before appending" path;
    output_char oc '\n';
    flush oc
  end;
  oc

let cache_open_append = open_append

let load_into results ~what path =
  let loaded, bad = cache_load results path in
  if bad > 0 then
    Emc_obs.Log.warn ~src:"measure"
      ~fields:[ ("file", Emc_obs.Json.Str path); ("lines", Emc_obs.Json.Int bad) ]
      "skipped %d malformed lines in %s %s" bad what path;
  Emc_obs.Log.info ~src:"measure"
    ~fields:[ ("file", Emc_obs.Json.Str path); ("results", Emc_obs.Json.Int loaded) ]
    "%s %s: %d measurements preloaded" what path loaded;
  Metrics.add m_preloaded loaded;
  loaded

let create ?cache_file ?journal_file scale =
  let cache_file =
    match cache_file with Some _ as f -> f | None -> Sys.getenv_opt "EMC_CACHE"
  in
  (* the same file serving as both would double every appended line *)
  let journal_file = if journal_file = cache_file then None else journal_file in
  let results = Hashtbl.create 1024 in
  let cache, preloaded =
    match cache_file with
    | None -> (None, 0)
    | Some path ->
        let loaded = load_into results ~what:"result cache" path in
        (Some (open_append path), loaded)
  in
  let journal, preloaded =
    match journal_file with
    | None -> (None, preloaded)
    | Some path ->
        let loaded = load_into results ~what:"run journal" path in
        (Some (open_append path), preloaded + loaded)
  in
  { scale; binaries = Hashtbl.create 64; results; cache; journal; simulations = 0;
    compiles = 0; binary_hits = 0; result_hits = 0; preloaded; remote = None }

let set_remote t remote = t.remote <- Some remote

let binary_key (w : Workload.t) ~issue_width (flags : Emc_opt.Flags.t) =
  Printf.sprintf "%s|%d|%s" w.name issue_width (Emc_opt.Flags.to_string flags)

let compile t (w : Workload.t) (flags : Emc_opt.Flags.t) ~issue_width =
  let key = binary_key w ~issue_width flags in
  match Hashtbl.find_opt t.binaries key with
  | Some p ->
      t.binary_hits <- t.binary_hits + 1;
      Metrics.incr m_binary_hits;
      p
  | None ->
      let prog =
        Trace.with_span ~cat:"compile"
          ~args:(fun () ->
            [ ("workload", Emc_obs.Json.Str w.name);
              ("issue_width", Emc_obs.Json.Int issue_width) ])
          "compile"
          (fun () -> Emc_codegen.Compiler.compile_source ~issue_width flags w.source)
      in
      t.compiles <- t.compiles + 1;
      Metrics.incr m_compiles;
      Hashtbl.replace t.binaries key prog;
      prog

let setup_func arrays (f : Emc_sim.Func.t) =
  List.iter
    (fun (name, data) ->
      match data with
      | Workload.DInt a -> Array.iteri (fun i v -> Emc_sim.Func.set_global_int f name i v) a
      | Workload.DFloat a -> Array.iteri (fun i v -> Emc_sim.Func.set_global_float f name i v) a)
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

(* All three content addresses of one design point, in [store_triple]'s
   order. *)
let triple_keys (w : Workload.t) ~variant ((flags : Emc_opt.Flags.t), (march : Emc_sim.Config.t)) =
  ( result_key Cycles w ~variant flags march,
    result_key Energy w ~variant flags march,
    result_key CodeSize w ~variant flags march )

let run_sim t (w : Workload.t) ~variant (flags : Emc_opt.Flags.t) (march : Emc_sim.Config.t) =
  Trace.with_span ~cat:"measure"
    ~args:(fun () ->
      [ ("workload", Emc_obs.Json.Str w.name);
        ("variant", Emc_obs.Json.Str (Workload.variant_name variant)) ])
    "measure"
    (fun () ->
      let prog = compile t w flags ~issue_width:march.issue_width in
      let arrays = w.arrays ~scale:t.scale.Scale.workload_scale ~variant in
      let setup = setup_func arrays in
      let t0 = Unix.gettimeofday () in
      let r =
        Trace.with_span ~cat:"sim" "simulate" (fun () ->
            match t.scale.Scale.smarts with
            | Some params -> Emc_sim.Smarts.run_sampled ~params march prog ~setup
            | None -> Emc_sim.Smarts.run_full march prog ~setup)
      in
      Metrics.observe h_sim_seconds (Unix.gettimeofday () -. t0);
      t.simulations <- t.simulations + 1;
      Metrics.incr m_simulations;
      r)

let triple_of_result (r : Emc_sim.Smarts.result) =
  { t_cycles = r.Emc_sim.Smarts.cycles; t_energy = r.Emc_sim.Smarts.energy;
    t_code_size = float_of_int r.Emc_sim.Smarts.static_instrs }

(* one simulation yields all three responses: memoize (and persist) them
   all, in a fixed order so cache/journal files are byte-stable *)
let store_triple t w ~variant flags march (tr : triple) =
  let store resp v =
    let k = result_key resp w ~variant flags march in
    Hashtbl.replace t.results k v;
    cache_append t k v
  in
  store Cycles tr.t_cycles;
  store Energy tr.t_energy;
  store CodeSize tr.t_code_size

let store_all t w ~variant flags march (r : Emc_sim.Smarts.result) =
  store_triple t w ~variant flags march (triple_of_result r)

(** Measured response; results are memoized per full configuration. *)
let respond ?(response = Cycles) t (w : Workload.t) ~variant (flags : Emc_opt.Flags.t)
    (march : Emc_sim.Config.t) =
  let key = result_key response w ~variant flags march in
  match Hashtbl.find_opt t.results key with
  | Some c ->
      t.result_hits <- t.result_hits + 1;
      Metrics.incr m_result_hits;
      c
  | None ->
      let r = run_sim t w ~variant flags march in
      store_all t w ~variant flags march r;
      Hashtbl.find t.results key

(* ---------------- batched / parallel measurement ---------------- *)

(* One worker task: simulate one configuration. Runs in a forked child whose
   memo tables are copy-on-write snapshots of the parent's; the parent
   compiles every needed binary before forking, so the child's compile
   lookup always hits the inherited memo. *)
let sim_task t w ~variant ((flags : Emc_opt.Flags.t), (march : Emc_sim.Config.t)) =
  run_sim t w ~variant flags march

(* Merge a batch of computed triples into the memo (and the persistent
   cache/journal), accounting each exactly as the sequential path would —
   on the coordinator, a point resolved by a remote worker counts as a
   simulation: it is a cache miss that cost one simulator run somewhere. *)
let merge_batch t w ~variant work triples =
  Array.iteri
    (fun j (flags, march) ->
      store_triple t w ~variant flags march triples.(j);
      t.simulations <- t.simulations + 1;
      Metrics.incr m_simulations)
    work

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
  let jobs = t.scale.Scale.jobs in
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
  (* compile in the parent/coordinator, one call per work item in
     sequential order: forked children inherit the binary memo
     copy-on-write (no recompiles, no binaries built twice by sibling
     workers), remote workers compile their own — and either way the
     compile / binary-hit counters advance exactly as the sequential
     path's would *)
  let compile_work () =
    Array.iter
      (fun ((flags : Emc_opt.Flags.t), (march : Emc_sim.Config.t)) ->
        ignore (compile t w flags ~issue_width:march.issue_width))
      work
  in
  match t.remote with
  | Some remote when Array.length work > 0 ->
      compile_work ();
      let triples =
        Trace.with_span ~cat:"measure"
          ~args:(fun () ->
            [ ("workload", Emc_obs.Json.Str w.name);
              ("points", Emc_obs.Json.Int (Array.length pairs));
              ("misses", Emc_obs.Json.Int (Array.length work)) ])
          "measure.fleet"
          (fun () -> remote w ~variant work)
      in
      merge_batch t w ~variant work triples;
      resolve_keys t keys missing
  | _ ->
      if jobs <= 1 || Array.length work <= 1 then
        (* sequential path: byte-for-byte the reference semantics *)
        Array.map (fun (f, m) -> respond ~response t w ~variant f m) pairs
      else begin
        compile_work ();
        let sims =
          Trace.with_span ~cat:"measure"
            ~args:(fun () ->
              [ ("workload", Emc_obs.Json.Str w.name);
                ("points", Emc_obs.Json.Int (Array.length pairs));
                ("misses", Emc_obs.Json.Int (Array.length work));
                ("jobs", Emc_obs.Json.Int jobs) ])
            "measure.batch"
            (fun () -> Emc_par.Par.map ~jobs (sim_task t w ~variant) work)
        in
        merge_batch t w ~variant work (Array.map triple_of_result sims);
        resolve_keys t keys missing
      end

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

(* ---------------- cache maintenance (emc cache) ---------------- *)

type cache_stats = {
  cs_lines : int;  (** non-blank lines in the file *)
  cs_entries : int;  (** well-formed key/value entries *)
  cs_unique : int;  (** distinct keys *)
  cs_duplicates : int;  (** entries repeating an earlier key *)
  cs_headers : int;  (** schema header lines (run journals) *)
  cs_malformed : int;  (** unparseable lines, the torn tail included *)
  cs_torn : bool;  (** the file ends mid-line (torn trailing write) *)
  cs_top_duplicates : (string * int) list;
      (** keys appearing more than once, by occurrence count descending
          (ties broken by key), capped at ten — the hit-key report *)
}

(* One streaming pass shared by report and compact. [emit] sees every line
   that a compacted file keeps, verbatim: schema headers and the first
   occurrence of each key. *)
let cache_scan ?(emit = fun _ -> ()) path =
  let seen = Hashtbl.create 1024 in
  let lines = ref 0 and entries = ref 0 and dups = ref 0 in
  let headers = ref 0 and malformed = ref 0 in
  (if Sys.file_exists path then begin
     let ic = open_in path in
     (try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then begin
            incr lines;
            match cache_entry_of_line line with
            | `Header ->
                incr headers;
                emit line
            | `Malformed -> incr malformed
            | `Entry (k, _) ->
                incr entries;
                (match Hashtbl.find_opt seen k with
                | None ->
                    Hashtbl.add seen k 1;
                    emit line
                | Some n ->
                    Hashtbl.replace seen k (n + 1);
                    incr dups)
          end
        done
      with End_of_file -> ());
     close_in ic
   end);
  let top =
    Hashtbl.fold (fun k n acc -> if n > 1 then (k, n) :: acc else acc) seen []
    |> List.sort (fun (k1, n1) (k2, n2) ->
           if n1 <> n2 then compare n2 n1 else compare k1 k2)
    |> List.filteri (fun i _ -> i < 10)
  in
  { cs_lines = !lines; cs_entries = !entries; cs_unique = Hashtbl.length seen;
    cs_duplicates = !dups; cs_headers = !headers; cs_malformed = !malformed;
    cs_torn = Sys.file_exists path && not (ends_with_newline path);
    cs_top_duplicates = top }

let cache_stats path = cache_scan path

(* Rewrite the file keeping headers and the first occurrence of each key,
   byte-verbatim (the simulator is deterministic, so duplicate keys carry
   identical values; first-wins is the deterministic policy regardless),
   dropping malformed lines and the torn tail. tmp + rename in the same
   directory, so a concurrent reader never sees a half-written file. *)
let cache_compact path =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".compact" in
  let oc = open_out tmp in
  let stats = cache_scan ~emit:(fun line -> append_line oc line) path in
  close_out oc;
  Sys.rename tmp path;
  stats
