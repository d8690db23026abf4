(* The repository benchmark: four workloads, each timed end to end, and a
   traced mode that splits the same work by layer. How to run it, why each
   workload exists and which layer metric should move which end-to-end
   metric: benchmark/README.md. *)

open Emc_core
open Emc_bench
module J = Emc_obs.Json
module Http = Emc_serve.Http
module Rng = Emc_util.Rng
module Dataset = Emc_regress.Dataset
module Model = Emc_regress.Model
module Workload = Emc_workloads.Workload
module Fleet = Emc_fleet.Fleet

let now = Clock.now
let span = Spans.with_span

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* [timed], with the moment [f] started *)
let timed_at f =
  let t0 = now () in
  let v = f () in
  ((t0, now () -. t0), v)

let sum = List.fold_left ( +. ) 0.0

(* ---------------- one workload run ---------------- *)

type run = {
  name : string;
  seed : int;
  seconds : float;
  traced : bool;
  dir : string;  (** private working directory, relative to the checkout root *)
  emc : string;  (** the built bin/emc.exe the daemons are exec'd from *)
  golden : int * (string * string) list;  (** benchmark/golden.json: its seed and digests *)
  layer : (string, float) Hashtbl.t;  (** per-layer metrics *)
  acc : (string, float) Hashtbl.t;  (** counts summed over traced rounds *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable daemon_kb : int;  (** largest VmHWM seen among the stopped daemons *)
  speed : Speed.t;  (** the reference computation's samples, taken between operations *)
}

(* What a workload measured, each time with the moment it started:
   set-ups, operation latencies, the stretches of wall clock the
   operations ran in, and the peak resident memory of the processes under
   test (kB). [short_ops]: the operations are requests of microseconds,
   whose latency is rescaled by the processor's speed alone (Speed). *)
type e2e = {
  setups : (float * float) list;
  op_starts : float array;
  ops : float array;
  short_ops : bool;
  phases : (float * float) list;
  peak_kb : int;
}

(* Operations that ran back to back, each its own stretch of the phase. *)
let of_rounds ~setups ~peak_kb rounds =
  { setups; op_starts = Array.of_list (List.map fst rounds); ops = Array.of_list (List.map snd rounds);
    short_ops = false; phases = rounds; peak_kb }

let set r name v = Hashtbl.replace r.layer name v
let set_opt r name = Option.iter (set r name)
let bump r name v = Hashtbl.replace r.acc name (v +. Option.value ~default:0.0 (Hashtbl.find_opt r.acc name))
let got r name = Option.value ~default:0.0 (Hashtbl.find_opt r.acc name)

let problem r fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("FAIL " ^ r.name ^ ": " ^ msg);
      r.problems <- msg :: r.problems)
    fmt

let check r ok fmt = Printf.ksprintf (fun msg -> if not ok then problem r "%s" msg) fmt

let op_failed r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      if r.failed <= 5 then prerr_endline ("FAILED OP " ^ r.name ^ ": " ^ msg))
    fmt

(* Every digest is printed. On the golden seed — on every seed, for
   inputs that do not depend on it — it must also match
   benchmark/golden.json under [golden_key] (default: workload/key). *)
let digest r ?(any_seed = false) ?golden_key key value =
  let gk = Option.value golden_key ~default:(r.name ^ "/" ^ key) in
  let gseed, g = r.golden in
  Printf.eprintf "digest %s/%s %s\n%!" r.name key value;
  if any_seed || r.seed = gseed then
    match List.assoc_opt gk g with
    | Some v when v = value -> ()
    | Some v -> problem r "golden %s: expected %s, got %s" gk v value
    | None -> problem r "golden %s: no entry in benchmark/golden.json" gk

let counter name = Option.value ~default:0 (Emc_obs.Metrics.counter_value name)

let sub_seed r k = (r.seed * 1000) + k

(* Run [round k] back to back while at least half of the last round's
   time is left in the budget; [round] returns false to stop early. The
   machine's speed is sampled before every round and after the last. *)
let rounds r round =
  let t0 = now () in
  let rec go k last =
    if k = 0 || now () -. t0 +. (0.5 *. last) < r.seconds then begin
      Speed.sample ~n:Speed.window r.speed;
      let t1 = now () in
      if round k then go (k + 1) (now () -. t1)
    end
  in
  go 0 0.0;
  Speed.sample ~n:Speed.window r.speed

(* ---------------- processes ---------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident memory of a process, kB (0 once it is gone). *)
let peak_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
          | _ -> None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:0

let own_peak_kb () = peak_kb (Unix.getpid ())

let rec descendants pid =
  match read_file (Printf.sprintf "/proc/%d/task/%d/children" pid pid) with
  | exception Sys_error _ -> []
  | s ->
      String.split_on_char ' ' (String.trim s)
      |> List.filter_map int_of_string_opt
      |> List.concat_map (fun k -> k :: descendants k)

(* Gone, or a zombie nobody will reap for us. *)
let ended pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> true
  | s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] = 'Z'
      | _ -> true)

let rec poll ~deadline f = f () || (now () < deadline && (Unix.sleepf 0.001; poll ~deadline f))

type daemon = { d_name : string; pid : int }

let live : daemon list ref = ref []

let tree_peak_kb d = List.fold_left (fun acc p -> max acc (peak_kb p)) 0 (d.pid :: descendants d.pid)

let daemon_env r =
  let tmp = Filename.concat (Sys.getcwd ()) r.dir in
  Array.append
    [| "TMPDIR=" ^ tmp |]
    (Array.of_list
       (List.filter
          (fun kv -> not (String.starts_with ~prefix:"TMPDIR=" kv))
          (Array.to_list (Unix.environment ()))))

let spawn r name args =
  let log =
    Unix.openfile (Filename.concat r.dir (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Unix.create_process_env r.emc (Array.of_list (r.emc :: args)) (daemon_env r) Unix.stdin
          log log)
  in
  let d = { d_name = name; pid } in
  live := d :: !live;
  d

let reap pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* SIGTERM, wait, SIGKILL if it will not go; then wait for whatever the
   daemon forked (serve workers, the fleet heartbeater) to end as well. *)
let stop r d =
  r.daemon_kb <- max r.daemon_kb (tree_peak_kb d);
  let tree = d.pid :: descendants d.pid in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  if not (poll ~deadline:(now () +. 10.0) (fun () -> reap d.pid)) then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (poll ~deadline:(now () +. 5.0) (fun () -> reap d.pid))
  end;
  List.iter
    (fun p ->
      if not (poll ~deadline:(now () +. 5.0) (fun () -> ended p)) then
        try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
    (List.tl tree);
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* A one-shot command: run it to completion, output into the run directory. *)
let run_emc r args =
  let out =
    Unix.openfile (Filename.concat r.dir "command.out")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close out) (fun () ->
        Unix.create_process_env r.emc (Array.of_list (r.emc :: args)) (daemon_env r) Unix.stdin
          out out)
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith ("emc " ^ String.concat " " args ^ " failed")
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* ---------------- HTTP ---------------- *)

let request ~meth ~path ?(id = "") ?(body = "") () =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: emc-bench\r\n%sContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    meth path
    (if id = "" then "" else "X-Request-Id: " ^ id ^ "\r\n")
    (String.length body) body

let connect sock () =
  Result.map_error Http.error_to_string (Http.connect ~timeout:5.0 (Unix.ADDR_UNIX sock))

let rpc ?(meth = "GET") ?(body = "") sock path =
  match connect sock () with
  | Error e -> Error e
  | Ok fd ->
      Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Closed_loop.write_all fd (request ~meth ~path ~body ()) 0 with
          | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
          | () -> Result.map_error Http.error_to_string (Http.read_response ~timeout:5.0 fd))

let healthy sock =
  match rpc sock "/healthz" with Ok resp -> resp.Http.status = 200 | Error _ -> false

let wait_ready d ready =
  let exited = ref false in
  let ok =
    poll ~deadline:(now () +. 30.0) (fun () ->
        ready ()
        ||
        (exited := reap d.pid;
         !exited))
  in
  if !exited || not ok then failwith (d.d_name ^ " did not become ready")

let body_json (resp : Http.response) = J.parse resp.Http.resp_body

(* ---------------- the pipeline, untraced and rebuilt from its parts ---------------- *)

type build = { train : Dataset.t; test : Dataset.t; models : (string * Model.t) list }

let family_key = function Modeling.Linear -> "linear" | Modeling.Mars -> "mars" | Modeling.Rbf -> "rbf"
let names = Params.names Params.all_specs
let rank_fit ~seed train = Emc_regress.Rank.fit ~names ~rng:(Rng.create (seed + 2)) train

let data_digest b =
  Bits.of_floats (Array.to_list b.train.Dataset.x @ [ b.train.y ] @ Array.to_list b.test.x @ [ b.test.y ])

let models_digest b =
  Bits.of_strings
    (List.map
       (fun (k, m) -> Printf.sprintf "%s=%h" k (Emc_regress.Metrics.mape m.Model.predict b.test))
       b.models)

(* The body of [emc model]: designs, measurements, the three families and
   the ranking model. *)
let model_build ?attach ?cache_file ~scale ~seed w =
  let ex = Experiments.create ~seed ~scale ?cache_file () in
  Option.iter (fun f -> f ex.Experiments.measure) attach;
  let d = Experiments.prepare ex w in
  let models =
    List.map (fun t -> (family_key t, Experiments.model_of d t)) Modeling.all_techniques
    @ [ ("rank", rank_fit ~seed d.Experiments.train) ]
  in
  (ex, d, { train = d.Experiments.train; test = d.Experiments.test; models })

(* [model_build] rebuilt from its parts, each call in a span of its layer;
   the digests must equal the untraced ones. [remote] mirrors the fleet
   coordinator: compile every miss of a batch, then resolve the batch
   through the fleet. Returns the (flags, width) pairs compiled. *)
let traced_build ?(remote = false) r ~scale ~seed m w =
  let compiled = ref [] in
  let compile (flags : Emc_opt.Flags.t) width =
    let before = m.Measure.compiles in
    ignore
      (span ~layer:"compile" "Measure.compile" (fun () -> Measure.compile m w flags ~issue_width:width));
    if m.Measure.compiles > before then compiled := (flags, width) :: !compiled
  in
  let missing (flags, march) =
    not (Hashtbl.mem m.Measure.results (Measure.result_key Measure.Cycles w ~variant:Workload.Train flags march))
  in
  let measure pts =
    let pairs = Array.map Params.configs_of_coded pts in
    let ys =
      if remote then begin
        let work = List.sort_uniq compare (List.filter missing (Array.to_list pairs)) in
        bump r "fleet.work" (float_of_int (List.length work));
        List.iter (fun (f, (march : Emc_sim.Config.t)) -> compile f march.issue_width) work;
        span ~layer:"fleet" "resolve" (fun () -> Measure.cycles_many m w ~variant:Workload.Train pairs)
      end
      else
        Array.map
          (fun ((f, (march : Emc_sim.Config.t)) as p) ->
            if missing p then begin
              compile f march.issue_width;
              span ~layer:"sim" "simulate" (fun () -> Measure.cycles m w ~variant:Workload.Train f march)
            end
            else span ~layer:"measure" "lookup" (fun () -> Measure.cycles m w ~variant:Workload.Train f march))
          pairs
    in
    Dataset.create (Array.map Array.copy pts) ys
  in
  let rng = Rng.split (Rng.create seed) in
  let space = Params.space_all in
  let train_pts =
    span ~layer:"doe" "Doe.generate" (fun () ->
        Emc_doe.Doe.generate ~sweeps:scale.Scale.doe_sweeps ~cand_factor:scale.Scale.doe_cand_factor rng
          space ~n:scale.Scale.train_n)
  in
  let test_pts = span ~layer:"doe" "Doe.lhs" (fun () -> Emc_doe.Doe.lhs rng space scale.Scale.test_n) in
  let train = measure train_pts in
  let test = measure test_pts in
  let fit t =
    let k = family_key t in
    (k, span ~layer:"regress" ("fit." ^ k) (fun () -> Modeling.fit t train))
  in
  let models =
    List.map fit Modeling.all_techniques
    @ [ ("rank", span ~layer:"regress" "fit.rank" (fun () -> rank_fit ~seed train)) ]
  in
  bump r "measure.compiles" (float_of_int m.Measure.compiles);
  bump r "measure.simulations" (float_of_int m.Measure.simulations);
  bump r "measure.result_hits" (float_of_int m.Measure.result_hits);
  ({ train; test; models }, List.rev !compiled)

(* lang, opt and codegen: the stages [Measure.compile] runs, called one by
   one over the (flags, width) pairs a round compiled. The result must be
   the binary [Measure.compile] built. *)
let compile_pass r m w compiled =
  span ~layer:"harness" "compile-pass" (fun () ->
      List.iter
        (fun ((flags : Emc_opt.Flags.t), width) ->
          let ir = span ~layer:"lang" "Minic.compile_exn" (fun () -> Emc_lang.Minic.compile_exn w.Workload.source) in
          bump r "opt.ir_in" (float_of_int (Emc_ir.Ir.instr_count ir));
          let opt =
            span ~layer:"opt" "Pipeline.optimize" (fun () -> Emc_opt.Pipeline.optimize ~issue_width:width flags ir)
          in
          bump r "opt.ir_out" (float_of_int (Emc_ir.Ir.instr_count opt));
          let prog =
            span ~layer:"codegen" "Codegen.emit_program" (fun () ->
                Emc_codegen.Codegen.emit_program ~omit_frame_pointer:flags.omit_frame_pointer opt)
          in
          let prog =
            if flags.schedule_insns2 then
              span ~layer:"codegen" "Postsched.run" (fun () ->
                  Emc_codegen.Postsched.run (Emc_isa.Isa.machine_for_width width) prog)
            else prog
          in
          bump r "codegen.insts" (float_of_int (Array.length prog.Emc_isa.Isa.insts));
          check r
            (prog.Emc_isa.Isa.insts = (Measure.compile m w flags ~issue_width:width).Emc_isa.Isa.insts)
            "stage-by-stage compile of %s differs from Measure.compile" (Emc_opt.Flags.to_string flags))
        compiled)

(* Any seed: re-simulate four measured points in a fresh Measure. The
   simulator is deterministic, so every bit must agree. *)
let recheck r ~scale w (d : Dataset.t) =
  let m = Measure.create scale in
  Array.iteri
    (fun i x ->
      if i < 4 then
        let v = Measure.cycles_coded m w ~variant:Workload.Train x in
        check r (Bits.same_bits v d.Dataset.y.(i)) "re-simulated point %d: %h, measured %h" i v
          d.Dataset.y.(i))
    d.Dataset.x

(* Per-layer metrics of a traced pipeline run, normalised per traced
   round so they do not depend on how many rounds fit in the budget. *)
let layer_metrics r ~rounds =
  let sp = Spans.spans () in
  let n = float_of_int (max 1 rounds) in
  let self l = Spans.self_time sp l in
  let total name = Array.fold_left ( +. ) 0.0 (Spans.durations sp ~name) in
  let ms name p = Option.map (fun v -> v *. 1000.0) (Stat.percentile (Spans.durations sp ~name) p) in
  set r "lang.busy_s" (self "lang" /. n);
  set r "opt.busy_s" (self "opt" /. n);
  set r "codegen.busy_s" (self "codegen" /. n);
  List.iter (fun k -> set r k (got r k /. n)) [ "opt.ir_in"; "opt.ir_out"; "codegen.insts" ];
  set r "measure.compile_s" (self "compile" /. n);
  set_opt r "measure.compile_ms.p50" (ms "Measure.compile" 50.0);
  set r "measure.compiles" (got r "measure.compiles" /. n);
  set r "measure.simulations" (got r "measure.simulations" /. n);
  (let hits = got r "measure.result_hits" in
   let lookups = hits +. got r "measure.simulations" in
   if lookups > 0.0 then set r "measure.hit_ratio" (hits /. lookups));
  set r "sim.busy_s" (self "sim" /. n);
  set_opt r "sim.point_ms.p50" (ms "simulate" 50.0);
  set_opt r "sim.point_ms.p90" (ms "simulate" 90.0);
  if self "sim" > 0.0 then set r "sim.minstr_per_s" (got r "sim.instrs" /. self "sim" /. 1e6);
  set r "doe.generate_s" (total "Doe.generate" /. n);
  set r "doe.lhs_s" (total "Doe.lhs" /. n);
  List.iter
    (fun k -> set r ("regress.fit_s." ^ k) (total ("fit." ^ k) /. n))
    [ "linear"; "mars"; "rbf"; "rank"; "energy" ];
  set r "trace.unattributed_ratio" (self "harness" /. Spans.wall sp)

(* Traced and untraced round times of the same work. *)
let overhead r ~traced ~untraced =
  if traced <> [] && untraced <> [] then
    set r "trace.overhead_ratio" (Stat.median traced /. Stat.median untraced)

(* ---------------- pipeline-cold ---------------- *)

let pipeline_cold r =
  let scale = Scale.tiny in
  let programs = List.map (fun n -> (n, Emc_workloads.Registry.find n)) [ "gzip"; "mcf" ] in
  (* a cold model build has no set-up of its own beyond starting the
     program, module initialisers included; the first starts are warm-up *)
  for _ = 1 to 3 do
    run_emc r [ "params" ]
  done;
  let setups =
    List.init 50 (fun i ->
        if i mod 5 = 0 then Speed.sample r.speed;
        fst (timed_at (fun () -> run_emc r [ "params" ])))
  in
  let ops = ref [] and per_program = Hashtbl.create 2 in
  let traced_t = ref [] and untraced_t = ref [] and traced_rounds = ref 0 in
  rounds r (fun k ->
      let seed = sub_seed r k and start = now () in
      r.attempted <- r.attempted + 1;
      match
        List.map
          (fun (pname, w) ->
            let t, (_, _, b) = timed (fun () -> model_build ~scale ~seed w) in
            (pname, w, t, b))
          programs
      with
      | exception e ->
          op_failed r "round %d: %s" k (Printexc.to_string e);
          false
      | built ->
          let t = sum (List.map (fun (_, _, t, _) -> t) built) in
          ops := (start, t) :: !ops;
          List.iter
            (fun (pname, _, t, _) ->
              Hashtbl.replace per_program pname
                (t :: Option.value ~default:[] (Hashtbl.find_opt per_program pname)))
            built;
          if k = 0 then
            List.iter
              (fun (pname, w, _, b) ->
                digest r (pname ^ ".data") (data_digest b);
                digest r (pname ^ ".models") (models_digest b);
                recheck r ~scale w b.train)
              built;
          if r.traced then begin
            let instrs0 = counter "sim.detail_instrs" in
            let tt, traced =
              timed (fun () ->
                  span ~layer:"harness" "round" (fun () ->
                      List.map
                        (fun (_, w, _, _) ->
                          let m = span ~layer:"measure" "Measure.create" (fun () -> Measure.create scale) in
                          let b, compiled = traced_build r ~scale ~seed m w in
                          (w, m, b, compiled))
                        built))
            in
            bump r "sim.instrs" (float_of_int (counter "sim.detail_instrs" - instrs0));
            List.iter2
              (fun (pname, _, _, b) (w, m, tb, compiled) ->
                check r
                  (data_digest tb = data_digest b && models_digest tb = models_digest b)
                  "round %d %s: traced pipeline differs from Experiments.prepare" k pname;
                compile_pass r m w compiled)
              built traced;
            incr traced_rounds;
            traced_t := tt :: !traced_t;
            untraced_t := t :: !untraced_t
          end;
          true);
  if r.traced then begin
    layer_metrics r ~rounds:!traced_rounds;
    overhead r ~traced:!traced_t ~untraced:!untraced_t;
    Hashtbl.iter (fun p ts -> set r (Printf.sprintf "pipeline.%s_s" p) (Stat.median ts)) per_program
  end;
  of_rounds ~setups ~peak_kb:(own_peak_kb ()) !ops

(* ---------------- pipeline-warm ---------------- *)

(* What a warm round produces, as digests: the datasets, the five models'
   accuracy, the GA prescriptions on the three machines and the Pareto
   front. *)
let warm_digests ~seed b energy etrain ga front =
  [ ("data", data_digest b);
    ( "models",
      Bits.of_strings
        [ models_digest b;
          Printf.sprintf "energy=%h" (Emc_regress.Metrics.mape energy.Model.predict etrain) ] );
    ( "search",
      Bits.of_strings
        (List.map
           (fun (s : Searcher.result) ->
             Printf.sprintf "%s=%h" (Emc_opt.Flags.to_string s.flags) s.predicted_cycles)
           ga) );
    ("pareto", Bits.of_strings [ J.to_string (Searcher.pareto_to_json ~seed ~evaluations:0 front) ]) ]

let searches ~scale ~seed ~cycles ~energy =
  let ga =
    List.map
      (fun (_, march) ->
        span ~layer:"search" "ga" (fun () ->
            Searcher.search ~params:scale.Scale.ga ~rng:(Rng.create (seed + 1)) ~model:cycles ~march ()))
      Experiments.configs
  in
  let front =
    span ~layer:"search" "pareto" (fun () ->
        Searcher.search_pareto ~params:scale.Scale.ga ~rng:(Rng.create seed) ~cycles_model:cycles
          ~energy_model:energy ~march:Emc_sim.Config.typical ())
  in
  (ga, front)

let warm_round ~scale ~seed ~cache w =
  Spans.paused (fun () ->
      let ex, d, b = model_build ~cache_file:cache ~scale ~seed w in
      let etrain = Experiments.energy_train ex d in
      let energy = Modeling.fit Modeling.Rbf etrain in
      let ga, front = searches ~scale ~seed ~cycles:(Experiments.rbf_model d) ~energy in
      (ex.Experiments.measure.Measure.simulations, b, warm_digests ~seed b energy etrain ga front))

let traced_warm_round r ~scale ~seed ~cache w =
  span ~layer:"harness" "round" (fun () ->
      let m = span ~layer:"measure" "cache_load" (fun () -> Measure.create ~cache_file:cache scale) in
      let b, _ = traced_build r ~scale ~seed m w in
      let ey =
        span ~layer:"measure" "lookup.energy" (fun () ->
            Measure.respond_coded_many ~response:Measure.Energy m w ~variant:Workload.Train b.train.Dataset.x)
      in
      let etrain = Dataset.create (Array.map Array.copy b.train.Dataset.x) ey in
      let energy = span ~layer:"regress" "fit.energy" (fun () -> Modeling.fit Modeling.Rbf etrain) in
      let ga0 = counter "ga.evaluations" and p0 = counter "pareto.evaluations" in
      let ga, front = searches ~scale ~seed ~cycles:(List.assoc "rbf" b.models) ~energy in
      bump r "search.ga_evals" (float_of_int (counter "ga.evaluations" - ga0));
      bump r "search.pareto_evals" (float_of_int (counter "pareto.evaluations" - p0));
      (m.Measure.simulations, warm_digests ~seed b energy etrain ga front))

let pipeline_warm r =
  let scale = Scale.quick and seed = sub_seed r 0 in
  let w = Emc_workloads.Registry.find "gzip" in
  (* set-up: the first, cold [emc model] run that fills the private result
     cache. It runs in its own process, so the harness's peak memory covers
     the warm rounds alone. *)
  let fills =
    List.init 3 (fun i ->
        let cache = Filename.concat r.dir (Printf.sprintf "warm-%d.jsonl" i) in
        let fill () =
          run_emc r
            [ "model"; "-w"; "gzip"; "--scale"; "quick"; "--seed"; string_of_int seed; "--jobs"; "1";
              "--cache"; cache ]
        in
        Speed.sample ~n:Speed.window r.speed;
        (fst (timed_at fill), cache))
  in
  let cache = snd (List.nth fills 2) in
  let ops = ref [] and first = ref None in
  let traced_t = ref [] and untraced_t = ref [] and traced_rounds = ref 0 in
  rounds r (fun k ->
      r.attempted <- r.attempted + 1;
      let start = now () in
      match timed (fun () -> warm_round ~scale ~seed ~cache w) with
      | exception e ->
          op_failed r "round %d: %s" k (Printexc.to_string e);
          false
      | t, (sims, b, ds) ->
          ops := (start, t) :: !ops;
          check r (sims = 0) "round %d ran %d simulations on a warm cache" k sims;
          (match !first with
          | None ->
              first := Some (ds, b);
              List.iter (fun (key, v) -> digest r key v) ds
          | Some (ds0, _) -> check r (ds = ds0) "round %d is not byte-identical to round 0" k);
          if r.traced then begin
            let tt, (tsims, tds) = timed (fun () -> traced_warm_round r ~scale ~seed ~cache w) in
            check r (tsims = 0 && tds = ds) "round %d: traced warm round differs" k;
            incr traced_rounds;
            traced_t := tt :: !traced_t;
            untraced_t := t :: !untraced_t
          end;
          true);
  if r.traced then begin
    layer_metrics r ~rounds:!traced_rounds;
    overhead r ~traced:!traced_t ~untraced:!untraced_t;
    let sp = Spans.spans () in
    let n = float_of_int (max 1 !traced_rounds) in
    set r "measure.cache_load_s" (Stat.median (Array.to_list (Spans.durations sp ~name:"cache_load")));
    let total name = Array.fold_left ( +. ) 0.0 (Spans.durations sp ~name) in
    let ga_s = total "ga" and pareto_s = total "pareto" in
    set r "search.ga_s" (ga_s /. n);
    set r "search.pareto_s" (pareto_s /. n);
    set r "search.ga_evals" (got r "search.ga_evals" /. n);
    set r "search.pareto_evals" (got r "search.pareto_evals" /. n);
    if ga_s +. pareto_s > 0.0 then
      set r "search.evals_per_s"
        ((got r "search.ga_evals" +. got r "search.pareto_evals") /. (ga_s +. pareto_s))
  end;
  (* read before the re-simulation check, which simulates and the warm
     rounds do not *)
  let peak_kb = own_peak_kb () in
  Option.iter (fun (_, b) -> recheck r ~scale w b.train) !first;
  of_rounds ~setups:(List.map fst fills) ~peak_kb !ops

(* ---------------- serve-predict ---------------- *)

type serve_kind = Predict of int | Batch of int | Healthz | Scrape

let json_point x = J.List (Array.to_list (Array.map (fun v -> J.Float v) x))

let serve_predict r =
  (* The served model is the same for every seed — a gzip RBF artifact
     with the energy response, trained at seed 7 — so that run-to-run
     differences come from the daemon, not from the size of the model a
     seed happened to fit. The seed drives the payloads and the mix. *)
  let art_path = Filename.concat r.dir "model.json" in
  run_emc r
    [ "train"; "-w"; "gzip"; "-t"; "rbf"; "--scale"; "tiny"; "--seed"; "7"; "--energy"; "--out"; art_path ];
  digest r ~any_seed:true "artifact" (Digest.to_hex (Digest.string (read_file art_path)));
  let art = match Artifact.load art_path with Ok a -> a | Error e -> failwith e in
  let rng = Rng.create r.seed in
  let point () = Array.init (Artifact.dims art) (fun _ -> Rng.float rng 2.0 -. 1.0) in
  let eval = Emc_regress.Repr.eval art.Artifact.repr in
  let singles =
    Array.init 512 (fun _ ->
        let x = point () in
        (J.to_string (J.Obj [ ("point", json_point x) ]), [| x |]))
  in
  let batches =
    Array.init 64 (fun _ ->
        let xs = Array.init 16 (fun _ -> point ()) in
        (J.to_string (J.Obj [ ("points", J.List (Array.to_list (Array.map json_point xs))) ]), xs))
  in
  let expected = Hashtbl.create 1024 in
  let expect i (_, xs) = Hashtbl.replace expected i (Array.map eval xs) in
  Array.iteri (fun i p -> expect (Predict i) p) singles;
  Array.iteri (fun i p -> expect (Batch i) p) batches;
  (* set-up: exec the daemon and wait until /healthz answers *)
  let start i =
    let sock = Filename.concat r.dir (Printf.sprintf "serve-%d.sock" i) in
    let t, dm =
      timed_at (fun () ->
          let dm = spawn r "serve" [ "serve"; "-m"; art_path; "--unix-socket"; sock; "--workers"; "1" ] in
          wait_ready dm (fun () -> healthy sock);
          dm)
    in
    (t, sock, dm)
  in
  let n_starts = 20 in
  let starts =
    List.init n_starts (fun i ->
        Speed.sample r.speed;
        let ((_, _, dm) as s) = start i in
        if i < n_starts - 1 then stop r dm;
        s)
  in
  let _, sock, dm = List.nth starts (n_starts - 1) in
  let mix = Rng.create (r.seed + 1) in
  let seq = ref 0 and next_scrape = ref 0.0 in
  let kinds = [ "predict"; "batch"; "healthz"; "metrics" ] in
  let lat = List.map (fun k -> (k, Stat.samples ())) kinds in
  let all = Stat.samples () and all_starts = Stat.samples () in
  let next conn =
    incr seq;
    let id = Printf.sprintf "b%d" !seq in
    let kind =
      if conn = 0 && now () >= !next_scrape then begin
        next_scrape := now () +. 1.0;
        Scrape
      end
      else
        match Rng.int mix 10 with
        | 8 -> Batch (Rng.int mix (Array.length batches))
        | 9 -> Healthz
        | _ -> Predict (Rng.int mix (Array.length singles))
    in
    let bytes =
      match kind with
      | Predict i -> request ~meth:"POST" ~path:"/predict" ~id ~body:(fst singles.(i)) ()
      | Batch i -> request ~meth:"POST" ~path:"/predict" ~id ~body:(fst batches.(i)) ()
      | Healthz -> request ~meth:"GET" ~path:"/healthz" ~id ()
      | Scrape -> request ~meth:"GET" ~path:"/metrics" ~id ()
    in
    { Closed_loop.bytes; tag = (kind, id) }
  in
  let values_ok kind resp =
    match (kind, body_json resp) with
    | (Predict _ | Batch _), Error _ -> false
    | Predict _, Ok j -> (
        match Option.bind (J.member "prediction" j) Report.number with
        | Some v -> Bits.same_bits v (Hashtbl.find expected kind).(0)
        | None -> false)
    | Batch _, Ok j -> (
        match J.member "predictions" j with
        | Some (J.List vs) ->
            let want = Hashtbl.find expected kind in
            List.length vs = Array.length want
            && List.for_all2
                 (fun v e -> match Report.number v with Some v -> Bits.same_bits v e | None -> false)
                 vs (Array.to_list want)
        | _ -> false)
    | (Healthz | Scrape), _ -> true
  in
  let on_reply (o : _ Closed_loop.outcome) =
    let kind, id = o.tag in
    r.attempted <- r.attempted + 1;
    match o.reply with
    | Error e -> op_failed r "%s: %s" id e
    | Ok resp ->
        if resp.Http.status <> 200 then op_failed r "%s: HTTP %d" id resp.Http.status
        else if Http.response_header resp "x-request-id" <> Some id then op_failed r "%s: id mismatch" id
        else if not (values_ok kind resp) then op_failed r "%s: reply differs from Repr.eval" id
        else begin
          Stat.push
            (List.assoc
               (match kind with
               | Predict _ -> "predict"
               | Batch _ -> "batch"
               | Healthz -> "healthz"
               | Scrape -> "metrics")
               lat)
            o.latency;
          Stat.push all o.latency;
          Stat.push all_starts (now () -. o.latency)
        end
  in
  let cpu () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  (* [r.seconds] of load in one-second slices, the machine's speed sampled
     between them *)
  let slices = ref [] and cpu_s = ref 0.0 in
  while sum (List.map snd !slices) < r.seconds do
    Speed.sample ~n:2 r.speed;
    let cpu0 = cpu () in
    let slice, () =
      timed_at (fun () ->
          let left = r.seconds -. sum (List.map snd !slices) in
          span ~layer:"serve" "closed-loop" (fun () ->
              Closed_loop.run ~conns:2 ~connect:(connect sock) ~keep_alive:true
                ~until:(now () +. Float.min 1.0 left) ~timeout:5.0 ~next ~on_reply))
    in
    slices := slice :: !slices;
    cpu_s := !cpu_s +. (cpu () -. cpu0)
  done;
  Speed.sample ~n:2 r.speed;
  let loop_s = sum (List.map snd !slices) and cpu_s = !cpu_s in
  stop r dm;
  let lat = List.map (fun (k, s) -> (k, Stat.contents s)) lat in
  let all = Stat.contents all in
  if r.traced then begin
    let ms k p = Option.map (fun v -> v *. 1000.0) (Stat.percentile (List.assoc k lat) p) in
    set r "serve.samples" (float_of_int (Array.length all));
    List.iter
      (fun k ->
        set_opt r (Printf.sprintf "serve.%s_ms.p50" k) (ms k 50.0);
        set_opt r (Printf.sprintf "serve.%s_ms.p99" k) (ms k 99.0))
      [ "predict"; "batch"; "healthz" ];
    set_opt r "serve.metrics_ms.p50" (ms "metrics" 50.0);
    set r "gen.cpu_ratio" (cpu_s /. loop_s);
    (* the recorded payloads replayed in-process through the daemon's own
       parse, handle and evaluate calls; each figure is the median of five
       passes, per call *)
    span ~layer:"serve" "replay" (fun () ->
        let raw = Array.map (fun (body, _) -> request ~meth:"POST" ~path:"/predict" ~id:"r" ~body ()) in
        let raw_singles = raw singles and raw_batches = raw batches in
        let parse s =
          match Http.parse_request s with Http.Parsed (req, _) -> req | _ -> failwith "replay: unparseable request"
        in
        let per_call reqs f =
          let n = float_of_int (Array.length reqs) in
          Stat.median (List.init 5 (fun _ -> fst (timed (fun () -> Array.iter f reqs)) /. n)) *. 1e6
        in
        set r "serve.parse_us" (per_call (Array.append raw_singles raw_batches) (fun s -> ignore (parse s)));
        let hot = Emc_serve.Serve.make_hot art in
        let handle reqs = per_call (Array.map parse reqs) (fun req -> ignore (Emc_serve.Serve.handle_into hot req)) in
        set r "serve.handle_us.predict" (handle raw_singles);
        set r "serve.handle_us.batch" (handle raw_batches);
        set r "serve.repr_eval_us" (per_call (Array.map (fun (_, xs) -> xs.(0)) singles) (fun x -> ignore (eval x))))
  end;
  (* the daemon is what is under test here, not the load generator *)
  { setups = List.map (fun (t, _, _) -> t) starts; op_starts = Stat.contents all_starts; ops = all;
    short_ops = true; phases = !slices; peak_kb = r.daemon_kb }

(* ---------------- fleet-elastic ---------------- *)

type store_kind = Hit of (string * float) array | Miss | Put of string * float | Members

let fleet_elastic r =
  let scale = Scale.tiny in
  let w = Emc_workloads.Registry.find "gzip" in
  let options = { Fleet.default_options with Fleet.chunk = 4; depth = 2 } in
  (* set-up: exec the store and one registered worker, wait until the
     worker is listed in /members *)
  let start i =
    let store = Filename.concat r.dir (Printf.sprintf "store-%d.sock" i) in
    let worker = Filename.concat r.dir (Printf.sprintf "worker-%d.sock" i) in
    let listed () =
      match Fleet.members ~timeout:5.0 (Fleet.Unix_sock store) with
      | Ok ms -> List.mem_assoc worker ms
      | Error _ -> false
    in
    let t, ds =
      timed_at (fun () ->
          let sd =
            spawn r "store"
              [ "fleet-store"; "--unix-socket"; store; "--file"; Filename.concat r.dir (Printf.sprintf "store-%d.jsonl" i) ]
          in
          wait_ready sd (fun () -> healthy store);
          let wd =
            spawn r "worker" [ "fleet-worker"; "--unix-socket"; worker; "--register"; store; "--heartbeat"; "0.5" ]
          in
          wait_ready wd listed;
          [ wd; sd ])
    in
    (t, store, worker, ds)
  in
  let n_starts = 20 in
  let starts =
    List.init n_starts (fun i ->
        Speed.sample r.speed;
        let ((_, _, _, ds) as s) = start i in
        if i < n_starts - 1 then List.iter (stop r) ds;
        s)
  in
  let _, store, worker, daemons = List.nth starts (n_starts - 1) in
  let attach m = Fleet.attach ~options m [ Fleet.Members (Fleet.Unix_sock store) ] in
  let ops = ref [] and cold = ref [] and rerun = ref [] in
  let known = ref [||] and traced_t = ref [] and traced_rounds = ref 0 in
  (* peak memory over the first round — a distributed run and its rerun,
     as two [emc model --fleet] invocations would see it: the worker's memo
     tables grow with every round, so a later sample would depend on how
     many rounds fit in the budget *)
  let fleet_kb = ref 0 in
  let pass ~seed = timed (fun () -> model_build ~attach ~scale ~seed w) in
  let traced_pass ~seed =
    let m = span ~layer:"measure" "Measure.create" (fun () -> Measure.create scale) in
    attach m;
    let b, compiled = traced_build ~remote:true r ~scale ~seed m w in
    (m, b, compiled)
  in
  let fleet_counters = [ "dispatched"; "points_dispatched"; "retried"; "steals"; "store_prefilled" ] in
  rounds r (fun k ->
      let seed = sub_seed r k in
      r.attempted <- r.attempted + 1;
      let c0 = List.map (fun c -> counter ("fleet." ^ c)) fleet_counters in
      (* in the traced run every other round is traced: its seed has to be
         fresh too, or the store would already hold its points *)
      let traced_round = r.traced && k mod 2 = 1 in
      match
        if traced_round then begin
          let tt, ((ma, a, compiled), (_, b, _)) =
            timed (fun () ->
                span ~layer:"harness" "round" (fun () ->
                    let a = traced_pass ~seed in
                    (a, traced_pass ~seed)))
          in
          compile_pass r ma w compiled;
          traced_t := tt :: !traced_t;
          incr traced_rounds;
          (tt, a, b, ma)
        end
        else
          let start = now () in
          let ta, (exa, _, a) = pass ~seed in
          let tb, (_, _, b) = pass ~seed in
          cold := ta :: !cold;
          rerun := tb :: !rerun;
          ops := (start, ta +. tb) :: !ops;
          (ta +. tb, a, b, exa.Experiments.measure)
      with
      | exception e ->
          op_failed r "round %d: %s" k (Printexc.to_string e);
          false
      | _, a, b, ma ->
          let delta = List.map2 (fun c v0 -> (c, counter ("fleet." ^ c) - v0)) fleet_counters c0 in
          if traced_round then List.iter (fun (c, v) -> bump r ("fleet." ^ c) (float_of_int v)) delta;
          check r
            (data_digest a = data_digest b && models_digest a = models_digest b)
            "round %d: the store-fed rerun differs from the distributed pass" k;
          if List.assoc "retried" delta > 0 || List.assoc "steals" delta > 0 then
            op_failed r "round %d: %d chunks retried, %d stolen" k (List.assoc "retried" delta)
              (List.assoc "steals" delta);
          if k = 0 then begin
            (* sampled before the re-simulation check: the coordinator
               itself never simulates *)
            fleet_kb := List.fold_left (fun acc d -> max acc (tree_peak_kb d)) (own_peak_kb ()) daemons;
            (* the distributed pass must reproduce the local cold build of
               the same seed bit for bit *)
            digest r ~golden_key:"pipeline-cold/gzip.data" "gzip.data" (data_digest a);
            digest r ~golden_key:"pipeline-cold/gzip.models" "gzip.models" (models_digest a);
            recheck r ~scale w a.train;
            known :=
              Array.of_list
                (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ma.Measure.results []))
          end;
          if r.traced && k = 1 then begin
            (* the run's real chunks through the four wire codec calls *)
            let pairs =
              List.sort_uniq compare
                (Array.to_list (Array.map Params.configs_of_coded (Array.append a.train.x a.test.x)))
            in
            let value key = Hashtbl.find ma.Measure.results key in
            let triple p =
              let kc, ke, ks = Measure.triple_keys w ~variant:Workload.Train p in
              { Measure.t_cycles = value kc; t_energy = value ke; t_code_size = value ks }
            in
            let rec chunks = function
              | [] -> []
              | l ->
                  let c = List.filteri (fun i _ -> i < 4) l in
                  Array.of_list c :: chunks (List.filteri (fun i _ -> i >= 4) l)
            in
            let chunks = List.map (fun c -> (c, Array.map triple c)) (chunks pairs) in
            let codec ~verify (c, ts) =
              let body =
                Fleet.measure_body w ~variant:Workload.Train ~workload_scale:scale.Scale.workload_scale
                  ~smarts:scale.Scale.smarts c
              in
              let req = Fleet.measure_request_of_body body in
              let back = Fleet.triples_of_body ~expect:(Array.length ts) (Fleet.result_body ts) in
              if verify then
                check r
                  (match (req, back) with
                  | Ok mr, Ok ts' ->
                      mr.Fleet.mr_points = c
                      && Array.for_all2
                           (fun (x : Measure.triple) (y : Measure.triple) ->
                             Bits.same_bits x.t_cycles y.t_cycles && Bits.same_bits x.t_energy y.t_energy
                             && Bits.same_bits x.t_code_size y.t_code_size)
                           ts ts'
                  | _ -> false)
                  "fleet wire codec does not round-trip a chunk"
            in
            List.iter (codec ~verify:true) chunks;
            let n = float_of_int (List.length chunks) in
            set r "fleet.codec_us"
              (Stat.median (List.init 5 (fun _ -> fst (timed (fun () -> List.iter (codec ~verify:false) chunks))))
              /. n *. 1e6)
          end;
          true);
  (* the store under closed-loop RPC load, one connection per request as
     the fleet's own store client does; every reply is checked *)
  let mix = Rng.create (r.seed + 2) in
  let known = !known in
  let seq = ref 0 and puts = ref [] and age = ref 0.0 in
  let lat = List.map (fun k -> (k, Stat.samples ())) [ "lookup"; "put"; "members"; "connect" ] in
  let keys_body ks = J.to_string (J.Obj [ ("keys", J.List (List.map (fun k -> J.Str k) ks)) ]) in
  let next _ =
    incr seq;
    let kind =
      match Rng.int mix 10 with
      | 0 | 1 | 2 | 3 | 4 | 5 when Array.length known > 0 -> Hit (Array.init 4 (fun _ -> Rng.choice mix known))
      | 6 -> Miss
      | 7 -> Put (Printf.sprintf "bench-put|%d|%d" r.seed !seq, Rng.float mix 1e6)
      | _ -> Members
    in
    let bytes =
      match kind with
      | Hit ks -> request ~meth:"POST" ~path:"/lookup" ~body:(keys_body (Array.to_list (Array.map fst ks))) ()
      | Miss ->
          request ~meth:"POST" ~path:"/lookup"
            ~body:(keys_body (List.init 4 (fun i -> Printf.sprintf "bench-miss|%d|%d|%d" r.seed !seq i)))
            ()
      | Put (k, v) ->
          request ~meth:"POST" ~path:"/put"
            ~body:(J.to_string (J.Obj [ ("entries", J.List [ J.Obj [ ("k", J.Str k); ("v", J.hex v) ] ]) ]))
            ()
      | Members -> request ~meth:"GET" ~path:"/members" ()
    in
    { Closed_loop.bytes; tag = kind }
  in
  let results j = match J.member "results" j with Some (J.Obj kvs) -> Some kvs | _ -> None in
  let reply_ok kind j =
    match kind with
    | Hit ks -> (
        match results j with
        | Some kvs ->
            Array.for_all
              (fun (k, v) ->
                match Option.bind (List.assoc_opt k kvs) J.hex_of with
                | Some v' -> Bits.same_bits v v'
                | None -> false)
              ks
        | None -> false)
    | Miss -> results j = Some []
    | Put (k, v) ->
        if J.member "added" j = Some (J.Int 1) then (puts := (k, v) :: !puts; true) else false
    | Members -> (
        match J.member "workers" j with
        | Some (J.List ws) ->
            List.iter
              (fun e -> Option.iter (fun a -> age := Float.max !age a) (Option.bind (J.member "age" e) J.hex_of))
              ws;
            List.exists (fun e -> J.member "addr" e = Some (J.Str worker)) ws
        | _ -> false)
  in
  let on_reply (o : _ Closed_loop.outcome) =
    r.attempted <- r.attempted + 1;
    match o.reply with
    | Error e -> op_failed r "store rpc: %s" e
    | Ok resp -> (
        match body_json resp with
        | Ok j when resp.Http.status = 200 && reply_ok o.tag j ->
            Stat.push (List.assoc "connect" lat) o.connect;
            Stat.push
              (List.assoc (match o.tag with Hit _ | Miss -> "lookup" | Put _ -> "put" | Members -> "members") lat)
              o.latency
        | _ -> op_failed r "store rpc: HTTP %d, unexpected reply %s" resp.Http.status resp.Http.resp_body)
  in
  span ~layer:"store" "closed-loop" (fun () ->
      Closed_loop.run ~conns:2 ~connect:(connect store) ~keep_alive:false ~until:(now () +. 8.0)
        ~timeout:5.0 ~next ~on_reply);
  (* every value put must come back from a lookup *)
  (match
     rpc ~meth:"POST" ~body:(keys_body (List.map fst !puts)) store "/lookup"
   with
  | Ok resp -> (
      match body_json resp with
      | Ok j -> check r (reply_ok (Hit (Array.of_list !puts)) j) "store lost or changed a value put"
      | Error e -> problem r "store lookup: %s" e)
  | Error e -> problem r "store lookup: %s" e);
  List.iter (stop r) daemons;
  if r.traced then begin
    layer_metrics r ~rounds:!traced_rounds;
    let n = float_of_int (max 1 !traced_rounds) in
    set r "fleet.coord_compile_s" (Spans.self_time (Spans.spans ()) "compile" /. n);
    set r "fleet.resolve_s" (Spans.self_time (Spans.spans ()) "fleet" /. n);
    List.iter (fun c -> set r ("fleet." ^ c) (got r ("fleet." ^ c) /. n)) fleet_counters;
    if got r "fleet.points_dispatched" > 0.0 then
      set r "fleet.useful_ratio"
        ((got r "fleet.work" -. got r "fleet.store_prefilled") /. got r "fleet.points_dispatched");
    if !cold <> [] then set r "fleet.cold_pass_s" (Stat.median !cold);
    if !rerun <> [] then set r "fleet.rerun_s" (Stat.median !rerun);
    overhead r ~traced:!traced_t ~untraced:(List.map snd !ops);
    let ms k p = Option.map (fun v -> v *. 1000.0) (Stat.percentile (Stat.contents (List.assoc k lat)) p) in
    set r "store.samples" (float_of_int (List.assoc "connect" lat).Stat.len);
    set_opt r "store.lookup_ms.p50" (ms "lookup" 50.0);
    set_opt r "store.lookup_ms.p99" (ms "lookup" 99.0);
    set_opt r "store.put_ms.p50" (ms "put" 50.0);
    set_opt r "store.members_ms.p50" (ms "members" 50.0);
    set_opt r "store.connect_ms.p50" (ms "connect" 50.0);
    set r "store.member_age_max_s" !age
  end;
  of_rounds ~setups:(List.map (fun (t, _, _, _) -> t) starts) ~peak_kb:!fleet_kb !ops

(* ---------------- command line ---------------- *)

let workloads =
  [ ("pipeline-cold", pipeline_cold); ("pipeline-warm", pipeline_warm);
    ("serve-predict", serve_predict); ("fleet-elastic", fleet_elastic) ]

let load_json path =
  match J.parse (read_file path) with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)

let load_golden () =
  let j = load_json "benchmark/golden.json" in
  match (J.member "seed" j, J.member "digests" j) with
  | Some (J.Int seed), Some (J.Obj kvs) ->
      (seed, List.filter_map (fun (k, v) -> match v with J.Str s -> Some (k, s) | _ -> None) kvs)
  | _ -> failwith "benchmark/golden.json: want {\"seed\": N, \"digests\": {...}}"

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  ignore
    (List.fold_left
       (fun acc part ->
         let p = if acc = "" then part else Filename.concat acc part in
         (try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
         p)
       "" (String.split_on_char '/' path))

let append_line path line =
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
      output_string oc line;
      output_char oc '\n')

let run_workload ~bench ~name ~seed ~seconds ~traced ~json_out ~trace_out =
  let f = List.assoc name workloads in
  let dir = Printf.sprintf ".bench-tmp/%s-%d" name (Unix.getpid ()) in
  mkdir_p dir;
  let r =
    { name; seed; seconds; traced; dir;
      emc = Filename.concat (Filename.dirname Sys.executable_name) Emc_exe.path;
      golden = load_golden (); layer = Hashtbl.create 64; acc = Hashtbl.create 16; attempted = 0;
      failed = 0; problems = []; daemon_kb = 0; speed = Speed.create () }
  in
  Filename.set_temp_dir_name (Filename.concat (Sys.getcwd ()) dir);
  Spans.enabled := traced;
  Spans.run_id := Printf.sprintf "%s/%d" name seed;
  let e2e =
    Fun.protect
      ~finally:(fun () ->
        List.iter (stop r) !live;
        rm_rf dir;
        try Unix.rmdir ".bench-tmp" with Unix.Unix_error _ -> ())
      (fun () ->
        if not (Sys.file_exists r.emc) then failwith (r.emc ^ " is not built");
        try Some (f r)
        with e ->
          problem r "%s" (Printexc.to_string e);
          None)
  in
  (* each time rescaled by the machine's speed measured around it (Speed),
     or as measured *)
  let times ~rescaled e =
    let at factor (start, d) = if rescaled then d *. factor r.speed start else d in
    let op_factor = if e.short_ops then Speed.short_factor else Speed.long_factor in
    let setup_s = Stat.median (List.map (at Speed.long_factor) e.setups) in
    let op_p50_ms =
      if e.ops = [||] then None
      else
        Some (Emc_util.Stats.median (Array.mapi (fun i d -> at op_factor (e.op_starts.(i), d)) e.ops) *. 1000.0)
    in
    let ops_per_s = float_of_int (Array.length e.ops) /. sum (List.map (at Speed.long_factor) e.phases) in
    (setup_s, op_p50_ms, ops_per_s)
  in
  let piece_us = Speed.median r.speed.pieces *. 1e6 and sample_ms = Speed.median r.speed.samples *. 1e3 in
  if traced then begin
    set r "speed.piece_us" piece_us;
    set r "speed.sample_ms" sample_ms
  end;
  Option.iter
    (fun e ->
      let setup_s, op_p50_ms, ops_per_s = times ~rescaled:false e in
      Printf.eprintf "speed: %d samples, median piece %.4g us, median sample %.4g ms\n" r.speed.samples.len
        piece_us sample_ms;
      Printf.eprintf "unscaled: setup_s %.6g op_p50_ms %.6g ops_per_s %.6g\n%!" setup_s
        (Option.value ~default:nan op_p50_ms) ops_per_s)
    e2e;
  let rescaled = Option.map (times ~rescaled:true) e2e in
  let e2e_value = function
    | "setup_s" -> Option.map (fun (v, _, _) -> v) rescaled
    | "op_p50_ms" -> Option.bind rescaled (fun (_, v, _) -> v)
    | "ops_per_s" -> Option.map (fun (_, _, v) -> v) rescaled
    | "peak_rss_mb" -> Option.map (fun e -> float_of_int e.peak_kb /. 1024.0) e2e
    | other ->
        problem r "BENCHMARK.json declares %s, which the harness does not measure" other;
        None
  in
  let specs = Report.specs_of_benchmark bench (if traced then "per_layer" else "end_to_end") in
  if traced then
    Hashtbl.iter
      (fun k _ ->
        if not (List.exists (fun s -> s.Report.s_name = k) specs) then
          problem r "per-layer metric %s is not declared in BENCHMARK.json" k)
      r.layer;
  let metrics =
    List.map
      (fun (s : Report.spec) ->
        let v =
          if traced then Option.value ~default:0.0 (Hashtbl.find_opt r.layer s.s_name)
          else Option.value ~default:0.0 (e2e_value s.s_name)
        in
        let v =
          if Float.is_finite v then v
          else begin
            problem r "%s is not finite" s.s_name;
            0.0
          end
        in
        { Report.name = s.s_name; value = v; unit_ = s.s_unit })
      specs
  in
  let result =
    { Report.correct = r.problems = [] && r.failed = 0 && r.attempted > 0;
      attempted = max 1 r.attempted; failed = r.failed; metrics }
  in
  Option.iter
    (fun path ->
      if traced then Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string (Spans.chrome (Spans.spans ())))))
    trace_out;
  Option.iter
    (fun path ->
      append_line path (J.to_string (Report.record_to_json { Report.workload = name; seed; traced; result })))
    json_out;
  result

(* [--workload all]: each workload in a fresh process of its own, so peak
   memory and warm-up are per workload; the last line folds them together. *)
let run_all ~seed ~seconds ~trace ~json_out ~trace_out =
  let results =
    List.map
      (fun (name, _) ->
        let args =
          [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
            Printf.sprintf "%g" seconds; "--trace"; string_of_int trace ]
          @ (match json_out with Some f -> [ "--json"; f ] | None -> [])
          @ match trace_out with Some f -> [ "--trace-out"; Printf.sprintf "%s.%s.json" f name ] | None -> []
        in
        let rd, wr = Unix.pipe ~cloexec:true () in
        let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr in
        Unix.close wr;
        let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
        Unix.close rd;
        let _, status = Unix.waitpid [] pid in
        print_string out;
        let last = List.nth_opt (List.rev (String.split_on_char '\n' (String.trim out))) 0 in
        match Option.map J.parse last with
        | Some (Ok j) -> (name, status = Unix.WEXITED 0, Report.of_json j)
        | _ -> (name, false, Error "no result line"))
      workloads
  in
  let ok = List.for_all (fun (_, exited, r) -> exited && match r with Ok r -> r.Report.correct | _ -> false) results in
  let parts = List.filter_map (fun (n, _, r) -> Result.to_option (Result.map (fun r -> (n, r)) r)) results in
  let combined =
    { Report.correct = ok;
      attempted = max 1 (List.fold_left (fun acc (_, r) -> acc + r.Report.attempted) 0 parts);
      failed = List.fold_left (fun acc (_, r) -> acc + r.Report.failed) 0 parts;
      metrics =
        List.concat_map
          (fun (n, r) -> List.map (fun m -> { m with Report.name = n ^ "/" ^ m.Report.name }) r.Report.metrics)
          parts }
  in
  print_endline (J.to_string (Report.to_json combined));
  exit (if ok then 0 else 1)

let read_records path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Result.bind (J.parse l) Report.record_of_json with
         | Ok rc -> rc
         | Error e -> failwith (path ^ ": " ^ e))

let compare_files bench a b =
  let specs = Report.specs_of_benchmark bench "end_to_end" @ Report.specs_of_benchmark bench "per_layer" in
  let rows = Report.compare_sets specs (read_records a) (read_records b) in
  Printf.printf "%-14s %-26s %-6s %12s %7s %3s %12s %7s %3s %8s %6s\n" "workload" "metric" "unit"
    "A median" "IQR%" "n" "B median" "IQR%" "n" "change%" "bound%";
  let iqr xs = if List.length xs >= 2 then Printf.sprintf "%.1f" (100.0 *. Stat.spread xs) else "-" in
  List.iter
    (fun (row : Report.row) ->
      let s = row.r_spec in
      let ma = Stat.median row.a and mb = Stat.median row.b in
      Printf.printf "%-14s %-26s %-6s %12.5g %7s %3d %12.5g %7s %3d %+8.1f %6s%s\n" row.r_workload s.s_name
        s.s_unit ma (iqr row.a) (List.length row.a) mb (iqr row.b) (List.length row.b)
        (100.0 *. Report.worsening s ~a:ma ~b:mb)
        (match s.bound with Some b -> Printf.sprintf "%.0f" (100.0 *. b) | None -> "-")
        (if row.regressed then "  WORSE BEYOND BOUND" else ""))
    rows;
  exit (if List.exists (fun (row : Report.row) -> row.regressed) rows then 1 else 0)

let usage =
  "run.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1] [--json FILE] [--trace-out FILE]\n\
   run.exe --compare A.jsonl B.jsonl\n\
   Run from the repository root. Workloads: "
  ^ String.concat ", " (List.map fst workloads)

let () =
  let workload = ref "" and seed = ref 7 and seconds = ref 20.0 and trace = ref 0 in
  let json_out = ref None and trace_out = ref None and compare = ref [] in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  workload to run, or all");
      ("--seed", Arg.Set_int seed, "N  seed for designs and payloads (default 7)");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run (default 20)");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run reporting per-layer metrics");
      ("--json", Arg.String (fun f -> json_out := Some f), "FILE  append the result record to FILE");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE  write the traced run's Chrome trace");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun f -> compare := [ f ]); Arg.String (fun f -> compare := !compare @ [ f ]) ],
        "A B  medians and spreads of two sets of --json records; flags regressions beyond the bounds" ) ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  (* EMC_CACHE, EMC_TRACE, EMC_JOBS... would silently change the measured program *)
  (match List.filter (String.starts_with ~prefix:"EMC_") (Array.to_list (Unix.environment ())) with
  | [] -> ()
  | vars ->
      prerr_endline ("run.exe: refusing to run with " ^ String.concat " " vars ^ " set");
      exit 2);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let quit = Sys.Signal_handle (fun _ -> raise Exit) in
  Sys.set_signal Sys.sigterm quit;
  Sys.set_signal Sys.sigint quit;
  let bench = load_json "BENCHMARK.json" in
  match (!compare, !workload) with
  | [ a; b ], _ -> compare_files bench a b
  | _, "all" -> run_all ~seed:!seed ~seconds:!seconds ~trace:!trace ~json_out:!json_out ~trace_out:!trace_out
  | _, name when List.mem_assoc name workloads ->
      let result =
        run_workload ~bench ~name ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ~json_out:!json_out
          ~trace_out:!trace_out
      in
      print_endline (J.to_string (Report.to_json result));
      exit (if result.Report.correct then 0 else 1)
  | _ ->
      prerr_endline usage;
      exit 2
