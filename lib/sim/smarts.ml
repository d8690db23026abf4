(** SMARTS-style statistical sampling (Wunderlich et al., ISCA 2003).

    The dynamic instruction stream is divided into fixed-size units; every
    [interval]-th unit is measured in detail, preceded by a detailed warm-up
    window that fills the RUU and hides boundary effects; the rest of the
    stream runs in functional-warming mode (architectural state, caches and
    branch predictor advance; no timing). Whole-program cycles are estimated
    as [mean CPI of measured units × total instructions], with a confidence
    interval from the between-unit variance — the paper tunes the sampling
    parameters until the error estimate is below 1% at 99.7% confidence.

    [interval = 1] degenerates to full detailed simulation. *)

type params = {
  unit_size : int;  (** instructions per measured unit (paper: 1000) *)
  warmup : int;  (** detailed-warming instructions before each unit *)
  interval : int;  (** one in [interval] units is measured *)
  target_ci : float;  (** desired relative CI at 3 sigma, e.g. 0.01 *)
  max_refinements : int;  (** halve [interval] at most this many times *)
}

(* The paper tunes until the error estimate is below 1% at 99.7% confidence;
   [Emc_core.Scale.full] uses exactly that (target_ci = 0.01). This default
   accepts 2% so that ad-hoc runs stay fast — the CI actually achieved is
   exported per run as the [smarts.last_ci_rel] gauge and [smarts.ci_rel]
   histogram, so the gap to the paper's 1% target is visible at runtime. *)
let default_params =
  { unit_size = 1000; warmup = 1000; interval = 10; target_ci = 0.02; max_refinements = 2 }

type result = {
  cycles : float;  (** estimated whole-program cycles *)
  instrs : int;  (** total dynamic instructions *)
  cpi : float;
  ci_rel : float;  (** relative half-width of the 3-sigma CI on CPI *)
  sampled_units : int;
  detailed : bool;  (** true when the run was fully detailed, no sampling *)
  energy : float;  (** abstract energy units (see {!Energy}) *)
  static_instrs : int;  (** code size response *)
}

(* ---------------- telemetry ---------------- *)

module Metrics = Emc_obs.Metrics
module Log = Emc_obs.Log
module Trace = Emc_obs.Trace

let m_runs = Metrics.counter "sim.runs"
let m_full_runs = Metrics.counter "smarts.full_runs"
let m_sampled_runs = Metrics.counter "smarts.sampled_runs"
let m_refinements = Metrics.counter "smarts.refinements"
let m_fallbacks = Metrics.counter "smarts.fallback_to_full"
let h_ci = Metrics.histogram "smarts.ci_rel"
let g_ci = Metrics.gauge "smarts.last_ci_rel"
let h_units = Metrics.histogram "smarts.sampled_units"

(* The [sim.*] counter handles mirror [Ooo.counters]'s fixed key order.
   Resolved once at the first run — re-doing the string concat + registry
   lookup for all 14 handles on every simulation showed up in profiles of
   GA searches, which complete thousands of short sampled runs. *)
let sim_handles : Metrics.counter list ref = ref []

(* Outside [Ooo.counters]: cycles the idle-cycle skip jumped over (already
   counted in [sim.cycles]), and detailed instructions of attempts a
   refinement throws away ([sim.detail_instrs] counts final attempts only). *)
let m_skipped = Metrics.counter "sim.skipped_cycles"
let m_discarded = Metrics.counter "smarts.discarded_detail_instrs"

(* Fold one finished run's simulator counters into the global registry and
   record the sampling quality actually achieved. *)
let record_run ooo (r : result) =
  Metrics.incr m_runs;
  let cs = Ooo.counters ooo in
  if !sim_handles = [] then
    sim_handles := List.map (fun (k, _) -> Metrics.counter ("sim." ^ k)) cs;
  List.iter2 (fun (_, v) h -> Metrics.add h v) cs !sim_handles;
  Metrics.add m_skipped ooo.Ooo.skipped_cycles;
  Metrics.observe h_ci r.ci_rel;
  Metrics.set g_ci r.ci_rel;
  if not r.detailed then Metrics.observe h_units (float_of_int r.sampled_units);
  Log.debug ~src:"smarts"
    ~fields:
      [
        ("cycles", Emc_obs.Json.Float r.cycles);
        ("instrs", Emc_obs.Json.Int r.instrs);
        ("ci_rel", Emc_obs.Json.Float r.ci_rel);
        ("units", Emc_obs.Json.Int r.sampled_units);
      ]
    "%s run done: cpi=%.3f"
    (if r.detailed then "detailed" else "sampled")
    r.cpi

(* Wall-clock seconds of each attempt thrown away: by a refinement (whose
   detailed instructions [smarts.discarded_detail_instrs] counts) or by
   the fully detailed fallback. *)
let h_discarded_seconds = Metrics.histogram "smarts.discarded_seconds"

(* A machine at [prog]'s entry with its inputs loaded: the set-up every
   attempt pays before it simulates, in its own span. *)
let machine ?store cfg prog ~inputs =
  Trace.with_span ~cat:"sim" "smarts.setup" (fun () -> Ooo.create ?store ~inputs cfg prog)

let run_full ?store (cfg : Config.t) (prog : Emc_isa.Isa.program) ~inputs : result =
  Trace.with_span ~cat:"sim" "smarts.run_full" (fun () ->
      let ooo = machine ?store cfg prog ~inputs in
      let cycles = Ooo.run_to_completion ooo in
      let instrs = (Ooo.func ooo).Func.icount in
      let r =
        {
          cycles = float_of_int cycles;
          instrs;
          cpi = float_of_int cycles /. float_of_int (max 1 instrs);
          ci_rel = 0.0;
          sampled_units = 0;
          detailed = true;
          energy = (Energy.estimate ooo ~cycles:(float_of_int cycles)).Energy.total;
          static_instrs = Array.length prog.Emc_isa.Isa.insts;
        }
      in
      Metrics.incr m_full_runs;
      record_run ooo r;
      r)

(* What one attempt decides: its result, another attempt at a finer
   interval, or a fully detailed run. The next run starts only after the
   attempt's span has closed, so attempt spans never nest and each one
   times its own attempt. *)
type decision = Done of result | Refine | Fallback

let run_sampled ?(params = default_params) ?store (cfg : Config.t)
    (prog : Emc_isa.Isa.program) ~inputs : result =
  let run_attempt interval refinements =
    let span_args () =
      [ ("interval", Emc_obs.Json.Int interval); ("refinements", Emc_obs.Json.Int refinements) ]
    in
    Trace.with_span ~cat:"sim" ~args:span_args "smarts.attempt" (fun () ->
        let ooo = machine ?store cfg prog ~inputs in
        let unit_cpis = ref [] in
        let unit_count = ref 0 in
        while Ooo.busy ooo do
          if !unit_count mod interval = interval - 1 then begin
            (* detailed warm-up, then measure one unit *)
            Ooo.run_detailed ooo ~instrs:params.warmup;
            let c0 = ooo.Ooo.cycle and i0 = ooo.Ooo.detail_instrs in
            Ooo.run_detailed ooo ~instrs:params.unit_size;
            let di = ooo.Ooo.detail_instrs - i0 in
            if di > params.unit_size / 2 then
              unit_cpis := (float_of_int (ooo.Ooo.cycle - c0) /. float_of_int di) :: !unit_cpis;
            (* discard in-flight timing state before switching to warming *)
            Ooo.flush_timing ooo
          end
          else Ooo.run_warming ooo ~instrs:params.unit_size;
          incr unit_count
        done;
        let cpis = Array.of_list !unit_cpis in
        let n = Array.length cpis in
        if n = 0 then begin
          (* program too short for the sampling grid: no measured unit
             survived — fall back to a fully detailed run *)
          Metrics.incr m_fallbacks;
          Log.info ~src:"smarts" "no sampled units at interval %d: falling back to full detail"
            interval;
          Trace.instant ~args:span_args "smarts.fallback_to_full";
          Fallback
        end
        else begin
          let mean = Emc_util.Stats.mean cpis in
          let sd = Emc_util.Stats.sample_stddev cpis in
          let ci = if n > 1 then 3.0 *. sd /. (sqrt (float_of_int n) *. mean) else 1.0 in
          let instrs = (Ooo.func ooo).Func.icount in
          if ci > params.target_ci && refinements < params.max_refinements && interval > 1
          then begin
            Metrics.incr m_refinements;
            Metrics.add m_discarded ooo.Ooo.detail_instrs;
            Log.debug ~src:"smarts"
              ~fields:[ ("ci_rel", Emc_obs.Json.Float ci); ("units", Emc_obs.Json.Int n) ]
              "ci %.4f above target %.4f: halving interval %d -> %d" ci params.target_ci
              interval
              (max 1 (interval / 2));
            Trace.instant
              ~args:(fun () ->
                ("ci_rel", Emc_obs.Json.Float ci) :: span_args ())
              "smarts.refine";
            Refine
          end
          else begin
            let cycles = mean *. float_of_int instrs in
            let r =
              {
                cycles;
                instrs;
                cpi = mean;
                ci_rel = ci;
                sampled_units = n;
                detailed = false;
                energy = (Energy.estimate ooo ~cycles).Energy.total;
                static_instrs = Array.length prog.Emc_isa.Isa.insts;
              }
            in
            Metrics.incr m_sampled_runs;
            record_run ooo r;
            Done r
          end
        end)
  in
  let rec attempt interval refinements =
    let t0 = Unix.gettimeofday () in
    let discarded () = Metrics.observe h_discarded_seconds (Unix.gettimeofday () -. t0) in
    match run_attempt interval refinements with
    | Done r -> r
    | Refine ->
        discarded ();
        attempt (max 1 (interval / 2)) (refinements + 1)
    | Fallback ->
        discarded ();
        (* the attempt's machine is never used again, so the full run may
           reuse its store *)
        run_full ?store cfg prog ~inputs
  in
  if params.interval <= 1 then run_full ?store cfg prog ~inputs
  else attempt params.interval 0
