(** Differential fuzzing driver: generate → compare across levels → shrink.

    For each fuzz case a random MiniC program (see {!Gen}) is printed to
    source, pushed through the whole frontend, and compared across four
    execution levels against the IR interpreter on unoptimized IR:

    - the interpreter on {e optimized} IR, at each sampled Table-1 flag
      configuration (including the GA-favored all-flags corners);
    - the functional simulator on generated machine code for the same
      configurations (the IR verifier also runs on every optimized body);
    - the out-of-order model's commit stream, at an unoptimized and a
      heavily optimized point on distinct machine configurations;
    - the out-of-order model's timing at the same two points: when the
      per-cycle run ends cleanly, {!Emc_sim.Ooo.run_to_completion}, which
      skips idle cycles, must reproduce every one of its counters.

    Outcomes (outputs, return value, trap category — see {!Oracle}) must be
    identical everywhere. The first level that disagrees is reported; the
    offending program is then minimized with {!Shrink} before being shown.

    Fan-out goes through {!Emc_par.Par.map}: each worker re-derives its
    program from a per-index sub-seed, so results are bit-identical for any
    [--jobs] value, and the per-case result is a few strings (marshal-safe).
    Metrics ([fuzz.programs], [fuzz.checks], [fuzz.divergences],
    [fuzz.shrink_steps]) are counted in the parent, because worker-side
    counter increments die with the fork. *)

open Emc_util
module Flags = Emc_opt.Flags
module Metrics = Emc_obs.Metrics

let m_programs = Metrics.counter "fuzz.programs"
let m_checks = Metrics.counter "fuzz.checks"
let m_divergences = Metrics.counter "fuzz.divergences"
let m_shrink_steps = Metrics.counter "fuzz.shrink_steps"

(* GA-favored corners: every boolean flag on, heuristics pinned to the ends
   of their Table-1 ranges — the cross-products a hand-written suite never
   exercises *)
let all_on = { Flags.o3 with Flags.unroll_loops = true; schedule_insns2 = true }

let corner_max =
  {
    all_on with
    Flags.max_inline_insns_auto = 150;
    inline_unit_growth = 75;
    inline_call_cost = 20;
    max_unroll_times = 12;
    max_unrolled_insns = 300;
  }

let corner_min =
  {
    all_on with
    Flags.max_inline_insns_auto = 50;
    inline_unit_growth = 25;
    inline_call_cost = 12;
    max_unroll_times = 4;
    max_unrolled_insns = 100;
  }

type level_config = { name : string; flags : Flags.t; issue_width : int }

let default_configs =
  [
    { name = "o0"; flags = Flags.o0; issue_width = 4 };
    { name = "o1"; flags = Flags.o1; issue_width = 4 };
    { name = "o2/w2"; flags = Flags.o2; issue_width = 2 };
    { name = "o3"; flags = Flags.o3; issue_width = 4 };
    { name = "corner-max"; flags = corner_max; issue_width = 4 };
    { name = "corner-min/w2"; flags = corner_min; issue_width = 2 };
  ]

(* Detailed-model runs are expensive; the commit stream is checked at one
   unoptimized and one heavily optimized point on distinct machines. The
   code is compiled for each machine's own issue width. *)
let default_ooo =
  [
    ("o0/typical", Flags.o0, Emc_sim.Config.typical);
    ("corner-max/constrained", corner_max, Emc_sim.Config.constrained);
  ]

let checks_per_program configs ooo = 1 + (2 * List.length configs) + (2 * List.length ooo)

(** Check one source program across every level. [None] means all levels
    agreed; [Some (level, expected, got)] names the first disagreeing level
    with both rendered outcomes. A compiler crash or verifier failure at any
    configuration also counts as a divergence. *)
let check_source ?(semantics = Emc_ir.Interp.Ieee) ?(configs = default_configs)
    ?(ooo = default_ooo) src : (string * string * string) option =
  match Emc_lang.Minic.compile src with
  | Error err -> Some ("frontend", "compiles", Format.asprintf "%a" Emc_lang.Minic.pp_error err)
  | Ok ir ->
      let ret_ty =
        match Emc_ir.Ir.find_func ir "main" with
        | Some f -> f.Emc_ir.Ir.ret_ty
        | None -> None
      in
      let reference = Oracle.run_interp ~semantics ir in
      let div = ref None in
      let fail lvl expected got = if !div = None then div := Some (lvl, expected, got) in
      let check lvl out =
        if !div = None && not (Oracle.equal reference out) then
          fail lvl (Oracle.render reference) (Oracle.render out)
      in
      List.iter
        (fun { name; flags; issue_width } ->
          if !div = None then
            match Emc_opt.Pipeline.optimize ~issue_width flags ir with
            | exception exn ->
                fail ("optimize[" ^ name ^ "]") "optimizes" (Printexc.to_string exn)
            | opt -> (
                match Emc_ir.Verify.check_program opt with
                | exception Failure msg -> fail ("verify[" ^ name ^ "]") "verifies" msg
                | () -> (
                    check ("interp-opt[" ^ name ^ "]") (Oracle.run_interp ~semantics opt);
                    if !div = None then
                      match Emc_codegen.Compiler.emit ~issue_width flags opt with
                      | exception exn ->
                          fail ("codegen[" ^ name ^ "]") "compiles" (Printexc.to_string exn)
                      | prog -> check ("func[" ^ name ^ "]") (Oracle.run_func ~ret_ty prog))))
        configs;
      List.iter
        (fun (name, flags, cfg) ->
          if !div = None then
            let issue_width = cfg.Emc_sim.Config.issue_width in
            match Emc_codegen.Compiler.compile ~issue_width flags ir with
            | exception exn ->
                fail ("compile[" ^ name ^ "]") "compiles" (Printexc.to_string exn)
            | prog -> (
                let out, stepped = Oracle.run_ooo cfg ~ret_ty prog in
                check ("ooo[" ^ name ^ "]") out;
                match stepped with
                | Some stepped when !div = None ->
                    let skipped = Oracle.ooo_timing cfg prog in
                    if skipped <> stepped then
                      fail ("ooo-timing[" ^ name ^ "]") (Oracle.render_counters stepped)
                        (Oracle.render_counters skipped)
                | _ -> ()))
        ooo;
      !div

type divergence = {
  index : int;  (** which fuzz case (0-based) *)
  prog_seed : int;  (** sub-seed that regenerates the program *)
  level : string;
  expected : string;
  got : string;
  source : string;
  min_source : string;  (** shrunk reproducer *)
  shrink_steps : int;
}

type report = { programs : int; checks : int; divergences : divergence list }

let source_of_seed sub = Emc_lang.Pretty.program (Gen.program (Rng.create sub))

(** Fuzz [budget] programs from [seed]. Deterministic for a given seed and
    configuration set, independent of [jobs]. *)
let fuzz ?jobs ?(semantics = Emc_ir.Interp.Ieee) ?(configs = default_configs)
    ?(ooo = default_ooo) ?(max_shrink_checks = 1500) ~seed ~budget () : report =
  Emc_obs.Trace.with_span "fuzz" (fun () ->
      let master = Rng.create seed in
      let subseeds = Array.make (max budget 1) 0 in
      for i = 0 to budget - 1 do
        subseeds.(i) <- Int64.to_int (Rng.int64 master) land max_int
      done;
      let subseeds = Array.sub subseeds 0 budget in
      let task sub =
        let src = source_of_seed sub in
        match check_source ~semantics ~configs ~ooo src with
        | None -> None
        | Some (level, expected, got) -> Some (level, expected, got, src)
      in
      let results = Emc_par.Par.map ?jobs task subseeds in
      Metrics.add m_programs budget;
      Metrics.add m_checks (budget * checks_per_program configs ooo);
      let divergences = ref [] in
      Array.iteri
        (fun i r ->
          match r with
          | None -> ()
          | Some (level, expected, got, src) ->
              Metrics.incr m_divergences;
              let ast = Gen.program (Rng.create subseeds.(i)) in
              (* a shrink candidate that stops compiling is a dead mutant,
                 not a smaller divergence *)
              let diverges a =
                match Emc_lang.Pretty.program a with
                | exception Invalid_argument _ -> false
                | src' -> (
                    match check_source ~semantics ~configs ~ooo src' with
                    | None | Some ("frontend", _, _) -> false
                    | Some _ -> true)
              in
              let min_ast, steps = Shrink.run ~max_checks:max_shrink_checks ~diverges ast in
              Metrics.add m_shrink_steps steps;
              divergences :=
                {
                  index = i;
                  prog_seed = subseeds.(i);
                  level;
                  expected;
                  got;
                  source = src;
                  min_source = Emc_lang.Pretty.program min_ast;
                  shrink_steps = steps;
                }
                :: !divergences)
        results;
      {
        programs = budget;
        checks = budget * checks_per_program configs ooo;
        divergences = List.rev !divergences;
      })
