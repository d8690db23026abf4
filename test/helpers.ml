(** Shared helpers for the test suite: compile MiniC snippets, run them under
    the IR interpreter and the machine-level functional simulator, and
    compare observable outputs. *)

let value_str = function
  | Emc_ir.Interp.VI v -> string_of_int v
  | Emc_ir.Interp.VF f -> Printf.sprintf "%h" f

let fvalue_str = function
  | Emc_sim.Func.VI v -> string_of_int v
  | Emc_sim.Func.VF f -> Printf.sprintf "%h" f

(** Parse + typecheck + lower; raises on failure. *)
let compile_ir src = Emc_lang.Minic.compile_exn src

(** Run the IR interpreter on [src]'s main; returns (ret, outputs-as-strings). *)
let interp ?(arrays = []) src =
  let ir = compile_ir src in
  let st = Emc_ir.Interp.create ir in
  Emc_ir.Interp.load st arrays;
  let res = Emc_ir.Interp.run st ~func:"main" ~args:[] in
  (res.ret, List.map value_str res.outputs)

let interp_outputs ?arrays src = snd (interp ?arrays src)

let interp_ret ?arrays src =
  match fst (interp ?arrays src) with
  | Some (Emc_ir.Interp.VI v) -> v
  | _ -> Alcotest.fail "expected integer return from main"

(** Optimize [src] with [flags], generate machine code, run the functional
    simulator; returns (ret, outputs-as-strings, program). *)
let machine ?(arrays = []) ?(flags = Emc_opt.Flags.o0) ?(issue_width = 4) src =
  let ir = compile_ir src in
  let opt = Emc_opt.Pipeline.optimize ~issue_width flags ir in
  Emc_ir.Verify.check_program opt;
  let prog = Emc_codegen.Compiler.emit ~issue_width flags opt in
  let f = Emc_sim.Func.create ~inputs:arrays prog in
  ignore (Emc_sim.Func.run f);
  (Emc_sim.Func.return_value f, List.map fvalue_str (Emc_sim.Func.outputs f), prog)

(** Assert that [src] behaves identically under the interpreter and under
    compilation at [flags] (outputs and return value). *)
let check_flags_preserve_semantics ?(arrays = []) ~what flags src =
  let ret, outs = interp ~arrays src in
  let mret, mouts, _ = machine ~arrays ~flags src in
  Alcotest.(check (list string)) (what ^ ": outputs") outs mouts;
  match ret with
  | Some (Emc_ir.Interp.VI v) -> Alcotest.(check int) (what ^ ": return") v mret
  | _ -> ()

(** Optimize the IR at [flags] and check the optimized IR still matches the
    unoptimized interpretation. *)
let check_ir_preserve_semantics ?(arrays = []) ~what flags src =
  let ref_ret, ref_outs = interp ~arrays src in
  let ir = compile_ir src in
  let opt = Emc_opt.Pipeline.optimize ~issue_width:4 flags ir in
  Emc_ir.Verify.check_program opt;
  let st = Emc_ir.Interp.create opt in
  Emc_ir.Interp.load st arrays;
  let res = Emc_ir.Interp.run st ~func:"main" ~args:[] in
  Alcotest.(check (list string)) (what ^ ": outputs") ref_outs (List.map value_str res.outputs);
  match (ref_ret, res.ret) with
  | Some (Emc_ir.Interp.VI a), Some (Emc_ir.Interp.VI b) ->
      Alcotest.(check int) (what ^ ": return") a b
  | _ -> ()

(** A pseudo-random valid flag configuration, for differential testing. *)
let random_flags rng =
  let b () = Emc_util.Rng.bool rng in
  {
    Emc_opt.Flags.inline_functions = b ();
    unroll_loops = b ();
    schedule_insns2 = b ();
    loop_optimize = b ();
    gcse = b ();
    strength_reduce = b ();
    omit_frame_pointer = b ();
    reorder_blocks = b ();
    prefetch_loop_arrays = b ();
    max_inline_insns_auto = Emc_util.Rng.range rng 50 150;
    inline_unit_growth = Emc_util.Rng.range rng 25 75;
    inline_call_cost = Emc_util.Rng.range rng 12 20;
    max_unroll_times = Emc_util.Rng.range rng 4 12;
    max_unrolled_insns = Emc_util.Rng.range rng 100 300;
  }

(** Count instructions in the compiled program satisfying [p]. *)
let count_machine_instrs p (prog : Emc_isa.Isa.program) =
  Array.fold_left (fun acc i -> if p i then acc + 1 else acc) 0 prog.Emc_isa.Isa.insts

let count_ir_instrs p (ir : Emc_ir.Ir.program) =
  List.fold_left
    (fun acc (_, f) ->
      Array.fold_left
        (fun acc (b : Emc_ir.Ir.block) ->
          List.fold_left (fun acc i -> if p i then acc + 1 else acc) acc b.instrs)
        acc f.Emc_ir.Ir.blocks)
    0 ir.Emc_ir.Ir.funcs

(** SIGTERM each daemon the suite forked, in order, and reap it: their
    exit statuses, [None] for one no longer this process's child. One
    still running 10 s after its SIGTERM is SIGKILLed, and once every
    daemon is down the case fails, rather than hanging the suite. *)
let stop_daemons pids =
  let stop pid =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    match Emc_par.Proc.reap ~timeout:10.0 [ pid ] with
    | [ (_, status) ] -> Ok status
    | _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Emc_par.Proc.reap [ pid ]);
        Error (string_of_int pid)
  in
  let stopped = List.map stop pids in
  match List.filter_map (function Error pid -> Some pid | Ok _ -> None) stopped with
  | [] -> List.map Result.get_ok stopped
  | stuck ->
      Alcotest.failf "daemon %s still running 10 s after SIGTERM" (String.concat ", " stuck)

let stop_daemon pid = List.hd (stop_daemons [ pid ])

(** {2 Bit-for-bit comparisons of floats} *)

let bits_eq x y = Int64.bits_of_float x = Int64.bits_of_float y
let all_bits a b = Array.length a = Array.length b && Array.for_all2 bits_eq a b

(** A double over forty binary orders of magnitude, of either sign: sums of
    such values cancel, so a sum taken in another order differs in value,
    not only in its last bit. *)
let wide rng =
  (Emc_util.Rng.float rng 2.0 -. 1.0) *. Float.pow 2.0 (float_of_int (Emc_util.Rng.int rng 41 - 20))
