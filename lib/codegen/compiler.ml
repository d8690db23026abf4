(** The compiler back end, the one way to build machine code: IR
    optimization (Table-1 flags), code generation, and post-register-
    allocation scheduling (the second half of -fschedule-insns2),
    parameterized by the machine description implied by the target's issue
    width — the paper's "one gcc build per functional-unit configuration". *)

(** Machine code for IR that {!Emc_opt.Pipeline.optimize} already optimized
    under [flags] at [issue_width]. *)
let emit ?(issue_width = 4) (flags : Emc_opt.Flags.t) (opt : Emc_ir.Ir.program) :
    Emc_isa.Isa.program =
  let prog = Codegen.emit_program ~omit_frame_pointer:flags.omit_frame_pointer opt in
  if flags.schedule_insns2 then Postsched.run (Emc_isa.Isa.machine_for_width issue_width) prog
  else prog

(** {!Emc_opt.Pipeline.optimize}, then {!emit}: the binary [flags] build for
    [issue_width]. *)
let compile ?(issue_width = 4) flags ir =
  emit ~issue_width flags (Emc_opt.Pipeline.optimize ~issue_width flags ir)

(** Compile MiniC source text directly. *)
let compile_source ?issue_width flags src =
  compile ?issue_width flags (Emc_lang.Minic.compile_exn src)
