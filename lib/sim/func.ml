open Emc_isa

(** Functional (architectural) simulator for the target ISA.

    Executes the linked program one instruction per {!step_into} call, which
    fills a {!dynbuf} describing the dynamic instance — exactly what the timing
    model and the SMARTS functional-warming mode need. Integer values are
    OCaml native ints and floats are doubles, matching the IR interpreter's
    semantics, so outputs are comparable bit-for-bit across optimization
    levels. Runtime faults (division by zero, unaligned access, fuel
    exhaustion) raise the typed {!Emc_ir.Trap.Trap} with the same categories
    the interpreter uses, so the differential oracle can assert
    trap-equivalence across levels. *)

type value = VI of int | VF of float

(** Caller-owned buffer for the allocation-free {!step_into}. One [dynbuf]
    is written in place per dynamic instruction, so the timing model's hot
    loop performs no per-instruction allocation at all. *)
type dynbuf = {
  mutable d_idx : int;  (** static instruction index (= pc) *)
  mutable d_addr : int;  (** byte address for memory ops; -1 otherwise *)
  mutable d_taken : bool;  (** outcome for conditional branches; true for jumps *)
}

let dynbuf () = { d_idx = 0; d_addr = -1; d_taken = false }

(** The simulated address space: an integer and an FP view, word-addressed
    and [Memlayout.mem_words] long. A program that cannot touch the FP
    view (see {!needs_fp_view}) gets an empty one. {!create} resets a
    caller's memory in place instead of allocating one, so a caller that
    simulates many runs (the SMARTS attempts of a [Measure]) allocates its
    memory once; it must hand it to only one live {!t} at a time. *)
type memory = {
  ints : int array;  (** integer view *)
  floats : float array;  (** FP view; [[||]] when the program cannot touch it *)
}

type t = {
  prog : Isa.program;
  regs : int array;  (** 32 integer registers *)
  fregs : float array;  (** 32 FP registers *)
  imem : int array;  (** word-addressed integer view of memory *)
  fmem : float array;  (** word-addressed FP view of memory; [[||]] unless {!needs_fp_view} *)
  mutable pc : int;
  mutable halted : bool;
  mutable icount : int;
  mutable outputs : value list;  (** reversed *)
  class_counts : int array;  (** dynamic instructions per FU class, for the energy model *)
  scratch : dynbuf;  (** the record {!run} steps through *)
}

(** A program with no [FLD], no [FST] and no [F64] global can never read
    or write the FP view: integer loads and stores use the integer view,
    and the loader puts [DFloat] inputs only into [F64] globals. *)
let needs_fp_view (prog : Isa.program) =
  List.exists (fun ((g : Emc_ir.Ir.global), _) -> g.gty = Emc_ir.Ir.F64) prog.Isa.layout.globals
  || Array.exists (fun (i : Isa.inst) -> match i.op with FLD | FST -> true | _ -> false)
       prog.Isa.insts

(** A zeroed memory for [prog], with an FP view only when {!needs_fp_view}. *)
let memory (prog : Isa.program) =
  let words = Emc_ir.Memlayout.mem_words prog.Isa.layout in
  { ints = Array.make words 0; floats = (if needs_fp_view prog then Array.make words 0.0 else [||]) }

(** [fits m prog]: [m] can back [prog] — its integer view is [prog]'s
    size, and so is its FP view when [prog] needs one. *)
let fits m (prog : Isa.program) =
  let words = Emc_ir.Memlayout.mem_words prog.Isa.layout in
  Array.length m.ints = words && ((not (needs_fp_view prog)) || Array.length m.floats = words)

(* Zero with a plain loop: on OCaml 5, [Array.fill] into a major-heap
   array runs the runtime's per-element write barrier, while a loop over
   an [int array] compiles to plain stores. The float fill has no barrier. *)
let reset m ~fp =
  let ints = m.ints in
  for i = 0 to Array.length ints - 1 do
    Array.unsafe_set ints i 0
  done;
  if fp then Array.fill m.floats 0 (Array.length m.floats) 0.0

(** A machine at [prog]'s entry. Without [memory] it gets a fresh one;
    with it, that memory is checked against [prog] ([Invalid_argument]
    unless it {!fits}) and zeroed in place — the FP view only when [prog]
    uses it — so the new machine starts exactly as a fresh one would. *)
let create ?memory:mem (prog : Isa.program) =
  let fp = needs_fp_view prog in
  let m =
    match mem with
    | None -> memory prog
    | Some m when fits m prog ->
        reset m ~fp;
        m
    | Some m ->
        invalid_arg
          (Printf.sprintf
             "Func.create: memory of %d words (FP view %d) does not fit a program of %d words%s"
             (Array.length m.ints) (Array.length m.floats)
             (Emc_ir.Memlayout.mem_words prog.Isa.layout)
             (if fp then " with an FP view" else ""))
  in
  let t =
    {
      prog;
      regs = Array.make 32 0;
      fregs = Array.make 32 0.0;
      imem = m.ints;
      fmem = (if fp then m.floats else [||]);
      pc = prog.Isa.entry;
      halted = false;
      icount = 0;
      outputs = [];
      class_counts = Array.make Isa.n_fu_classes 0;
      scratch = dynbuf ();
    }
  in
  t.regs.(Isa.r_sp) <- Emc_ir.Memlayout.stack_top prog.Isa.layout;
  t

exception Trap = Emc_ir.Trap.Trap

let word addr =
  if addr land 7 <> 0 then raise (Trap (Emc_ir.Trap.Unaligned_access addr));
  addr lsr 3

(** Write input arrays into memory; see {!Emc_ir.Memlayout.load}. *)
let load t inputs = Emc_ir.Memlayout.load t.prog.Isa.layout ~imem:t.imem ~fmem:t.fmem inputs

let outputs t = List.rev t.outputs
let return_value t = t.regs.(Isa.r_ret)

(* register accessors across the unified id namespace *)
let geti t r = t.regs.(r)
let getf t r = t.fregs.(r - Isa.fp_base)
let seti t r v = t.regs.(r) <- v
let setf t r v = t.fregs.(r - Isa.fp_base) <- v

(** Execute one instruction, writing its dynamic record into [b]. Returns
    [false] (and writes nothing) once the machine has halted. Allocation-free:
    the control-flow and memory outcomes go into the caller-owned [b] and the
    next pc is committed directly to [t.pc] (so after a mid-instruction trap
    [t.pc] points past the trapping instruction; traps are not resumable, so
    nothing observes that). *)
let step_into t (b : dynbuf) : bool =
  if t.halted then false
  else begin
    let pc = t.pc in
    let i = t.prog.Isa.insts.(pc) in
    t.icount <- t.icount + 1;
    let ci = Isa.fu_index (Isa.fu_of i.op) in
    t.class_counts.(ci) <- t.class_counts.(ci) + 1;
    b.d_idx <- pc;
    b.d_addr <- -1;
    b.d_taken <- false;
    t.pc <- pc + 1;
    (match i.op with
    | LDI -> seti t i.rd i.imm
    | LFI -> setf t i.rd i.fimm
    | ADD -> seti t i.rd (geti t i.rs1 + geti t i.rs2)
    | SUB -> seti t i.rd (geti t i.rs1 - geti t i.rs2)
    | MUL -> seti t i.rd (geti t i.rs1 * geti t i.rs2)
    | DIV ->
        let d = geti t i.rs2 in
        if d = 0 then raise (Trap Emc_ir.Trap.Div_by_zero)
        else seti t i.rd (geti t i.rs1 / d)
    | REM ->
        let d = geti t i.rs2 in
        if d = 0 then raise (Trap Emc_ir.Trap.Rem_by_zero)
        else seti t i.rd (geti t i.rs1 mod d)
    | AND -> seti t i.rd (geti t i.rs1 land geti t i.rs2)
    | OR -> seti t i.rd (geti t i.rs1 lor geti t i.rs2)
    | XOR -> seti t i.rd (geti t i.rs1 lxor geti t i.rs2)
    | SLL -> seti t i.rd (geti t i.rs1 lsl (geti t i.rs2 land 63))
    | SRL -> seti t i.rd (geti t i.rs1 lsr (geti t i.rs2 land 63))
    | SRA -> seti t i.rd (geti t i.rs1 asr (geti t i.rs2 land 63))
    | ADDI -> seti t i.rd (geti t i.rs1 + i.imm)
    | SLLI -> seti t i.rd (geti t i.rs1 lsl (i.imm land 63))
    | CEQ -> seti t i.rd (if geti t i.rs1 = geti t i.rs2 then 1 else 0)
    | CNE -> seti t i.rd (if geti t i.rs1 <> geti t i.rs2 then 1 else 0)
    | CLT -> seti t i.rd (if geti t i.rs1 < geti t i.rs2 then 1 else 0)
    | CLE -> seti t i.rd (if geti t i.rs1 <= geti t i.rs2 then 1 else 0)
    | CGT -> seti t i.rd (if geti t i.rs1 > geti t i.rs2 then 1 else 0)
    | CGE -> seti t i.rd (if geti t i.rs1 >= geti t i.rs2 then 1 else 0)
    | FADD -> setf t i.rd (getf t i.rs1 +. getf t i.rs2)
    | FSUB -> setf t i.rd (getf t i.rs1 -. getf t i.rs2)
    | FMUL -> setf t i.rd (getf t i.rs1 *. getf t i.rs2)
    | FDIV -> setf t i.rd (getf t i.rs1 /. getf t i.rs2)
    | FCEQ -> seti t i.rd (if getf t i.rs1 = getf t i.rs2 then 1 else 0)
    | FCNE -> seti t i.rd (if getf t i.rs1 <> getf t i.rs2 then 1 else 0)
    | FCLT -> seti t i.rd (if getf t i.rs1 < getf t i.rs2 then 1 else 0)
    | FCLE -> seti t i.rd (if getf t i.rs1 <= getf t i.rs2 then 1 else 0)
    | FCGT -> seti t i.rd (if getf t i.rs1 > getf t i.rs2 then 1 else 0)
    | FCGE -> seti t i.rd (if getf t i.rs1 >= getf t i.rs2 then 1 else 0)
    | ITOF -> setf t i.rd (float_of_int (geti t i.rs1))
    | FTOI ->
        (* NaN converts to 0 (int_of_float's NaN result is unspecified);
           the IR interpreter defines FtoI identically *)
        let x = getf t i.rs1 in
        seti t i.rd (if Float.is_nan x then 0 else int_of_float x)
    | LD ->
        let a = geti t i.rs1 + i.imm in
        b.d_addr <- a;
        seti t i.rd t.imem.(word a)
    | FLD ->
        let a = geti t i.rs1 + i.imm in
        b.d_addr <- a;
        setf t i.rd t.fmem.(word a)
    | ST ->
        let a = geti t i.rs1 + i.imm in
        b.d_addr <- a;
        t.imem.(word a) <- geti t i.rs2
    | FST ->
        let a = geti t i.rs1 + i.imm in
        b.d_addr <- a;
        t.fmem.(word a) <- getf t i.rs2
    | PREF ->
        let a = geti t i.rs1 + i.imm in
        b.d_addr <- a
    | BEQZ ->
        if geti t i.rs1 = 0 then begin
          b.d_taken <- true;
          t.pc <- i.imm
        end
    | BNEZ ->
        if geti t i.rs1 <> 0 then begin
          b.d_taken <- true;
          t.pc <- i.imm
        end
    | J ->
        b.d_taken <- true;
        t.pc <- i.imm
    | CALL ->
        b.d_taken <- true;
        seti t Isa.r_ra (pc + 1);
        t.pc <- i.imm
    | RET ->
        b.d_taken <- true;
        t.pc <- geti t Isa.r_ra
    | MOV -> seti t i.rd (geti t i.rs1)
    | FMOV -> setf t i.rd (getf t i.rs1)
    | OUT ->
        let v = if Isa.is_fp_reg i.rs1 then VF (getf t i.rs1) else VI (geti t i.rs1) in
        t.outputs <- v :: t.outputs
    | HALT -> t.halted <- true
    | NOP -> ());
    true
  end

(** Run to completion with a fuel limit; returns the dynamic instruction
    count. *)
let run ?(fuel = 1_000_000_000) t =
  let n = ref 0 in
  while (not t.halted) && !n < fuel do
    ignore (step_into t t.scratch);
    incr n
  done;
  if not t.halted then raise (Trap Emc_ir.Trap.Out_of_fuel);
  !n
