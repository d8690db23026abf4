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

(** {2 Decoded instructions}

    What the timing model and the energy count need of each static
    instruction, packed into one int by {!decode} once per program: the
    issue slot in bits 0–2 ({!Isa.fu_index}, with [Branch] and [NoFu]
    sharing slot 5), the energy class ({!Isa.fu_index}) in bits 3–5, one
    bit each for load, store, prefetch, branch, conditional branch and
    halt, and the base latency ({!Isa.latency_of}) from bit 12 up. The
    per-instruction paths test these bits instead of calling the [Isa]
    predicates, each a call through a closure from another module. *)

let slot_mask = 7
let class_shift = 3
let load_bit = 1 lsl 6
let store_bit = 1 lsl 7
let pref_bit = 1 lsl 8
let branch_bit = 1 lsl 9
let cond_bit = 1 lsl 10
let halt_bit = 1 lsl 11
let lat_shift = 12

let decode_op op =
  let c = Isa.fu_index (Isa.fu_of op) in
  let flag b bit = if b then bit else 0 in
  (if c > 5 then 5 else c)
  lor (c lsl class_shift)
  lor flag (Isa.is_load op) load_bit
  lor flag (Isa.is_store op) store_bit
  lor flag (op = Isa.PREF) pref_bit
  lor flag (Isa.is_branch op) branch_bit
  lor flag (Isa.is_cond_branch op) cond_bit
  lor flag (op = Isa.HALT) halt_bit
  lor (Isa.latency_of op lsl lat_shift)

(** One packed entry per static instruction of [prog]. *)
let decode (prog : Isa.program) = Array.map (fun (i : Isa.inst) -> decode_op i.op) prog.Isa.insts

(** What a memory view holds outside its dirty pages: [layout]'s zeroed
    address space with [inputs] loaded. *)
type image = { layout : Emc_ir.Memlayout.t; inputs : (string * Emc_ir.Memlayout.data) list }

(** The simulated address space: an integer and an FP view, word-addressed
    and [Memlayout.mem_words] long. A program that cannot touch the FP
    view (see {!needs_fp_view}) gets an empty one. Each view has a dirty
    map, one byte per 4 KB page, that every [ST] (integer view) or [FST]
    (FP view) marks, and remembers the image it holds outside those
    pages. {!create} brings a caller's memory back to the image a new run
    needs instead of allocating one, so a caller that simulates many runs
    (the SMARTS attempts of a [Measure]) allocates its memory once; it
    must hand it to only one live {!t} at a time. *)
type memory = {
  ints : int array;  (** integer view *)
  floats : float array;  (** FP view; [[||]] when the program cannot touch it *)
  int_dirty : Bytes.t;  (** pages of [ints] written since its image was made *)
  float_dirty : Bytes.t;  (** the same for [floats] *)
  mutable int_image : image option;  (** [None]: unknown content *)
  mutable float_image : image option;
}

type t = {
  prog : Isa.program;
  decoded : int array;  (** {!decode} of [prog] *)
  regs : int array;  (** 32 integer registers *)
  fregs : float array;  (** 32 FP registers *)
  mem : memory;
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

(* A dirty-map page is 512 words, 4 KB. *)
let page_shift = 9
let page_words = 1 lsl page_shift
let pages words = (words + page_words - 1) lsr page_shift

(** A zeroed memory for [prog], with an FP view only when {!needs_fp_view}. *)
let memory (prog : Isa.program) =
  let words = Emc_ir.Memlayout.mem_words prog.Isa.layout in
  let fp_words = if needs_fp_view prog then words else 0 in
  { ints = Array.make words 0; floats = Array.make fp_words 0.0;
    int_dirty = Bytes.make (pages words) '\000'; float_dirty = Bytes.make (pages fp_words) '\000';
    int_image = None; float_image = None }

(** [fits m prog]: [m] can back [prog] — its integer view is [prog]'s
    size, and so is its FP view when [prog] needs one. *)
let fits m (prog : Isa.program) =
  let words = Emc_ir.Memlayout.mem_words prog.Isa.layout in
  Array.length m.ints = words && ((not (needs_fp_view prog)) || Array.length m.floats = words)

module Metrics = Emc_obs.Metrics

let m_full_loads = Metrics.counter "sim.memory_full_loads"
let m_restored_pages = Metrics.counter "sim.memory_restored_pages"

(* Zero with a plain loop: on OCaml 5, [Array.fill] into a major-heap
   array runs the runtime's per-element write barrier, while a loop over
   an [int array] compiles to plain stores. The float fill has no barrier. *)
let zero_ints (a : int array) lo hi =
  for i = lo to hi - 1 do
    Array.unsafe_set a i 0
  done

(* Zero every page of [m] marked in the dirty map of a view whose flag is
   set, clear its marks and copy [inputs]' words on it back. The copy
   also writes the page of the other view: the same words that view's
   image holds there, or a view that is zeroed and loaded whole anyway. *)
let restore_pages m ~ints ~floats layout inputs =
  let words = Array.length m.ints in
  let restored = ref 0 in
  for p = 0 to Bytes.length m.int_dirty - 1 do
    let di = ints && Bytes.unsafe_get m.int_dirty p <> '\000'
    and df = floats && Bytes.unsafe_get m.float_dirty p <> '\000' in
    if di || df then begin
      let lo = p lsl page_shift in
      let hi = min words (lo + page_words) in
      if di then begin
        Bytes.unsafe_set m.int_dirty p '\000';
        zero_ints m.ints lo hi
      end;
      if df then begin
        Bytes.unsafe_set m.float_dirty p '\000';
        Array.fill m.floats lo (hi - lo) 0.0
      end;
      Emc_ir.Memlayout.load_range layout ~imem:m.ints ~fmem:m.floats ~lo ~hi inputs;
      incr restored
    end
  done;
  Metrics.add m_restored_pages !restored

(* Bring [m] to [layout]'s image of [inputs] in its integer view, and in
   its FP view when [fp]. A view that holds that image already — an
   equal layout and physically the same input list — has only its dirty
   pages restored. Any other view is zeroed whole (a [fresh] memory is
   zero already) and loaded through the checked [Memlayout.load]; it
   holds no known image until that load succeeds. Marks on an FP view
   that [fp] leaves alone stay for the next program that uses it. *)
let prepare m ~fp ~fresh (layout : Emc_ir.Memlayout.t) inputs =
  let holds = function
    | Some im -> im.inputs == inputs && (im.layout == layout || im.layout = layout)
    | None -> false
  in
  let int_ok = holds m.int_image and float_ok = fp && holds m.float_image in
  if not int_ok then begin
    m.int_image <- None;
    if not fresh then zero_ints m.ints 0 (Array.length m.ints);
    Bytes.fill m.int_dirty 0 (Bytes.length m.int_dirty) '\000'
  end;
  if fp && not float_ok then begin
    m.float_image <- None;
    if not fresh then Array.fill m.floats 0 (Array.length m.floats) 0.0;
    Bytes.fill m.float_dirty 0 (Bytes.length m.float_dirty) '\000'
  end;
  if int_ok || float_ok then restore_pages m ~ints:int_ok ~floats:float_ok layout inputs;
  if not (int_ok && (float_ok || not fp)) then begin
    Metrics.incr m_full_loads;
    Emc_ir.Memlayout.load layout ~imem:m.ints ~fmem:(if fp then m.floats else [||]) inputs
  end;
  let image = Some { layout; inputs } in
  m.int_image <- image;
  if fp then m.float_image <- image

(** A machine at [prog]'s entry with [inputs] (default none) loaded; see
    {!Emc_ir.Memlayout.load} for the checks. Without [memory] it gets a
    fresh one. With it, that memory is checked against [prog]
    ([Invalid_argument] unless it {!fits}) and brought back in place to
    what a fresh one would hold: when it already holds [prog]'s layout
    and these very [inputs], only the pages written since are zeroed and
    their input words copied back; otherwise it is zeroed and loaded
    whole (the FP view only when [prog] uses it). [decoded] is [prog]'s
    {!decode}, made here when it is not given. *)
let create ?decoded ?memory:mem ?(inputs = []) (prog : Isa.program) =
  let decoded = match decoded with Some d -> d | None -> decode prog in
  if Array.length decoded <> Array.length prog.Isa.insts then
    invalid_arg "Func.create: the decoded table is not the program's";
  let fp = needs_fp_view prog in
  let m, fresh =
    match mem with
    | None -> (memory prog, true)
    | Some m when fits m prog -> (m, false)
    | Some m ->
        invalid_arg
          (Printf.sprintf
             "Func.create: memory of %d words (FP view %d) does not fit a program of %d words%s"
             (Array.length m.ints) (Array.length m.floats)
             (Emc_ir.Memlayout.mem_words prog.Isa.layout)
             (if fp then " with an FP view" else ""))
  in
  prepare m ~fp ~fresh prog.Isa.layout inputs;
  let t =
    {
      prog;
      decoded;
      regs = Array.make 32 0;
      fregs = Array.make 32 0.0;
      mem = m;
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
    let ci = (t.decoded.(pc) lsr class_shift) land 7 in
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
        let w = word a in
        t.imem.(w) <- geti t i.rs2;
        (* [w] is in bounds now, so its page is too *)
        Bytes.unsafe_set t.mem.int_dirty (w lsr page_shift) '\001'
    | FST ->
        let a = geti t i.rs1 + i.imm in
        b.d_addr <- a;
        let w = word a in
        t.fmem.(w) <- getf t i.rs2;
        Bytes.unsafe_set t.mem.float_dirty (w lsr page_shift) '\001'
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
