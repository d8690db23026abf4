open Emc_ir
open Emc_isa
open Isa

(** Machine-code emission.

    Walks each function's blocks in layout order, expands IR instructions
    into ISA instructions using the {!Regalloc} assignment, builds the
    prologue/epilogue (stack adjust, RA/FP/callee-saved saves, parameter
    moves), lowers calls with parallel-move resolution for argument
    registers, and finally links all functions into one instruction array
    with a two-instruction start stub ([call main; halt]).

    -fomit-frame-pointer is realized here: with the flag, the prologue drops
    the frame-pointer save/setup (2 instructions) and epilogue restore, and
    r29 joins the allocatable callee-saved pool. *)

type tgt = TNone | TBlock of int | TFunc of string

type einst = { i : Isa.inst; tgt : tgt }

let plain i = { i; tgt = TNone }

(* ------------------------------------------------------------------ *)

type emitter = {
  buf : einst ref array;  (* grown manually *)
  mutable items : einst list;  (* reversed *)
  mutable count : int;
}

let new_emitter () = { buf = [||]; items = []; count = 0 }

let emit e i =
  e.items <- i :: e.items;
  e.count <- e.count + 1

let emit_i e i = emit e (plain i)

(* Parallel move resolution: moves are (dst_preg_or_slot, src_loc, is_fp).
   Conflicts arise only when a destination physical register is the source
   of another pending move; cycles are broken through the scratch pair. *)
let resolve_moves e ~sp_slot_off (moves : (Regalloc.loc * Regalloc.loc * bool) list) =
  let emit_move (dst, src, is_fp) =
    match (dst, src) with
    | Regalloc.Preg d, Regalloc.Preg s ->
        if d <> s then emit_i e (Isa.make (if is_fp then FMOV else MOV) ~rd:d ~rs1:s)
    | Regalloc.Preg d, Regalloc.Slot s ->
        emit_i e (Isa.make (if is_fp then FLD else LD) ~rd:d ~rs1:Isa.r_sp ~imm:(sp_slot_off s))
    | Regalloc.Slot d, Regalloc.Preg s ->
        emit_i e (Isa.make (if is_fp then FST else ST) ~rs1:Isa.r_sp ~rs2:s ~imm:(sp_slot_off d))
    | Regalloc.Slot _, Regalloc.Slot _ -> invalid_arg "resolve_moves: slot-to-slot move"
  in
  let rec go pending =
    match pending with
    | [] -> ()
    | _ ->
        let blocked (dst, _, _) =
          match dst with
          | Regalloc.Preg d ->
              List.exists
                (fun (dst', src', _) ->
                  dst' <> dst && (match src' with Regalloc.Preg s -> s = d | _ -> false))
                pending
          | Regalloc.Slot _ -> false
        in
        let ready, rest = List.partition (fun m -> not (blocked m)) pending in
        if ready <> [] then begin
          List.iter emit_move ready;
          go rest
        end
        else begin
          (* cycle: rotate through scratch *)
          match pending with
          | (dst, src, is_fp) :: others ->
              let scratch = if is_fp then Isa.f_scratch0 else Isa.r_scratch in
              emit_move (Regalloc.Preg scratch, src, is_fp);
              let others =
                List.map
                  (fun (d, s, f) -> if s = src then (d, Regalloc.Preg scratch, f) else (d, s, f))
                  others
              in
              go ((dst, Regalloc.Preg scratch, is_fp) :: others)
          | [] -> ()
        end
  in
  (* drop no-op moves first *)
  go (List.filter (fun (d, s, _) -> d <> s) moves)

(* ------------------------------------------------------------------ *)

let emit_func ~omit_frame_pointer (f : Ir.func) : einst array * (string * int) list =
  let ra = Regalloc.allocate ~omit_frame_pointer f in
  let loc v = ra.Regalloc.loc_of.(v) in
  let has_calls =
    Array.exists
      (fun (b : Ir.block) ->
        List.exists (function Ir.Call (_, g, _) -> g <> "__out" | _ -> false) b.instrs)
      f.Ir.blocks
  in
  (* frame layout *)
  let cursor = ref 0 in
  let ra_off = if has_calls then (let o = !cursor in cursor := o + 8; Some o) else None in
  let fp_off =
    if not omit_frame_pointer then (let o = !cursor in cursor := o + 8; Some o) else None
  in
  let callee_offs =
    List.map
      (fun r ->
        let o = !cursor in
        cursor := o + 8;
        (r, o))
      ra.Regalloc.used_callee_saved
  in
  let spill_base = !cursor in
  let framesize =
    let raw = spill_base + (ra.Regalloc.n_slots * 8) in
    (raw + 15) land lnot 15
  in
  let slot_off s = spill_base + (s * 8) in
  let e = new_emitter () in
  let marks = ref [] in
  (* ---- operand helpers ---- *)
  let read_reg v ~scratch =
    match loc v with
    | Regalloc.Preg p -> p
    | Regalloc.Slot s ->
        let fp = Ir.reg_type f v = Ir.F64 in
        emit_i e (Isa.make (if fp then FLD else LD) ~rd:scratch ~rs1:Isa.r_sp ~imm:(slot_off s));
        scratch
  in
  let read_op op ~scratch =
    match op with
    | Ir.Reg v -> read_reg v ~scratch
    | Ir.Imm k ->
        emit_i e (Isa.make LDI ~rd:scratch ~imm:k);
        scratch
  in
  let dst_reg d ~scratch = match loc d with Regalloc.Preg p -> p | Regalloc.Slot _ -> scratch in
  let finish_dst d reg =
    match loc d with
    | Regalloc.Preg p -> assert (p = reg)
    | Regalloc.Slot s ->
        let fp = Ir.reg_type f d = Ir.F64 in
        emit_i e (Isa.make (if fp then FST else ST) ~rs1:Isa.r_sp ~rs2:reg ~imm:(slot_off s))
  in
  let s0 = Isa.r_scratch and s1 = Isa.r_ret in
  let fs0 = Isa.f_scratch0 and fs1 = Isa.f_scratch1 in
  (* ---- prologue ---- *)
  if framesize > 0 then emit_i e (Isa.make ADDI ~rd:Isa.r_sp ~rs1:Isa.r_sp ~imm:(-framesize));
  (match fp_off with
  | Some o ->
      emit_i e (Isa.make ST ~rs1:Isa.r_sp ~rs2:Isa.r_fp ~imm:o);
      emit_i e (Isa.make MOV ~rd:Isa.r_fp ~rs1:Isa.r_sp)
  | None -> ());
  (match ra_off with
  | Some o -> emit_i e (Isa.make ST ~rs1:Isa.r_sp ~rs2:Isa.r_ra ~imm:o)
  | None -> ());
  List.iter
    (fun (r, o) ->
      emit_i e (Isa.make (if Isa.is_fp_reg r then FST else ST) ~rs1:Isa.r_sp ~rs2:r ~imm:o))
    callee_offs;
  (* parameter moves *)
  let param_moves =
    let ints = ref 0 and fps = ref 0 in
    List.filter_map
      (fun p ->
        let is_fp = Ir.reg_type f p = Ir.F64 in
        let src =
          if is_fp then (
            let r = Isa.f_arg !fps in
            incr fps;
            r)
          else (
            let r = Isa.r_arg !ints in
            incr ints;
            r)
        in
        match loc p with
        | Regalloc.Slot (-1) -> None (* unused parameter *)
        | l -> Some (l, Regalloc.Preg src, is_fp))
      f.Ir.params
  in
  resolve_moves e ~sp_slot_off:slot_off param_moves;
  (* ---- epilogue (emitted at each return) ---- *)
  let emit_epilogue () =
    List.iter
      (fun (r, o) ->
        emit_i e (Isa.make (if Isa.is_fp_reg r then FLD else LD) ~rd:r ~rs1:Isa.r_sp ~imm:o))
      callee_offs;
    (match ra_off with
    | Some o -> emit_i e (Isa.make LD ~rd:Isa.r_ra ~rs1:Isa.r_sp ~imm:o)
    | None -> ());
    (match fp_off with
    | Some o -> emit_i e (Isa.make LD ~rd:Isa.r_fp ~rs1:Isa.r_sp ~imm:o)
    | None -> ());
    if framesize > 0 then emit_i e (Isa.make ADDI ~rd:Isa.r_sp ~rs1:Isa.r_sp ~imm:framesize);
    emit_i e (Isa.make RET)
  in
  (* ---- body ---- *)
  let layout = Array.of_list f.Ir.layout in
  let next_of i = if i + 1 < Array.length layout then Some layout.(i + 1) else None in
  Array.iteri
    (fun li l ->
      let b = f.blocks.(l) in
      marks := (l, e.count) :: !marks;
      List.iter
        (fun instr ->
          match instr with
          | Ir.Iconst (d, v) ->
              let rd = dst_reg d ~scratch:s0 in
              emit_i e (Isa.make LDI ~rd ~imm:v);
              finish_dst d rd
          | Ir.Fconst (d, v) ->
              let rd = dst_reg d ~scratch:fs0 in
              emit_i e (Isa.make LFI ~rd ~fimm:v);
              finish_dst d rd
          | Ir.Ibin (op, d, a, bo) -> (
              let simple mop =
                let ra' = read_op a ~scratch:s0 in
                let rb = read_op bo ~scratch:s1 in
                let rd = dst_reg d ~scratch:s0 in
                emit_i e (Isa.make mop ~rd ~rs1:ra' ~rs2:rb);
                finish_dst d rd
              in
              match (op, a, bo) with
              | Ir.Add, Ir.Reg va, Ir.Imm k | Ir.Add, Ir.Imm k, Ir.Reg va ->
                  let ra' = read_reg va ~scratch:s0 in
                  let rd = dst_reg d ~scratch:s0 in
                  emit_i e (Isa.make ADDI ~rd ~rs1:ra' ~imm:k);
                  finish_dst d rd
              | Ir.Sub, Ir.Reg va, Ir.Imm k ->
                  let ra' = read_reg va ~scratch:s0 in
                  let rd = dst_reg d ~scratch:s0 in
                  emit_i e (Isa.make ADDI ~rd ~rs1:ra' ~imm:(-k));
                  finish_dst d rd
              | Ir.Shl, Ir.Reg va, Ir.Imm k ->
                  let ra' = read_reg va ~scratch:s0 in
                  let rd = dst_reg d ~scratch:s0 in
                  emit_i e (Isa.make SLLI ~rd ~rs1:ra' ~imm:k);
                  finish_dst d rd
              | _ ->
                  let mop =
                    match op with
                    | Ir.Add -> ADD | Ir.Sub -> SUB | Ir.Mul -> MUL | Ir.Div -> DIV
                    | Ir.Rem -> REM | Ir.And -> AND | Ir.Or -> OR | Ir.Xor -> XOR
                    | Ir.Shl -> SLL | Ir.Shr -> SRL | Ir.Sra -> SRA
                  in
                  simple mop)
          | Ir.Fbin (op, d, x, y) ->
              let rx = read_reg x ~scratch:fs0 in
              let ry = read_reg y ~scratch:fs1 in
              let rd = dst_reg d ~scratch:fs0 in
              let mop =
                match op with
                | Ir.FAdd -> FADD | Ir.FSub -> FSUB | Ir.FMul -> FMUL | Ir.FDiv -> FDIV
              in
              emit_i e (Isa.make mop ~rd ~rs1:rx ~rs2:ry);
              finish_dst d rd
          | Ir.Icmp (op, d, a, bo) ->
              let ra' = read_op a ~scratch:s0 in
              let rb = read_op bo ~scratch:s1 in
              let rd = dst_reg d ~scratch:s0 in
              let mop =
                match op with
                | Ir.Eq -> CEQ | Ir.Ne -> CNE | Ir.Lt -> CLT | Ir.Le -> CLE
                | Ir.Gt -> CGT | Ir.Ge -> CGE
              in
              emit_i e (Isa.make mop ~rd ~rs1:ra' ~rs2:rb);
              finish_dst d rd
          | Ir.Fcmp (op, d, x, y) ->
              let rx = read_reg x ~scratch:fs0 in
              let ry = read_reg y ~scratch:fs1 in
              let rd = dst_reg d ~scratch:s0 in
              let mop =
                match op with
                | Ir.Eq -> FCEQ | Ir.Ne -> FCNE | Ir.Lt -> FCLT | Ir.Le -> FCLE
                | Ir.Gt -> FCGT | Ir.Ge -> FCGE
              in
              emit_i e (Isa.make mop ~rd ~rs1:rx ~rs2:ry);
              finish_dst d rd
          | Ir.Load (ty, d, addr) ->
              let raddr = read_reg addr ~scratch:s0 in
              let fp = ty = Ir.F64 in
              let rd = dst_reg d ~scratch:(if fp then fs0 else s0) in
              emit_i e (Isa.make (if fp then FLD else LD) ~rd ~rs1:raddr ~imm:0);
              finish_dst d rd
          | Ir.Store (ty, addr, v) ->
              let raddr = read_reg addr ~scratch:s0 in
              let fp = ty = Ir.F64 in
              let rv = read_reg v ~scratch:(if fp then fs0 else s1) in
              emit_i e (Isa.make (if fp then FST else ST) ~rs1:raddr ~rs2:rv ~imm:0)
          | Ir.Prefetch addr ->
              let raddr = read_reg addr ~scratch:s0 in
              emit_i e (Isa.make PREF ~rs1:raddr ~imm:0)
          | Ir.Call (_, "__out", [ v ]) ->
              let fp = Ir.reg_type f v = Ir.F64 in
              let rv = read_reg v ~scratch:(if fp then fs0 else s0) in
              emit_i e (Isa.make OUT ~rs1:rv)
          | Ir.Call (dst, g, args) ->
              (* argument moves: ints to r1.., fps to f1.. *)
              let ints = ref 0 and fps = ref 0 in
              let moves =
                List.map
                  (fun a ->
                    let is_fp = Ir.reg_type f a = Ir.F64 in
                    let dreg =
                      if is_fp then (
                        let r = Isa.f_arg !fps in
                        incr fps;
                        r)
                      else (
                        let r = Isa.r_arg !ints in
                        incr ints;
                        r)
                    in
                    (Regalloc.Preg dreg, loc a, is_fp))
                  args
              in
              resolve_moves e ~sp_slot_off:slot_off moves;
              emit e { i = Isa.make CALL; tgt = TFunc g };
              (match dst with
              | Some d ->
                  let fp = Ir.reg_type f d = Ir.F64 in
                  let src = if fp then Isa.f_ret else Isa.r_ret in
                  (match loc d with
                  | Regalloc.Preg p ->
                      if p <> src then emit_i e (Isa.make (if fp then FMOV else MOV) ~rd:p ~rs1:src)
                  | Regalloc.Slot s ->
                      emit_i e
                        (Isa.make (if fp then FST else ST) ~rs1:Isa.r_sp ~rs2:src
                           ~imm:(slot_off s)))
              | None -> ())
          | Ir.ItoF (d, s) ->
              let rs = read_reg s ~scratch:s0 in
              let rd = dst_reg d ~scratch:fs0 in
              emit_i e (Isa.make ITOF ~rd ~rs1:rs);
              finish_dst d rd
          | Ir.FtoI (d, s) ->
              let rs = read_reg s ~scratch:fs0 in
              let rd = dst_reg d ~scratch:s0 in
              emit_i e (Isa.make FTOI ~rd ~rs1:rs);
              finish_dst d rd
          | Ir.Mov (ty, d, s) -> (
              let fp = ty = Ir.F64 in
              match (loc d, loc s) with
              | Regalloc.Preg pd, Regalloc.Preg ps ->
                  if pd <> ps then emit_i e (Isa.make (if fp then FMOV else MOV) ~rd:pd ~rs1:ps)
              | Regalloc.Preg pd, Regalloc.Slot ss ->
                  emit_i e (Isa.make (if fp then FLD else LD) ~rd:pd ~rs1:Isa.r_sp ~imm:(slot_off ss))
              | Regalloc.Slot sd, Regalloc.Preg ps ->
                  emit_i e (Isa.make (if fp then FST else ST) ~rs1:Isa.r_sp ~rs2:ps ~imm:(slot_off sd))
              | Regalloc.Slot sd, Regalloc.Slot ss ->
                  let sc = if fp then fs0 else s0 in
                  emit_i e (Isa.make (if fp then FLD else LD) ~rd:sc ~rs1:Isa.r_sp ~imm:(slot_off ss));
                  emit_i e (Isa.make (if fp then FST else ST) ~rs1:Isa.r_sp ~rs2:sc ~imm:(slot_off sd))))
        b.instrs;
      (* terminator *)
      (match b.term with
      | Ir.Ret None ->
          emit_epilogue ()
      | Ir.Ret (Some v) ->
          let fp = Ir.reg_type f v = Ir.F64 in
          let dst = if fp then Isa.f_ret else Isa.r_ret in
          (match loc v with
          | Regalloc.Preg p ->
              if p <> dst then emit_i e (Isa.make (if fp then FMOV else MOV) ~rd:dst ~rs1:p)
          | Regalloc.Slot s ->
              emit_i e (Isa.make (if fp then FLD else LD) ~rd:dst ~rs1:Isa.r_sp ~imm:(slot_off s)));
          emit_epilogue ()
      | Ir.Br l' ->
          if next_of li <> Some l' then emit e { i = Isa.make J; tgt = TBlock l' }
      | Ir.CondBr (c, t, el) ->
          let rc = read_reg c ~scratch:s0 in
          if next_of li = Some el then emit e { i = Isa.make BNEZ ~rs1:rc; tgt = TBlock t }
          else if next_of li = Some t then emit e { i = Isa.make BEQZ ~rs1:rc; tgt = TBlock el }
          else begin
            emit e { i = Isa.make BNEZ ~rs1:rc; tgt = TBlock t };
            emit e { i = Isa.make J; tgt = TBlock el }
          end))
    layout;
  let arr = Array.of_list (List.rev e.items) in
  (* resolve block targets to function-relative pcs *)
  let block_pc l =
    match List.assoc_opt l !marks with
    | Some pc -> pc
    | None -> invalid_arg "codegen: branch to unemitted block"
  in
  let arr =
    Array.map
      (fun ei ->
        match ei.tgt with
        | TBlock l -> { i = { ei.i with imm = block_pc l }; tgt = TNone }
        | _ -> ei)
      arr
  in
  (arr, [])

(* ------------------------------------------------------------------ *)

(** Link a whole program: start stub, then each function;call targets patched; returns the executable image. *)
let emit_program ~omit_frame_pointer (p : Ir.program) : Isa.program =
  let layout = Memlayout.compute p in
  (* stub at pc 0: call main; halt *)
  let pieces =
    List.map (fun (name, f) -> (name, fst (emit_func ~omit_frame_pointer f))) p.funcs
  in
  let stub_len = 2 in
  let starts = ref [] in
  let pc = ref stub_len in
  List.iter
    (fun (name, arr) ->
      starts := (name, !pc) :: !starts;
      pc := !pc + Array.length arr)
    pieces;
  let func_starts = List.rev !starts in
  let total = !pc in
  let insts = Array.make total Isa.nop in
  let main_pc =
    match List.assoc_opt "main" func_starts with
    | Some s -> s
    | None -> invalid_arg "codegen: no main function"
  in
  insts.(0) <- { (Isa.make CALL) with imm = main_pc };
  insts.(1) <- Isa.make HALT;
  List.iter
    (fun (name, arr) ->
      let base = List.assoc name func_starts in
      Array.iteri
        (fun i ei ->
          let inst =
            match ei.tgt with
            | TNone ->
                if Isa.is_cond_branch ei.i.Isa.op || ei.i.Isa.op = J then
                  { ei.i with imm = ei.i.Isa.imm + base }
                else ei.i
            | TFunc g -> (
                match List.assoc_opt g func_starts with
                | Some s -> { ei.i with imm = s }
                | None -> invalid_arg ("codegen: call to unknown function " ^ g))
            | TBlock _ -> assert false
          in
          insts.(base + i) <- inst)
        arr)
    pieces;
  { Isa.insts; entry = 0; layout; func_starts }
