open Emc_ir
(** The target ISA: a 64-bit load/store RISC machine in the Alpha mold.

    32 integer registers (ids 0–31) and 32 floating-point registers (ids
    32–63) share one register-id namespace, which keeps dependence tracking
    in the simulator uniform. Instructions are fixed 4-byte; a PC is an index
    into the instruction array and the byte address [4*pc] is what the
    I-cache sees.

    Calling convention:
    - [r1]–[r6] / [fa0]–[fa5] carry arguments, [r0] / [f0] the result;
    - [r16]–[r27] and [f16]–[f27] are callee-saved;
    - [r28] and [f28]/[f29] are reserved assembler/spill scratch;
    - [r29] is the frame pointer, allocatable under -fomit-frame-pointer;
    - [r30] is SP, [r31] the return address. *)

type opcode =
  (* constants *)
  | LDI  (** rd <- imm *)
  | LFI  (** rd <- fimm *)
  (* integer ALU *)
  | ADD | SUB | MUL | DIV | REM | AND | OR | XOR | SLL | SRL | SRA
  | ADDI  (** rd <- rs1 + imm *)
  | SLLI  (** rd <- rs1 << imm *)
  (* compare, result 0/1 *)
  | CEQ | CNE | CLT | CLE | CGT | CGE
  (* floating point *)
  | FADD | FSUB | FMUL | FDIV
  | FCEQ | FCNE | FCLT | FCLE | FCGT | FCGE
  | ITOF | FTOI
  (* memory: address rs1 + imm *)
  | LD | ST | FLD | FST | PREF
  (* control *)
  | BEQZ | BNEZ  (** branch to imm when rs1 =/<> 0 *)
  | J  (** jump to imm *)
  | CALL  (** call imm, RA <- pc+1 *)
  | RET  (** jump to RA *)
  (* misc *)
  | MOV | FMOV
  | OUT  (** observable output of rs1 (int or fp register) *)
  | HALT
  | NOP

type inst = {
  op : opcode;
  rd : int;  (** destination register id, -1 when none *)
  rs1 : int;  (** first source, -1 when none *)
  rs2 : int;  (** second source, -1 when none *)
  imm : int;  (** immediate / memory offset / branch or call target pc *)
  fimm : float;  (** FP immediate for {!LFI} *)
}

let nop = { op = NOP; rd = -1; rs1 = -1; rs2 = -1; imm = 0; fimm = 0.0 }
let make ?(rd = -1) ?(rs1 = -1) ?(rs2 = -1) ?(imm = 0) ?(fimm = 0.0) op =
  { op; rd; rs1; rs2; imm; fimm }

(* Register namespace helpers *)
let fp_base = 32
let is_fp_reg r = r >= fp_base

(* ABI registers *)
let r_ret = 0
let r_arg i = 1 + i (* r1..r6 *)
let r_scratch = 28
let r_fp = 29
let r_sp = 30
let r_ra = 31
let f_ret = fp_base (* f0 *)
let f_arg i = fp_base + 1 + i (* f1..f6 *)
let f_scratch0 = fp_base + 28
let f_scratch1 = fp_base + 29

let int_caller_saved = List.init 15 (fun i -> i + 1) (* r1..r15 *)
let int_callee_saved = List.init 12 (fun i -> i + 16) (* r16..r27 *)
let fp_caller_saved = List.init 15 (fun i -> fp_base + 1 + i) (* f1..f15 *)
let fp_callee_saved = List.init 12 (fun i -> fp_base + 16 + i) (* f16..f27 *)

(** Functional unit classes, as in SimpleScalar's sim-outorder. *)
type fu_class = IntAlu | IntMul | FpAlu | FpMul | LdSt | Branch | NoFu

let fu_of = function
  | LDI | ADD | SUB | AND | OR | XOR | SLL | SRL | SRA | ADDI | SLLI | CEQ | CNE | CLT | CLE
  | CGT | CGE | MOV | OUT ->
      IntAlu
  | MUL | DIV | REM -> IntMul
  | FADD | FSUB | FCEQ | FCNE | FCLT | FCLE | FCGT | FCGE | ITOF | FTOI | LFI | FMOV -> FpAlu
  | FMUL | FDIV -> FpMul
  | LD | ST | FLD | FST | PREF -> LdSt
  | BEQZ | BNEZ | J | CALL | RET -> Branch
  | HALT | NOP -> NoFu

(** Execution latency in cycles; memory instructions add cache latency on
    top of this issue-to-ready base. *)
let latency_of = function
  | MUL -> 3
  | DIV | REM -> 12
  | FADD | FSUB | ITOF | FTOI -> 2
  | FCEQ | FCNE | FCLT | FCLE | FCGT | FCGE -> 2
  | FMUL -> 4
  | FDIV -> 12
  | _ -> 1

let is_branch op = match op with BEQZ | BNEZ | J | CALL | RET -> true | _ -> false
let is_cond_branch op = match op with BEQZ | BNEZ -> true | _ -> false
let is_load op = match op with LD | FLD -> true | _ -> false
let is_store op = match op with ST | FST -> true | _ -> false
let is_mem op = match op with LD | FLD | ST | FST | PREF -> true | _ -> false

(** Functional-unit configuration, determined by the issue width as in the
    paper ("we use the issue width parameter to determine the functional
    unit configuration"). *)
type machine = {
  issue_width : int;
  n_int_alu : int;
  n_int_mul : int;
  n_fp_alu : int;
  n_fp_mul : int;
  n_ldst : int;
}

let machine_for_width w =
  match w with
  | 2 -> { issue_width = 2; n_int_alu = 2; n_int_mul = 1; n_fp_alu = 1; n_fp_mul = 1; n_ldst = 1 }
  | 4 -> { issue_width = 4; n_int_alu = 4; n_int_mul = 2; n_fp_alu = 2; n_fp_mul = 2; n_ldst = 2 }
  | 8 -> { issue_width = 8; n_int_alu = 8; n_int_mul = 4; n_fp_alu = 4; n_fp_mul = 4; n_ldst = 4 }
  | w when w >= 1 ->
      { issue_width = w; n_int_alu = w; n_int_mul = max 1 (w / 2); n_fp_alu = max 1 (w / 2);
        n_fp_mul = max 1 (w / 2); n_ldst = max 1 (w / 2) }
  | _ -> invalid_arg "Isa.machine_for_width: width must be positive"

(** Dense index for per-class counters. *)
let fu_index = function
  | IntAlu -> 0 | IntMul -> 1 | FpAlu -> 2 | FpMul -> 3 | LdSt -> 4 | Branch -> 5 | NoFu -> 6

let n_fu_classes = 7

let fu_count m = function
  | IntAlu -> m.n_int_alu
  | IntMul -> m.n_int_mul
  | FpAlu -> m.n_fp_alu
  | FpMul -> m.n_fp_mul
  | LdSt -> m.n_ldst
  | Branch -> m.issue_width
  | NoFu -> m.issue_width

let string_of_opcode = function
  | LDI -> "ldi" | LFI -> "lfi" | ADD -> "add" | SUB -> "sub" | MUL -> "mul" | DIV -> "div"
  | REM -> "rem" | AND -> "and" | OR -> "or" | XOR -> "xor" | SLL -> "sll" | SRL -> "srl"
  | SRA -> "sra" | ADDI -> "addi" | SLLI -> "slli" | CEQ -> "ceq" | CNE -> "cne" | CLT -> "clt"
  | CLE -> "cle" | CGT -> "cgt" | CGE -> "cge" | FADD -> "fadd" | FSUB -> "fsub" | FMUL -> "fmul"
  | FDIV -> "fdiv" | FCEQ -> "fceq" | FCNE -> "fcne" | FCLT -> "fclt" | FCLE -> "fcle"
  | FCGT -> "fcgt" | FCGE -> "fcge" | ITOF -> "itof" | FTOI -> "ftoi" | LD -> "ld" | ST -> "st"
  | FLD -> "fld" | FST -> "fst" | PREF -> "pref" | BEQZ -> "beqz" | BNEZ -> "bnez" | J -> "j"
  | CALL -> "call" | RET -> "ret" | MOV -> "mov" | FMOV -> "fmov" | OUT -> "out" | HALT -> "halt"
  | NOP -> "nop"

let pp_reg fmt r =
  if r < 0 then Format.fprintf fmt "_"
  else if is_fp_reg r then Format.fprintf fmt "f%d" (r - fp_base)
  else Format.fprintf fmt "r%d" r

let pp_inst fmt i =
  Format.fprintf fmt "%-5s %a, %a, %a, imm=%d" (string_of_opcode i.op) pp_reg i.rd pp_reg i.rs1
    pp_reg i.rs2 i.imm

(** A linked executable: instruction array plus data-segment metadata. *)
type program = {
  insts : inst array;
  entry : int;  (** pc of main *)
  layout : Memlayout.t;  (** globals, their addresses and the stack *)
  func_starts : (string * int) list;
}
