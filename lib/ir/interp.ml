(** Reference interpreter for the IR.

    Serves as the semantic oracle: tests and the {!Emc_diff} differential
    harness check that every optimization level and flag combination leaves
    program outputs unchanged by comparing the machine-level functional
    simulation against this interpreter (and O0 IR against optimized IR).
    Arithmetic uses the same 64-bit semantics as the target ISA (OCaml
    native ints; shifts masked to 6 bits; division truncates toward zero;
    IEEE-754 float comparisons, so every ordered comparison involving NaN is
    false and [Ne] is true; [FtoI] of NaN yields 0, matching the machine's
    FTOI). Runtime faults raise the typed {!Trap.Trap} shared with the
    simulators, so trap outcomes are comparable across levels. *)

type value = VI of int | VF of float

type outcome = {
  ret : value option;
  outputs : value list;  (** values passed to the [__out] intrinsic, in order *)
  dyn_instrs : int;  (** dynamic IR instructions executed *)
}

type state = {
  program : Ir.program;
  layout : Memlayout.t;
  mem : float array;  (** word-addressed backing store for F64 cells *)
  imem : int array;  (** word-addressed backing store for I64 cells *)
  mutable outputs : value list;
  mutable dyn : int;
}

exception Trap = Trap.Trap

let create program =
  let layout = Memlayout.compute program in
  let words = Memlayout.mem_words layout in
  {
    program;
    layout;
    mem = Array.make words 0.0;
    imem = Array.make words 0;
    outputs = [];
    dyn = 0;
  }

let word addr =
  if addr land 7 <> 0 then raise (Trap (Trap.Unaligned_access addr));
  addr lsr 3

(** Write input arrays into memory; see {!Memlayout.load}. *)
let load st inputs = Memlayout.load st.layout ~imem:st.imem ~fmem:st.mem inputs

let eval_ibin op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then raise (Trap Trap.Div_by_zero) else a / b
  | Ir.Rem -> if b = 0 then raise (Trap Trap.Rem_by_zero) else a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl (b land 63)
  | Ir.Shr -> a lsr (b land 63)
  | Ir.Sra -> a asr (b land 63)

let eval_fbin op a b =
  match op with
  | Ir.FAdd -> a +. b
  | Ir.FSub -> a -. b
  | Ir.FMul -> a *. b
  | Ir.FDiv -> a /. b

let eval_cmp op c = match op with
  | Ir.Eq -> c = 0 | Ir.Ne -> c <> 0 | Ir.Lt -> c < 0 | Ir.Le -> c <= 0 | Ir.Gt -> c > 0 | Ir.Ge -> c >= 0

let icmp op a b = if eval_cmp op (compare (a : int) b) then 1 else 0

(** Float-comparison semantics. [Ieee] (the default, and the machine's
    behaviour) is the spec. [Total_order] is the quarantined pre-fix
    behaviour — OCaml's total-order [compare], under which [NaN = NaN] and
    [NaN < x] hold — kept only so the differential harness can demonstrate
    against a live fixture that it finds and shrinks the divergence this
    very module used to have (see test/test_diff.ml). Never use it for
    real measurements. *)
type fcmp_semantics = Ieee | Total_order

let fcmp_ieee op (a : float) (b : float) =
  let r =
    match op with
    | Ir.Eq -> a = b
    | Ir.Ne -> a <> b
    | Ir.Lt -> a < b
    | Ir.Le -> a <= b
    | Ir.Gt -> a > b
    | Ir.Ge -> a >= b
  in
  if r then 1 else 0

let fcmp semantics op (a : float) (b : float) =
  match semantics with
  | Ieee -> fcmp_ieee op a b
  | Total_order -> if eval_cmp op (compare a b) then 1 else 0

(* Register file per activation. *)
type frame = { ints : (int, int) Hashtbl.t; flts : (int, float) Hashtbl.t }

let geti fr r =
  match Hashtbl.find_opt fr.ints r with
  | Some v -> v
  | None -> raise (Trap (Trap.Bad_program (Printf.sprintf "use of undefined int vreg v%d" r)))

let getf fr r =
  match Hashtbl.find_opt fr.flts r with
  | Some v -> v
  | None -> raise (Trap (Trap.Bad_program (Printf.sprintf "use of undefined float vreg v%d" r)))

let operand fr = function Ir.Reg r -> geti fr r | Ir.Imm i -> i

let run ?(fuel = 200_000_000) ?(fcmp_semantics = Ieee) st ~func ~args =
  (* per-run state: a reused [state] must not see the previous run's
     outputs or double-count its dynamic instructions *)
  st.outputs <- [];
  st.dyn <- 0;
  let fuel_left = ref fuel in
  let rec call_func (f : Ir.func) (args : value list) : value option =
    let fr = { ints = Hashtbl.create 32; flts = Hashtbl.create 16 } in
    List.iter2
      (fun p v ->
        match (v, Ir.reg_type f p) with
        | VI i, Ir.I64 -> Hashtbl.replace fr.ints p i
        | VF x, Ir.F64 -> Hashtbl.replace fr.flts p x
        | _ -> raise (Trap (Trap.Bad_program "argument type mismatch")))
      f.params args;
    let rec exec_block l =
      let b = f.blocks.(l) in
      List.iter (exec_instr fr) b.instrs;
      st.dyn <- st.dyn + List.length b.instrs + 1;
      fuel_left := !fuel_left - (List.length b.instrs + 1);
      if !fuel_left <= 0 then raise (Trap Trap.Out_of_fuel);
      match b.term with
      | Ir.Ret None -> None
      | Ir.Ret (Some r) -> (
          match f.ret_ty with
          | Some Ir.I64 -> Some (VI (geti fr r))
          | Some Ir.F64 -> Some (VF (getf fr r))
          | None -> raise (Trap (Trap.Bad_program "ret with value in void function")))
      | Ir.Br l' -> exec_block l'
      | Ir.CondBr (c, a, b') -> exec_block (if geti fr c <> 0 then a else b')
    and exec_instr fr instr =
      match instr with
      | Ir.Iconst (d, v) -> Hashtbl.replace fr.ints d v
      | Ir.Fconst (d, v) -> Hashtbl.replace fr.flts d v
      | Ir.Ibin (op, d, a, b) -> Hashtbl.replace fr.ints d (eval_ibin op (operand fr a) (operand fr b))
      | Ir.Fbin (op, d, a, b) -> Hashtbl.replace fr.flts d (eval_fbin op (getf fr a) (getf fr b))
      | Ir.Icmp (op, d, a, b) -> Hashtbl.replace fr.ints d (icmp op (operand fr a) (operand fr b))
      | Ir.Fcmp (op, d, a, b) ->
          Hashtbl.replace fr.ints d (fcmp fcmp_semantics op (getf fr a) (getf fr b))
      | Ir.Load (Ir.I64, d, a) -> Hashtbl.replace fr.ints d st.imem.(word (geti fr a))
      | Ir.Load (Ir.F64, d, a) -> Hashtbl.replace fr.flts d st.mem.(word (geti fr a))
      | Ir.Store (Ir.I64, a, s) -> st.imem.(word (geti fr a)) <- geti fr s
      | Ir.Store (Ir.F64, a, s) -> st.mem.(word (geti fr a)) <- getf fr s
      | Ir.Prefetch _ -> ()
      | Ir.Call (d, "__out", args) ->
          (match args with
          | [ a ] ->
              let v =
                match Ir.reg_type f a with Ir.I64 -> VI (geti fr a) | Ir.F64 -> VF (getf fr a)
              in
              st.outputs <- v :: st.outputs
          | _ -> raise (Trap (Trap.Bad_program "__out expects one argument")));
          (match d with
          | Some _ -> raise (Trap (Trap.Bad_program "__out returns nothing"))
          | None -> ())
      | Ir.Call (d, name, args) -> (
          let callee =
            match Ir.find_func st.program name with
            | Some c -> c
            | None -> raise (Trap (Trap.Bad_program ("call to unknown function " ^ name)))
          in
          let argv =
            List.map
              (fun a ->
                match Ir.reg_type f a with Ir.I64 -> VI (geti fr a) | Ir.F64 -> VF (getf fr a))
              args
          in
          match (call_func callee argv, d) with
          | Some (VI v), Some d -> Hashtbl.replace fr.ints d v
          | Some (VF v), Some d -> Hashtbl.replace fr.flts d v
          | _, None -> ()
          | None, Some _ ->
              raise (Trap (Trap.Bad_program ("void call result captured: " ^ name))))
      | Ir.ItoF (d, s) -> Hashtbl.replace fr.flts d (float_of_int (geti fr s))
      | Ir.FtoI (d, s) ->
          (* NaN converts to 0, exactly as the machine's FTOI does; keeping
             the conversion total keeps [FtoI] pure for the optimizer *)
          let x = getf fr s in
          Hashtbl.replace fr.ints d (if Float.is_nan x then 0 else int_of_float x)
      | Ir.Mov (Ir.I64, d, s) -> Hashtbl.replace fr.ints d (geti fr s)
      | Ir.Mov (Ir.F64, d, s) -> Hashtbl.replace fr.flts d (getf fr s)
    in
    exec_block Ir.entry_label
  in
  let f =
    match Ir.find_func st.program func with
    | Some f -> f
    | None -> raise (Trap (Trap.Bad_program ("no such function: " ^ func)))
  in
  let ret = call_func f args in
  { ret; outputs = List.rev st.outputs; dyn_instrs = st.dyn }
