open Emc_ir

(** -fgcse: global common subexpression elimination together with constant
    and copy propagation and constant folding (gcc's flag description:
    "Perform GCSE pass, also perform constant and copy propagation").

    Because the IR is not SSA, global reasoning is restricted to registers
    with a single static definition (every compiler temporary). Within a
    block, a classic value-numbering pass handles multiply-defined source
    variables and redundant loads, with versions bumped at kills. The global
    CSE is a dominator-tree walk with a scoped expression table, the standard
    dominator-based value-numbering shape. *)

(* ------------------------------------------------------------------ *)
(* Constant & copy propagation + folding                               *)

(* One round of propagation/folding. Returns true if anything changed. *)
let propagate_func (f : Ir.func) =
  let a = Analysis.compute f in
  let changed = ref false in
  (* constant value of single-def int registers *)
  let const_of r =
    match a.Analysis.def_instr.(r) with
    | Some (Ir.Iconst (_, v)) -> Some v
    | _ -> None
  in
  let fconst_of r =
    match a.Analysis.def_instr.(r) with
    | Some (Ir.Fconst (_, v)) -> Some v
    | _ -> None
  in
  (* copy chains: single-def d := mov s, with s single-def *)
  let rec copy_root r depth =
    if depth > 8 then r
    else
      match a.Analysis.def_instr.(r) with
      | Some (Ir.Mov (_, _, s)) when Analysis.single_def a s -> copy_root s (depth + 1)
      | _ -> r
  in
  let subst r =
    let r' = copy_root r 0 in
    if r' <> r then changed := true;
    r'
  in
  Analysis.substitute_uses f subst;
  (* fold operands to immediates and fold whole instructions *)
  let op_imm = function
    | Ir.Imm i -> Ir.Imm i
    | Ir.Reg r -> ( match const_of r with Some v -> changed := true; Ir.Imm v | None -> Ir.Reg r)
  in
  Array.iter
    (fun (b : Ir.block) ->
      b.instrs <-
        List.map
          (fun instr ->
            match instr with
            | Ir.Ibin (op, d, x, y) -> (
                let x = op_imm x and y = op_imm y in
                match (x, y) with
                | Ir.Imm ia, Ir.Imm ib -> (
                    (* the interpreter's arithmetic is the one definition;
                       what traps there (a division or remainder by zero)
                       is left for the run to trap on *)
                    match Interp.eval_ibin op ia ib with
                    | v ->
                        changed := true;
                        Ir.Iconst (d, v)
                    | exception Interp.Trap _ -> Ir.Ibin (op, d, x, y))
                (* algebraic identities *)
                | Ir.Reg r, Ir.Imm 0 when op = Ir.Add || op = Ir.Sub || op = Ir.Or
                                          || op = Ir.Xor || op = Ir.Shl || op = Ir.Shr
                                          || op = Ir.Sra ->
                    changed := true;
                    Ir.Mov (Ir.I64, d, r)
                | Ir.Reg r, Ir.Imm 1 when op = Ir.Mul || op = Ir.Div ->
                    changed := true;
                    Ir.Mov (Ir.I64, d, r)
                | _, Ir.Imm 0 when op = Ir.Mul ->
                    changed := true;
                    Ir.Iconst (d, 0)
                | _ -> Ir.Ibin (op, d, x, y))
            | Ir.Icmp (op, d, x, y) -> (
                let x = op_imm x and y = op_imm y in
                match (x, y) with
                | Ir.Imm ia, Ir.Imm ib ->
                    changed := true;
                    Ir.Iconst (d, Interp.icmp op ia ib)
                | _ -> Ir.Icmp (op, d, x, y))
            | Ir.Fbin (op, d, x, y) -> (
                match (fconst_of x, fconst_of y) with
                | Some a', Some b' ->
                    changed := true;
                    Ir.Fconst
                      ( d,
                        match op with
                        | Ir.FAdd -> a' +. b'
                        | Ir.FSub -> a' -. b'
                        | Ir.FMul -> a' *. b'
                        | Ir.FDiv -> a' /. b' )
                | _ -> instr)
            | _ -> instr)
          b.instrs;
      (* constant-condition branches *)
      match b.term with
      | Ir.CondBr (c, t, e) when Analysis.single_def a c -> (
          match const_of c with
          | Some v ->
              changed := true;
              b.term <- Ir.Br (if v <> 0 then t else e)
          | None -> ())
      | _ -> ())
    f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Local value numbering (handles multi-def registers and loads)       *)

type vn_key =
  | KI of Ir.binop * int * int  (* op, vn lhs, vn rhs *)
  | KC of Ir.cmpop * int * int
  | KF of Ir.fbinop * int * int
  | KFC of Ir.cmpop * int * int
  | KLoad of Ir.ty * int * int  (* ty, vn addr, memory version *)
  | KCast of bool * int  (* itof?, vn *)

let local_vn_block (f : Ir.func) (b : Ir.block) =
  ignore f;
  let changed = ref false in
  let next_vn = ref 0 in
  let reg_vn : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let imm_vn : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let expr_tbl : (vn_key, int * Ir.vreg) Hashtbl.t = Hashtbl.create 32 in
  let mem_version = ref 0 in
  let vn_of_reg r =
    match Hashtbl.find_opt reg_vn r with
    | Some v -> v
    | None ->
        incr next_vn;
        Hashtbl.replace reg_vn r !next_vn;
        !next_vn
  in
  let vn_of_op = function
    | Ir.Reg r -> vn_of_reg r
    | Ir.Imm i -> (
        match Hashtbl.find_opt imm_vn i with
        | Some v -> v
        | None ->
            incr next_vn;
            Hashtbl.replace imm_vn i !next_vn;
            !next_vn)
  in
  let fresh_vn r =
    incr next_vn;
    Hashtbl.replace reg_vn r !next_vn;
    !next_vn
  in
  b.instrs <-
    List.map
      (fun instr ->
        let try_cse key d ty =
          match Hashtbl.find_opt expr_tbl key with
          (* [src] is only a valid replacement if it has not been redefined
             since the table entry was made: its current value number must
             still match the recorded one. *)
          | Some (vn_at_entry, src) when src <> d && vn_of_reg src = vn_at_entry ->
              changed := true;
              Hashtbl.replace reg_vn d vn_at_entry;
              Ir.Mov (ty, d, src)
          | _ ->
              let v = fresh_vn d in
              Hashtbl.replace expr_tbl key (v, d);
              instr
        in
        match instr with
        | Ir.Ibin (op, d, x, y) -> try_cse (KI (op, vn_of_op x, vn_of_op y)) d Ir.I64
        | Ir.Icmp (op, d, x, y) -> try_cse (KC (op, vn_of_op x, vn_of_op y)) d Ir.I64
        | Ir.Fbin (op, d, x, y) -> try_cse (KF (op, vn_of_reg x, vn_of_reg y)) d Ir.F64
        | Ir.Fcmp (op, d, x, y) -> try_cse (KFC (op, vn_of_reg x, vn_of_reg y)) d Ir.I64
        | Ir.ItoF (d, s) -> try_cse (KCast (true, vn_of_reg s)) d Ir.F64
        | Ir.FtoI (d, s) -> try_cse (KCast (false, vn_of_reg s)) d Ir.I64
        | Ir.Load (ty, d, addr) -> try_cse (KLoad (ty, vn_of_reg addr, !mem_version)) d ty
        | Ir.Store (_, _, _) | Ir.Call _ ->
            incr mem_version;
            (match Ir.def_of instr with Some d -> ignore (fresh_vn d) | None -> ());
            instr
        | Ir.Mov (_, d, s) ->
            Hashtbl.replace reg_vn d (vn_of_reg s);
            instr
        | _ ->
            (match Ir.def_of instr with Some d -> ignore (fresh_vn d) | None -> ());
            instr)
      b.instrs;
  !changed

(* ------------------------------------------------------------------ *)
(* Global (dominator-scoped) CSE over single-def pure expressions      *)

type gkey = GI of Ir.binop * g_op * g_op | GC of Ir.cmpop * g_op * g_op | GCast of bool * int
and g_op = GReg of int | GImm of int

let global_cse_func (f : Ir.func) =
  let a = Analysis.compute f in
  let dom = Dom.compute f in
  let kids = Dom.children dom in
  let changed = ref false in
  (* expression table with scoped undo log *)
  let tbl : (gkey, Ir.vreg) Hashtbl.t = Hashtbl.create 64 in
  let g_op = function
    | Ir.Imm i -> Some (GImm i)
    | Ir.Reg r -> if Analysis.single_def a r then Some (GReg r) else None
  in
  let key_of = function
    | Ir.Ibin (op, d, x, y) -> (
        match (g_op x, g_op y) with
        | Some gx, Some gy when Analysis.single_def a d -> Some (GI (op, gx, gy), d, Ir.I64)
        | _ -> None)
    | Ir.Icmp (op, d, x, y) -> (
        match (g_op x, g_op y) with
        | Some gx, Some gy when Analysis.single_def a d -> Some (GC (op, gx, gy), d, Ir.I64)
        | _ -> None)
    | Ir.ItoF (d, s) when Analysis.single_def a d && Analysis.single_def a s ->
        Some (GCast (true, s), d, Ir.F64)
    | Ir.FtoI (d, s) when Analysis.single_def a d && Analysis.single_def a s ->
        Some (GCast (false, s), d, Ir.I64)
    | _ -> None
  in
  let rec walk l =
    let b = f.blocks.(l) in
    let added = ref [] in
    b.instrs <-
      List.map
        (fun instr ->
          match key_of instr with
          | Some (key, d, ty) -> (
              match Hashtbl.find_opt tbl key with
              | Some src when src <> d ->
                  changed := true;
                  Ir.Mov (ty, d, src)
              | Some _ -> instr
              | None ->
                  Hashtbl.replace tbl key d;
                  added := key :: !added;
                  instr)
          | None -> instr)
        b.instrs;
    List.iter walk kids.(l);
    List.iter (Hashtbl.remove tbl) !added
  in
  walk Ir.entry_label;
  !changed

(* ------------------------------------------------------------------ *)

let run_func f =
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && !rounds < 4 do
    incr rounds;
    let c1 = propagate_func f in
    let c2 = Array.fold_left (fun acc b -> local_vn_block f b || acc) false f.Ir.blocks in
    let c3 = global_cse_func f in
    ignore (Dce.run_func f);
    Ir.remove_unreachable f;
    continue_ := c1 || c2 || c3
  done

let run (p : Ir.program) =
  List.iter (fun (_, f) -> run_func f) p.funcs;
  p
