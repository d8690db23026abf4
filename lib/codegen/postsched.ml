open Emc_isa
open Isa

(** Post-register-allocation scheduling: the second half of gcc's
    -fschedule-insns2 ("perform before and after register allocation").

    Operates on straight-line runs of 3–299 machine instructions between
    branch targets and control transfers, through the list scheduler the
    pre-RA half uses ({!Emc_opt.Sched.list_schedule}): dependences over
    physical registers, the ISA's latencies, and the machine's
    functional-unit counts as per-class caps. A store follows every earlier
    memory op with no delay. Unlike the pre-RA pass this sees spill code and
    the prologue/epilogue moves, recovering some of the parallelism the
    allocator serialized. *)

let is_barrier op =
  match op with
  | BEQZ | BNEZ | J | CALL | RET | HALT | OUT -> true
  | _ -> false

let mem_of op =
  if is_store op then Emc_opt.Sched.Store
  else if is_mem op then Emc_opt.Sched.Load
  else Emc_opt.Sched.Not_mem

let schedule_run (machine : machine) caps (insts : inst array) lo hi =
  let n = hi - lo in
  if n > 2 && n < 300 then begin
    let sub = Array.sub insts lo n in
    let order =
      Emc_opt.Sched.list_schedule ~width:machine.issue_width ~caps
        ~unit_of:(fun i -> fu_index (fu_of sub.(i).op))
        ~latency:(fun i -> latency_of sub.(i).op)
        ~reads:(fun i -> List.filter (fun r -> r >= 0) [ sub.(i).rs1; sub.(i).rs2 ])
        ~writes:(fun i -> if sub.(i).rd >= 0 then [ sub.(i).rd ] else [])
        ~mem:(fun i -> mem_of sub.(i).op)
        ~store_after:0 n
    in
    Array.iteri (fun k i -> insts.(lo + k) <- sub.(i)) order
  end

(** Schedule every straight-line run of [prog]'s instruction array in place
    and return it. Run boundaries are control transfers and branch targets
    (joins), so no instruction moves across a label or a branch. *)
let run (machine : machine) (prog : Isa.program) : Isa.program =
  let caps = Array.make n_fu_classes 0 in
  List.iter
    (fun c -> caps.(fu_index c) <- fu_count machine c)
    [ IntAlu; IntMul; FpAlu; FpMul; LdSt; Branch; NoFu ];
  let n = Array.length prog.insts in
  let is_target = Array.make (n + 1) false in
  Array.iter
    (fun (i : inst) ->
      match i.op with
      | BEQZ | BNEZ | J | CALL -> if i.imm >= 0 && i.imm < n then is_target.(i.imm) <- true
      | _ -> ())
    prog.insts;
  (* function entries are targets too *)
  List.iter (fun (_, pc) -> if pc < n then is_target.(pc) <- true) prog.func_starts;
  let lo = ref 0 in
  let flush hi = schedule_run machine caps prog.insts !lo hi in
  for i = 0 to n - 1 do
    (* a branch target starts a fresh run; a control transfer (or other
       order-sensitive instruction) ends one and stays in place *)
    if is_target.(i) && i > !lo then begin
      flush i;
      lo := i
    end;
    if is_barrier prog.insts.(i).op then begin
      flush i;
      lo := i + 1
    end
  done;
  flush n;
  prog
