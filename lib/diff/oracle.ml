(** Execution outcomes, canonicalized for cross-level comparison.

    One {!outcome} record describes a complete run of a program at any
    level — IR interpreter, functional (architectural) simulator, or the
    out-of-order timing model's commit stream. The timing model's counters
    are compared separately, between its per-cycle and idle-skipping run
    loops ({!run_ooo}, {!ooo_timing}). Everything is rendered to
    strings up front so outcomes are marshal-safe (they cross the
    {!Emc_par} fork boundary) and so divergence reports are directly
    printable.

    Equivalence rule: if both runs trapped, the trap {e categories} must
    match (payloads and partial outputs may differ — block-local scheduling
    can legally reorder a trapping division past an [out()] within the same
    basic block); if both ran to completion, outputs and return value must
    match exactly. A trap on one side and a clean exit on the other is
    always a divergence.

    Floats are canonicalized to their exact bit pattern ([%h] plus the
    IEEE-754 bits), so [-0.0] vs [0.0], NaN payloads, and the last ulp all
    count. Both levels execute the same OCaml double arithmetic, so any
    bit difference is a genuine semantic divergence, not rounding noise. *)

open Emc_ir

type outcome = {
  trap : string option;  (** {!Emc_ir.Trap.category} when the run trapped *)
  ret : string option;
  outputs : string list;
}

let fstr f = Printf.sprintf "%h#%016Lx" f (Int64.bits_of_float f)

let ivalue = function Interp.VI v -> string_of_int v | Interp.VF f -> fstr f
let fvalue = function Emc_sim.Func.VI v -> string_of_int v | Emc_sim.Func.VF f -> fstr f

let clean ~ret ~outputs = { trap = None; ret; outputs }
let trapped c ~outputs = { trap = Some (Trap.category c); ret = None; outputs }

let equal a b =
  match (a.trap, b.trap) with
  | Some x, Some y -> x = y
  | None, None -> a.ret = b.ret && a.outputs = b.outputs
  | _ -> false

let render o =
  let outs = String.concat "," o.outputs in
  match o.trap with
  | Some c -> Printf.sprintf "trap:%s outputs=[%s]" c outs
  | None ->
      Printf.sprintf "ret=%s outputs=[%s]"
        (match o.ret with Some r -> r | None -> "-")
        outs

(* Fuel budgets are far above anything the generator can produce (loops are
   small and bounded), so [Out_of_fuel] at one level means a runaway
   program — a real divergence, not a tight budget. *)
let interp_fuel = 50_000_000
let func_fuel = 200_000_000
let ooo_max_cycles = 400_000_000

(** Run [main] under the IR interpreter. *)
let run_interp ?(semantics = Interp.Ieee) (ir : Ir.program) : outcome =
  let st = Interp.create ir in
  try
    let r = Interp.run ~fuel:interp_fuel ~fcmp_semantics:semantics st ~func:"main" ~args:[] in
    clean ~ret:(Option.map ivalue r.ret) ~outputs:(List.map ivalue r.outputs)
  with Trap.Trap c -> trapped c ~outputs:(List.rev_map ivalue st.Interp.outputs)

(** Run generated machine code under the functional simulator. [ret_ty] is
    the IR [main]'s return type, deciding which physical register holds the
    result. *)
let run_func ~ret_ty (prog : Emc_isa.Isa.program) : outcome =
  let f = Emc_sim.Func.create prog in
  let ret () =
    match ret_ty with
    | Some Ir.I64 -> Some (string_of_int (Emc_sim.Func.return_value f))
    | Some Ir.F64 -> Some (fstr (Emc_sim.Func.getf f Emc_isa.Isa.f_ret))
    | None -> None
  in
  try
    ignore (Emc_sim.Func.run ~fuel:func_fuel f);
    clean ~ret:(ret ()) ~outputs:(List.map fvalue (Emc_sim.Func.outputs f))
  with Trap.Trap c -> trapped c ~outputs:(List.map fvalue (Emc_sim.Func.outputs f))

(** Run the same machine code through the detailed out-of-order model one
    {!Emc_sim.Ooo.step_cycle} at a time and read the architectural state it
    drove. A cycle cap turns a deadlocked pipeline (RUU never draining) into
    an [out-of-fuel] outcome instead of a hang, so scheduler bugs surface as
    divergences. A run that ends cleanly also returns its
    {!Emc_sim.Ooo.counters}, the per-cycle reference for {!ooo_timing}. *)
let run_ooo (cfg : Emc_sim.Config.t) ~ret_ty (prog : Emc_isa.Isa.program) :
    outcome * (string * int) list option =
  let o = Emc_sim.Ooo.create cfg prog in
  let f = Emc_sim.Ooo.func o in
  let outputs () = List.map fvalue (Emc_sim.Func.outputs f) in
  try
    let cycles = ref 0 in
    while Emc_sim.Ooo.busy o && !cycles < ooo_max_cycles do
      Emc_sim.Ooo.step_cycle o;
      incr cycles
    done;
    if Emc_sim.Ooo.busy o then (trapped Trap.Out_of_fuel ~outputs:(outputs ()), None)
    else
      let ret =
        match ret_ty with
        | Some Ir.I64 -> Some (string_of_int (Emc_sim.Func.return_value f))
        | Some Ir.F64 -> Some (fstr (Emc_sim.Func.getf f Emc_isa.Isa.f_ret))
        | None -> None
      in
      (clean ~ret ~outputs:(outputs ()), Some (Emc_sim.Ooo.counters o))
  with Trap.Trap c -> (trapped c ~outputs:(outputs ()), None)

(** The counters of the same machine code run by
    {!Emc_sim.Ooo.run_to_completion}, which jumps over cycles in which no
    stage can act. Only called on programs whose per-cycle run ended
    cleanly, so it neither traps nor hangs. *)
let ooo_timing (cfg : Emc_sim.Config.t) (prog : Emc_isa.Isa.program) =
  let o = Emc_sim.Ooo.create cfg prog in
  ignore (Emc_sim.Ooo.run_to_completion o);
  Emc_sim.Ooo.counters o

let render_counters cs = String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) cs)
