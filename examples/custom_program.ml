(** Custom program: using the substrate directly, without the modeling layer.

    The reproduction had to build a complete optimizing compiler (MiniC →
    IR → optimization passes → RISC code) and a cycle-accurate out-of-order
    simulator; both are usable as ordinary libraries. This example compiles
    a user-written MiniC program at two optimization levels, checks that
    optimization preserved its observable outputs against the IR reference
    interpreter, and sweeps the D-cache size to show the measured
    interaction between loop optimizations and the memory hierarchy.

    Run with: [dune exec examples/custom_program.exe] *)

let source =
  {|
int a[4096];
int b[4096];

fn saxpyish(n: int, k: int) -> int {
  let s = 0;
  for (i = 0; i < n; i = i + 1) {
    b[i] = a[i] * k + b[i];
    s = s + b[i];
  }
  return s;
}

fn main() -> int {
  for (i = 0; i < 4096; i = i + 1) {
    a[i] = i % 17;
    b[i] = i % 5;
  }
  let total = 0;
  for (r = 0; r < 24; r = r + 1) {
    total = total + saxpyish(4096, r + 1);
  }
  out(total);
  return total;
}
|}

let () =
  (* frontend: source -> verified IR *)
  let ir = Emc_lang.Minic.compile_exn source in
  (* reference semantics from the IR interpreter *)
  let st = Emc_ir.Interp.create ir in
  let reference = Emc_ir.Interp.run st ~func:"main" ~args:[] in
  let ref_out =
    List.map (function Emc_ir.Interp.VI v -> string_of_int v | VF f -> string_of_float f)
      reference.outputs
  in
  Printf.printf "reference outputs: [%s] (%d IR instructions executed)\n\n"
    (String.concat "; " ref_out) reference.dyn_instrs;
  List.iter
    (fun (name, flags) ->
      (* middle end + backend *)
      let prog = Emc_codegen.Compiler.compile ~issue_width:4 flags ir in
      (* functional check against the interpreter *)
      let f = Emc_sim.Func.create prog in
      let dyn = Emc_sim.Func.run f in
      let outs =
        List.map
          (function Emc_sim.Func.VI v -> string_of_int v | VF x -> string_of_float x)
          (Emc_sim.Func.outputs f)
      in
      assert (outs = ref_out);
      Printf.printf "%s: %d machine instructions, %d executed — outputs match\n" name
        (Array.length prog.Emc_isa.Isa.insts) dyn;
      (* timing: sweep the D-cache size *)
      List.iter
        (fun kb ->
          let march = { Emc_sim.Config.typical with dcache_kb = kb } in
          let r = Emc_sim.Smarts.run_full march prog ~inputs:[] in
          Printf.printf "   dl1=%3dKB: %8.0f cycles (CPI %.2f)\n" kb r.cycles r.cpi)
        [ 8; 32; 128 ];
      Printf.printf "\n")
    [ ("-O0", Emc_opt.Flags.o0); ("-O2", Emc_opt.Flags.o2);
      ("-O2 + prefetch", { Emc_opt.Flags.o2 with prefetch_loop_arrays = true }) ]
