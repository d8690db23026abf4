(** Machine-code pins for the compiler back end.

    Every model is fit to the cycles of the binary a flag setting builds,
    so a refactor of the optimizer, the code generator or either half of
    -fschedule-insns2 must keep every instruction of every binary. This
    test digests the [emc compile --dump-asm] rendering ({!Emc_isa.Isa.pp_inst})
    of {!Emc_codegen.Compiler.compile_source} for all seven workloads at
    -O0, -O2 and -O3 and at 20 seeded random Table-1 settings, each at
    issue widths 2, 4 and 8: 483 binaries. A failure names the workload and
    the setting group whose machine code moved.

    The digests were recorded before both scheduling passes shared one list
    scheduler. When a change is meant to move machine code, regenerate the
    table by printing [digests ()] in the [pins] layout and say so in the
    commit. *)

module Flags = Emc_opt.Flags

let widths = [ 2; 4; 8 ]

let random_settings =
  let rng = Emc_util.Rng.create 2007 in
  List.init 20 (fun _ -> Helpers.random_flags rng)

let groups =
  [ ("O0", [ Flags.o0 ]); ("O2", [ Flags.o2 ]); ("O3", [ Flags.o3 ]);
    ("random", random_settings) ]

let render buf (prog : Emc_isa.Isa.program) =
  Array.iteri
    (fun i inst -> Buffer.add_string buf (Format.asprintf "%5d: %a\n" i Emc_isa.Isa.pp_inst inst))
    prog.Emc_isa.Isa.insts

(* one MD5 per workload and group over the renderings of every setting of
   the group at every width, in that order *)
let digests () =
  List.concat_map
    (fun (w : Emc_workloads.Workload.t) ->
      List.map
        (fun (group, settings) ->
          let buf = Buffer.create 65536 in
          List.iter
            (fun flags ->
              List.iter
                (fun issue_width ->
                  Printf.bprintf buf "-- %s w%d\n" (Flags.to_string flags) issue_width;
                  render buf (Emc_codegen.Compiler.compile_source ~issue_width flags w.source))
                widths)
            settings;
          (w.name, group, Digest.to_hex (Digest.string (Buffer.contents buf))))
        groups)
    Emc_workloads.Registry.all

let pins =
  [
    ("164.gzip", "O0", "c5dd2cfc488fec010c6f9a5164057fef");
    ("164.gzip", "O2", "ba566fa21d8993544662b369d340882d");
    ("164.gzip", "O3", "125cc802b57b49cd336b1d3ae5c20382");
    ("164.gzip", "random", "e330bb2f86b058ef2b170939b9de09c6");
    ("175.vpr", "O0", "cad2609a13180fd1b7f56905aab5b221");
    ("175.vpr", "O2", "3ea0046338a5827ebf5a27660afc1371");
    ("175.vpr", "O3", "71e106fefa9ee449df4843f8ccd11c81");
    ("175.vpr", "random", "4409a8a1bb221c2f9d04b7858727c0a7");
    ("177.mesa", "O0", "ceae9b5162f8c15d8d07911150b88941");
    ("177.mesa", "O2", "455d2591ba698c9baba3bb1b144cd038");
    ("177.mesa", "O3", "013b788a6b864a8c67aacb9d6b7aef9d");
    ("177.mesa", "random", "f03039acfa491d0d997ab1dbd24668b1");
    ("179.art", "O0", "51a1952e945004ba2e1d1dff23383997");
    ("179.art", "O2", "b64c64361e228d27195d5b3d5e306ce1");
    ("179.art", "O3", "b2c3d1cf7713ef6cd567c069532ec180");
    ("179.art", "random", "4e9a51cbc47c6ca7cb0d994f3f5949e2");
    ("181.mcf", "O0", "3ffc2f5d785bc6e374c71ad0491de388");
    ("181.mcf", "O2", "53624ee07cdf5ddc9b5a0dc61636f1ce");
    ("181.mcf", "O3", "2e88e8c4c0d65bd36b212e168a014010");
    ("181.mcf", "random", "d1f74e89b932345050f0ec0a7fea18b5");
    ("255.vortex", "O0", "fdd98baab9535f566918417105175c70");
    ("255.vortex", "O2", "2b903a3659e0f38882be1b4011fff096");
    ("255.vortex", "O3", "204eafc620c4963898db087ba68f296e");
    ("255.vortex", "random", "df17c892bc003948749ea4c66637a1bf");
    ("256.bzip2", "O0", "91ace0e50da5dab8c2b02365a3f93cd6");
    ("256.bzip2", "O2", "12e5541c8524ac50e638204e549d3a49");
    ("256.bzip2", "O3", "e7cfababdc2ec9ad1e67cfb1cecb5526");
    ("256.bzip2", "random", "590da68f2c0bbf08fc56aed59d80eac8");
  ]

let test_machine_code_pinned () =
  let got = digests () in
  Alcotest.(check int) "pinned binaries" (List.length pins) (List.length got);
  List.iter2
    (fun (w, g, want) (w', g', have) ->
      Alcotest.(check (pair string string)) "pin order" (w, g) (w', g');
      Alcotest.(check string) (Printf.sprintf "%s %s machine code" w g) want have)
    pins got

let suite = [ ("machine code of 483 binaries pinned", `Quick, test_machine_code_pinned) ]
