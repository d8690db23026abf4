(** Workload tests: golden output checksums (pinned — any compiler,
    interpreter or input-generation change that alters observable behaviour
    fails here), train/ref input distinctness, and machine-vs-interpreter
    differential checks at the optimization levels the experiments use. *)

open Emc_workloads

type variant_t = Train | Ref

let to_variant = function Train -> Workload.Train | Ref -> Workload.Ref

(* golden outputs at workload scale 0.1, from the reference interpreter *)
let goldens =
  [
    ("164.gzip", Train, [ "330"; "140"; "610"; "53907" ]);
    ("164.gzip", Ref, [ "559"; "311"; "1181"; "116937" ]);
    ("175.vpr", Train, [ "138" ]);
    ("175.vpr", Ref, [ "211" ]);
    ("177.mesa", Train, [ "2754"; "0x1.5025c4b23ce4ap+9" ]);
    ("177.mesa", Ref, [ "5556"; "0x1.60e4a1e18f0a5p+10" ]);
    ("179.art", Train, [ "53"; "3"; "0x1.f28a8f665ea2ap-2" ]);
    ("179.art", Ref, [ "88"; "4"; "0x1.a5589ddcf2c7ap-2" ]);
    ("181.mcf", Train, [ "3459"; "34313" ]);
    ("181.mcf", Ref, [ "3819"; "91760" ]);
    ("255.vortex", Train, [ "303"; "39"; "241"; "10"; "12546" ]);
    ("255.vortex", Ref, [ "564"; "106"; "454"; "27"; "90104" ]);
    ("256.bzip2", Train, [ "31147"; "13769"; "278" ]);
    ("256.bzip2", Ref, [ "57916"; "19161"; "495" ]);
  ]

let test_golden_outputs () =
  List.iter
    (fun (name, variant, expected) ->
      let w = Registry.find name in
      let arrays = w.arrays ~scale:0.1 ~variant:(to_variant variant) in
      let outs = Helpers.interp_outputs ~arrays w.source in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s" name (match variant with Train -> "train" | Ref -> "ref"))
        expected outs)
    goldens

let test_registry () =
  Alcotest.(check int) "seven workloads" 7 (List.length Registry.all);
  Alcotest.(check string) "find by short name" "179.art" (Registry.find "art").Workload.name;
  Alcotest.(check string) "find by full name" "181.mcf" (Registry.find "181.mcf").Workload.name;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Registry.find "nonesuch");
       false
     with Invalid_argument _ -> true)

let test_train_ref_differ () =
  List.iter
    (fun (w : Workload.t) ->
      let t = Helpers.interp_outputs ~arrays:(w.arrays ~scale:0.1 ~variant:Workload.Train) w.source in
      let r = Helpers.interp_outputs ~arrays:(w.arrays ~scale:0.1 ~variant:Workload.Ref) w.source in
      Alcotest.(check bool) (w.name ^ ": train and ref differ") true (t <> r))
    Registry.all

let test_input_generation_deterministic () =
  List.iter
    (fun (w : Workload.t) ->
      let a = w.arrays ~scale:0.2 ~variant:Workload.Train in
      let b = w.arrays ~scale:0.2 ~variant:Workload.Train in
      Alcotest.(check bool) (w.name ^ ": inputs deterministic") true (a = b))
    Registry.all

let test_scale_changes_work () =
  (* scaling down must shrink dynamic instruction counts *)
  List.iter
    (fun (w : Workload.t) ->
      let dyn scale =
        let arrays = w.arrays ~scale ~variant:Workload.Train in
        let ir = Helpers.compile_ir w.source in
        let st = Emc_ir.Interp.create ir in
        Emc_ir.Interp.load st arrays;
        (Emc_ir.Interp.run st ~func:"main" ~args:[]).Emc_ir.Interp.dyn_instrs
      in
      let small = dyn 0.05 and big = dyn 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: scale shrinks work (%d vs %d)" w.name small big)
        true (small < big))
    Registry.all

(* the heavyweight differential net: every workload at O2/O3 machine-level
   must match the interpreter bit for bit *)
let test_differential_o2_o3 () =
  List.iter
    (fun (w : Workload.t) ->
      let arrays = w.arrays ~scale:0.05 ~variant:Workload.Train in
      List.iter
        (fun (ln, flags) ->
          Helpers.check_flags_preserve_semantics ~arrays ~what:(w.name ^ " @ " ^ ln) flags
            w.source)
        [ ("O2", Emc_opt.Flags.o2); ("O3", Emc_opt.Flags.o3) ])
    Registry.all

let prop_differential_random_flags =
  QCheck.Test.make ~name:"workloads correct under random flags (machine vs interp)" ~count:12
    QCheck.(pair (int_range 0 100_000) (int_range 0 6))
    (fun (seed, pick) ->
      let rng = Emc_util.Rng.create seed in
      let flags = Helpers.random_flags rng in
      let issue_width = if Emc_util.Rng.bool rng then 2 else 4 in
      let w = List.nth Registry.all pick in
      let arrays = w.Workload.arrays ~scale:0.04 ~variant:Workload.Train in
      let _, ref_outs = Helpers.interp ~arrays w.Workload.source in
      let _, mouts, _ = Helpers.machine ~arrays ~flags ~issue_width w.Workload.source in
      mouts = ref_outs)

let suite =
  [
    ("golden outputs", `Quick, test_golden_outputs);
    ("registry", `Quick, test_registry);
    ("train/ref inputs differ", `Quick, test_train_ref_differ);
    ("input generation deterministic", `Quick, test_input_generation_deterministic);
    ("scale shrinks work", `Quick, test_scale_changes_work);
    ("differential O2/O3", `Slow, test_differential_o2_o3);
    QCheck_alcotest.to_alcotest prop_differential_random_flags;
  ]
