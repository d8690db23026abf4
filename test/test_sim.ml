(** Simulator tests: caches, branch predictors, the memory hierarchy, the
    functional core on hand-assembled programs, and timing-model sanity
    (dependence stalls, issue-width limits, memory-latency and predictor
    effects, SMARTS vs full detail). *)

open Emc_sim
open Emc_isa

let ci = Alcotest.(check int)
let cb = Alcotest.(check bool)

(* ---------------- cache ---------------- *)

module Cache = Memsys.Cache

let test_cache_basic () =
  let c = Cache.create ~size_bytes:1024 ~assoc:2 in
  cb "cold miss" false (Cache.access c 0);
  cb "hit after fill" true (Cache.access c 0);
  cb "same line hit" true (Cache.access c 32);
  cb "different line miss" false (Cache.access c 64)

let test_cache_lru () =
  (* 2-way, 2 sets of 64B lines: lines mapping to set 0 are multiples of 128 *)
  let c = Cache.create ~size_bytes:256 ~assoc:2 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 128);
  (* touch 0 so 128 is LRU *)
  ignore (Cache.access c 0);
  (* new line in set 0 evicts 128 *)
  ignore (Cache.access c 256);
  cb "0 still resident" true (Cache.access c 0);
  cb "128 evicted" false (Cache.access c 128)

let test_cache_direct_mapped_conflict () =
  let c = Cache.create ~size_bytes:256 ~assoc:1 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  cb "conflict evicted" false (Cache.access c 0)

let test_cache_assoc_avoids_conflict () =
  let c = Cache.create ~size_bytes:256 ~assoc:2 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 256);
  cb "2-way keeps both" true (Cache.access c 0);
  cb "2-way keeps both (2)" true (Cache.access c 256)

let test_cache_stats () =
  let c = Cache.create ~size_bytes:1024 ~assoc:1 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  ignore (Cache.access c 4096);
  Alcotest.(check (float 1e-9)) "miss rate" 0.5 (Cache.miss_rate c)

let test_cache_probe_no_fill () =
  let c = Cache.create ~size_bytes:1024 ~assoc:1 in
  cb "probe miss" false (Cache.probe c 0);
  cb "probe did not fill" false (Cache.probe c 0);
  ignore (Cache.access c 0);
  cb "probe hit" true (Cache.probe c 0)

(* ---------------- branch predictor ---------------- *)

let test_bpred_learns_bias () =
  let p = Bpred.create ~size:512 in
  (* an always-taken branch is learned after two updates *)
  ignore (Bpred.update p 100 true);
  ignore (Bpred.update p 100 true);
  cb "predicts taken" true (Bpred.predict p 100);
  for _ = 1 to 100 do
    ignore (Bpred.update p 100 true)
  done;
  cb "still predicts taken" true (Bpred.predict p 100)

let test_bpred_gshare_learns_alternation () =
  let p = Bpred.create ~size:4096 in
  (* strictly alternating T/N/T/N: bimodal fails, the 2-level component keyed
     on history learns it; accuracy over the last updates must be high *)
  let taken = ref false in
  for _ = 1 to 500 do
    taken := not !taken;
    ignore (Bpred.update p 777 !taken)
  done;
  let correct = ref 0 in
  for _ = 1 to 200 do
    taken := not !taken;
    if Bpred.update p 777 !taken then incr correct
  done;
  cb (Printf.sprintf "alternation learned (%d/200)" !correct) true (!correct > 180)

let test_bpred_mispredict_rate_tracked () =
  let p = Bpred.create ~size:512 in
  for i = 1 to 100 do
    ignore (Bpred.update p 5 (i mod 7 = 0))
  done;
  cb "rate in (0,1)" true (Bpred.mispredict_rate p > 0.0 && Bpred.mispredict_rate p < 1.0)

let test_bpred_size_must_be_pow2 () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Bpred.create: size must be a positive power of two") (fun () ->
      ignore (Bpred.create ~size:1000))

(* ---------------- memory hierarchy ---------------- *)

let test_memsys_latencies () =
  let m = Memsys.create Config.typical in
  (* cold access goes to memory *)
  let lat = Memsys.access_d m 0x2000 in
  ci "cold = l1 + l2 + mem" (Config.typical.dcache_lat + Config.typical.l2_lat + Config.typical.mem_lat) lat;
  (* second access hits L1 *)
  ci "hit = l1" Config.typical.dcache_lat (Memsys.access_d m 0x2000);
  (* evicting L1 but not L2 gives an L2 hit — touch far addresses to evict *)
  for i = 1 to 4096 do
    ignore (Memsys.access_d m (0x2000 + (i * 64)))
  done;
  let l2hit = Memsys.access_d m 0x2000 in
  cb "l2 hit cheaper than memory" true
    (l2hit <= Config.typical.dcache_lat + Config.typical.l2_lat)

let test_memsys_prefetch_warms () =
  let m = Memsys.create Config.typical in
  Memsys.prefetch_d m 0x4000;
  ci "post-prefetch hit" Config.typical.dcache_lat (Memsys.access_d m 0x4000)

(* ---------------- functional core on hand-written machine code -------- *)

let dummy_layout = Emc_ir.Memlayout.compute { Emc_ir.Ir.funcs = []; globals = [] }

let mk_prog insts =
  { Isa.insts = Array.of_list insts; entry = 0; layout = dummy_layout; func_starts = [] }

let run_prog insts =
  let f = Func.create (mk_prog insts) in
  ignore (Func.run f);
  f

let test_func_arithmetic () =
  let f =
    run_prog
      [
        Isa.make LDI ~rd:1 ~imm:20;
        Isa.make LDI ~rd:2 ~imm:6;
        Isa.make ADD ~rd:3 ~rs1:1 ~rs2:2;
        Isa.make SUB ~rd:4 ~rs1:1 ~rs2:2;
        Isa.make MUL ~rd:5 ~rs1:1 ~rs2:2;
        Isa.make DIV ~rd:6 ~rs1:1 ~rs2:2;
        Isa.make REM ~rd:7 ~rs1:1 ~rs2:2;
        Isa.make OUT ~rs1:3; Isa.make OUT ~rs1:4; Isa.make OUT ~rs1:5;
        Isa.make OUT ~rs1:6; Isa.make OUT ~rs1:7;
        Isa.make HALT;
      ]
  in
  Alcotest.(check (list string)) "results" [ "26"; "14"; "120"; "3"; "2" ]
    (List.map Helpers.fvalue_str (Func.outputs f))

let test_func_memory () =
  let f =
    run_prog
      [
        Isa.make LDI ~rd:1 ~imm:0x1000;
        Isa.make LDI ~rd:2 ~imm:77;
        Isa.make ST ~rs1:1 ~rs2:2 ~imm:8;
        Isa.make LD ~rd:3 ~rs1:1 ~imm:8;
        Isa.make OUT ~rs1:3;
        Isa.make HALT;
      ]
  in
  Alcotest.(check (list string)) "store/load roundtrip" [ "77" ] (List.map Helpers.fvalue_str (Func.outputs f))

let test_func_branches () =
  let f =
    run_prog
      [
        Isa.make LDI ~rd:1 ~imm:0;
        Isa.make BEQZ ~rs1:1 ~imm:3; (* taken *)
        Isa.make LDI ~rd:2 ~imm:111; (* skipped *)
        Isa.make BNEZ ~rs1:1 ~imm:5; (* not taken *)
        Isa.make LDI ~rd:2 ~imm:222;
        Isa.make OUT ~rs1:2;
        Isa.make HALT;
      ]
  in
  Alcotest.(check (list string)) "branch semantics" [ "222" ] (List.map Helpers.fvalue_str (Func.outputs f))

let test_func_call_ret () =
  let f =
    run_prog
      [
        Isa.make CALL ~imm:4;
        Isa.make OUT ~rs1:0;
        Isa.make HALT;
        Isa.make NOP;
        (* function at 4: r0 <- 99; ret *)
        Isa.make LDI ~rd:0 ~imm:99;
        Isa.make RET;
      ]
  in
  Alcotest.(check (list string)) "call/ret" [ "99" ] (List.map Helpers.fvalue_str (Func.outputs f))

let test_func_float_bits () =
  let f =
    run_prog
      [
        Isa.make LFI ~rd:33 ~fimm:1.5;
        Isa.make LFI ~rd:34 ~fimm:2.25;
        Isa.make FADD ~rd:35 ~rs1:33 ~rs2:34;
        Isa.make FMUL ~rd:36 ~rs1:33 ~rs2:34;
        Isa.make OUT ~rs1:35;
        Isa.make OUT ~rs1:36;
        Isa.make FTOI ~rd:5 ~rs1:36;
        Isa.make OUT ~rs1:5;
        Isa.make HALT;
      ]
  in
  Alcotest.(check (list string)) "fp ops" [ "0x1.ep+1"; "0x1.bp+1"; "3" ]
    (List.map Helpers.fvalue_str (Func.outputs f))

(* ---------------- timing model ---------------- *)

let cycles_of ?(cfg = Config.typical) insts =
  let ooo = Ooo.create cfg (mk_prog insts) in
  Ooo.run_to_completion ooo

let test_ooo_dependent_chain_slower () =
  (* 40 dependent adds vs 40 independent adds *)
  let dep =
    Isa.make LDI ~rd:1 ~imm:0
    :: List.init 40 (fun _ -> Isa.make ADD ~rd:1 ~rs1:1 ~rs2:1)
    @ [ Isa.make HALT ]
  in
  let indep =
    Isa.make LDI ~rd:1 ~imm:0
    :: List.init 40 (fun i -> Isa.make ADD ~rd:(2 + (i mod 8)) ~rs1:1 ~rs2:1)
    @ [ Isa.make HALT ]
  in
  let cd = cycles_of dep and ci' = cycles_of indep in
  cb (Printf.sprintf "dependent (%d) > independent (%d)" cd ci') true (cd > ci')

let test_ooo_issue_width_effect () =
  let indep =
    Isa.make LDI ~rd:1 ~imm:0
    :: List.init 200 (fun i -> Isa.make ADD ~rd:(2 + (i mod 8)) ~rs1:1 ~rs2:1)
    @ [ Isa.make HALT ]
  in
  let w2 = cycles_of ~cfg:{ Config.typical with issue_width = 2 } indep in
  let w4 = cycles_of ~cfg:{ Config.typical with issue_width = 4 } indep in
  cb (Printf.sprintf "width 4 (%d) faster than width 2 (%d)" w4 w2) true (w4 < w2)

let test_ooo_memory_latency_effect () =
  (* dependent load chain over cold lines: memory latency dominates *)
  let loads =
    Isa.make LDI ~rd:1 ~imm:0x1000
    :: List.init 20 (fun i -> Isa.make LD ~rd:2 ~rs1:1 ~imm:(i * 64))
    @ [ Isa.make HALT ]
  in
  let fast = cycles_of ~cfg:{ Config.typical with mem_lat = 50 } loads in
  let slow = cycles_of ~cfg:{ Config.typical with mem_lat = 150 } loads in
  cb (Printf.sprintf "mem 150 (%d) slower than mem 50 (%d)" slow fast) true
    (slow > fast + 20)

(* a helper: loop [body] [n] times (counter in r20, body must not touch it);
   the first iteration warms the I-cache so later iterations measure steady
   state *)
let looped n body =
  (Isa.make LDI ~rd:20 ~imm:n :: body)
  @ [ Isa.make ADDI ~rd:20 ~rs1:20 ~imm:(-1); Isa.make BNEZ ~rs1:20 ~imm:1; Isa.make HALT ]

let test_ooo_store_forwarding () =
  (* each iteration stores then immediately loads the same (cold) word while
     memory latency is enormous: the load must get its value from the store
     buffer and commit-time store writes must not stall the pipeline *)
  let n = 100 in
  let body =
    [
      Isa.make ADDI ~rd:1 ~rs1:1 ~imm:64; (* fresh line each iteration *)
      Isa.make ST ~rs1:1 ~rs2:20 ~imm:0;
      Isa.make LD ~rd:3 ~rs1:1 ~imm:0;
      Isa.make ADD ~rd:4 ~rs1:3 ~rs2:3;
    ]
  in
  let prog = Isa.make LDI ~rd:1 ~imm:0x1000 :: looped n body in
  (* shift loop body by one instruction: fix branch target *)
  let prog =
    List.mapi
      (fun _ i -> if i.Isa.op = BNEZ then { i with Isa.imm = 2 } else i)
      prog
  in
  let c = cycles_of ~cfg:{ Config.typical with mem_lat = 400 } prog in
  cb (Printf.sprintf "store->load forwards (%d cycles for %d iters)" c n) true
    (c < n * 30)

let test_ooo_ruu_size_effect () =
  (* per iteration: 4 cold-line loads, each followed by 12 independent adds.
     A 16-entry RUU holds barely one load at a time (the misses serialize);
     a 128-entry RUU exposes the memory-level parallelism *)
  let n = 60 in
  let body =
    List.concat
      (List.init 4 (fun j ->
           Isa.make ADDI ~rd:1 ~rs1:1 ~imm:64
           :: Isa.make LD ~rd:(2 + j) ~rs1:1 ~imm:0
           :: List.init 12 (fun k -> Isa.make ADD ~rd:(8 + (k mod 6)) ~rs1:1 ~rs2:1)))
  in
  let prog = Isa.make LDI ~rd:1 ~imm:0x1000 :: looped n body in
  let prog =
    List.map (fun i -> if i.Isa.op = BNEZ then { i with Isa.imm = 2 } else i) prog
  in
  let small = cycles_of ~cfg:{ Config.typical with ruu_size = 16; mem_lat = 150 } prog in
  let large = cycles_of ~cfg:{ Config.typical with ruu_size = 128; mem_lat = 150 } prog in
  cb (Printf.sprintf "ruu 128 (%d) < ruu 16 (%d)" large small) true
    (float_of_int large < 0.8 *. float_of_int small)

(* No instruction ever dispatches into an RUU of no entries, so a
   detailed run on one would never end: the constructor refuses it, and
   one entry is enough to run a program to its end. *)
let test_ooo_rejects_empty_ruu () =
  let prog = [ Isa.make LDI ~rd:1 ~imm:3; Isa.make ADD ~rd:2 ~rs1:1 ~rs2:1; Isa.make HALT ] in
  (match Ooo.create { Config.typical with ruu_size = 0 } (mk_prog prog) with
  | _ -> Alcotest.fail "a machine with an RUU of 0 entries was built"
  | exception Invalid_argument _ -> ());
  cb "an RUU of 1 entry runs to the end" true
    (cycles_of ~cfg:{ Config.typical with ruu_size = 1 } prog > 0)

let test_ooo_store_waits_for_data () =
  (* A store's data register (rs2) is a real source: a store whose data
     comes from a 12-cycle DIV must not issue — and the same-word load
     behind it must not forward — until the DIV completes. Pins the
     dependence semantics behind the collapsed [Ooo.sources] (every opcode's
     sources are (rs1, rs2); stores need no special casing). *)
  let prog data_op =
    [
      Isa.make LDI ~rd:1 ~imm:0x1000;
      Isa.make LDI ~rd:2 ~imm:5;
      data_op; (* r3 <- f(r2), fast or slow *)
      Isa.make ST ~rs1:1 ~rs2:3 ~imm:0;
      Isa.make LD ~rd:4 ~rs1:1 ~imm:0;
      Isa.make OUT ~rs1:4;
      Isa.make HALT;
    ]
  in
  let fast = cycles_of (prog (Isa.make MOV ~rd:3 ~rs1:2)) in
  let slow = cycles_of (prog (Isa.make DIV ~rd:3 ~rs1:2 ~rs2:2)) in
  cb
    (Printf.sprintf "store waits for DIV data (%d > %d + 8)" slow fast)
    true
    (slow > fast + 8)

let test_ooo_flush_keeps_last_fetch_line () =
  (* flush_timing discards timing state but the front end is still on the
     same I-cache line afterwards: resuming must not account a second line
     access. The whole program fits one 64-byte line (16 instructions), so
     exactly one L1I access — the cold miss — may ever be recorded. *)
  let prog =
    Isa.make LDI ~rd:1 ~imm:1
    :: List.init 10 (fun i -> Isa.make ADD ~rd:(2 + (i mod 4)) ~rs1:1 ~rs2:1)
    @ [ Isa.make HALT ]
  in
  let ooo = Ooo.create Config.typical (mk_prog prog) in
  Ooo.run_detailed ooo ~instrs:3;
  Ooo.flush_timing ooo;
  ignore (Ooo.run_to_completion ooo);
  let counters = Ooo.counters ooo in
  ci "single cold L1I miss" 1 (List.assoc "l1i_misses" counters);
  ci "no re-access after flush" 0 (List.assoc "l1i_hits" counters)

let test_ooo_commits_everything () =
  let n = 50 in
  let prog =
    Isa.make LDI ~rd:1 ~imm:1
    :: List.init n (fun i -> Isa.make ADD ~rd:(2 + (i mod 4)) ~rs1:1 ~rs2:1)
    @ [ Isa.make HALT ]
  in
  let ooo = Ooo.create Config.typical (mk_prog prog) in
  ignore (Ooo.run_to_completion ooo);
  (* all instructions except HALT commit through the RUU *)
  ci "committed count" (n + 1) ooo.Ooo.committed

let test_ooo_flush_timing_keeps_arch_state () =
  let prog =
    [
      Isa.make LDI ~rd:1 ~imm:7;
      Isa.make LDI ~rd:2 ~imm:35;
      Isa.make ADD ~rd:3 ~rs1:1 ~rs2:2;
      Isa.make OUT ~rs1:3;
      Isa.make HALT;
    ]
  in
  let ooo = Ooo.create Config.typical (mk_prog prog) in
  Ooo.run_detailed ooo ~instrs:2;
  Ooo.flush_timing ooo;
  ignore (Ooo.run_to_completion ooo);
  Alcotest.(check (list string)) "outputs survive flush" [ "42" ]
    (List.map Helpers.fvalue_str (Func.outputs (Ooo.func ooo)))

(* mispredictable branches cost cycles vs well-predicted ones *)
let test_branch_prediction_effect () =
  let src_predictable =
    {|
int d[1024];
fn main() -> int {
  let s = 0;
  for (i = 0; i < 1000; i = i + 1) {
    if (i < 800) { s = s + 1; } else { s = s + 2; }
  }
  return s;
}
|}
  in
  let src_random =
    {|
int d[1024];
fn main() -> int {
  let s = 0;
  for (i = 0; i < 1000; i = i + 1) {
    if (d[i] == 1) { s = s + 1; } else { s = s + 2; }
  }
  return s;
}
|}
  in
  (* genuinely random branch data, injected from the host *)
  let rng = Emc_util.Rng.create 99 in
  let arrays = [ ("d", Emc_workloads.Workload.DInt (Array.init 1024 (fun _ -> Emc_util.Rng.int rng 2))) ] in
  let cycles ?(arrays = []) src =
    let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o2 ~arrays src in
    let ooo = Ooo.create ~inputs:arrays Config.typical prog in
    let c = Ooo.run_to_completion ooo in
    (c, (Ooo.func ooo).Func.icount, ooo.Ooo.branch_mispredicts)
  in
  let _, _, mp = cycles src_predictable in
  let cr, ir, mr = cycles ~arrays src_random in
  let cpi_r = float_of_int cr /. float_of_int ir in
  ignore cpi_r;
  cb (Printf.sprintf "random branches mispredict more (%d vs %d)" mr mp) true (mr > 4 * mp + 50)

(* Both machines load inputs through one checked blit: an input that
   names no global, has the wrong element type, or overruns its global is
   refused by name instead of spilling into a neighbour or vanishing into
   the memory view the program never reads. *)
let test_loader_contract () =
  let src =
    "int a[4]; int b[4]; float c[4]; fn main() -> int { out(b[0]); out(c[0]); return 0; }"
  in
  let module W = Emc_workloads.Workload in
  let runs arrays =
    [ ("interp", fun () -> Helpers.interp_outputs ~arrays src);
      ("func", fun () -> let _, outs, _ = Helpers.machine ~arrays src in outs) ]
  in
  List.iter
    (fun (name, data) ->
      List.iter
        (fun (machine, run) ->
          match run () with
          | _ -> Alcotest.failf "%s accepted input %s" machine name
          | exception Invalid_argument m ->
              cb (machine ^ " names " ^ name ^ ": " ^ m) true
                (String.starts_with ~prefix:("Memlayout.load: input " ^ name ^ " ") m))
        (runs [ (name, data) ]))
    [ ("a", W.DInt (Array.make 9 9)); ("c", W.DInt [| 1 |]); ("zz", W.DInt [| 1 |]) ];
  List.iter
    (fun (machine, run) ->
      Alcotest.(check (list string)) machine [ "7"; Printf.sprintf "%h" 2.5 ] (run ()))
    (runs [ ("b", W.DInt [| 7 |]); ("c", W.DFloat [| 2.5 |]) ])

(* SMARTS sampling estimates close to full simulation *)
let test_smarts_accuracy () =
  let w = Emc_workloads.Registry.find "gzip" in
  let arrays = w.arrays ~scale:0.3 ~variant:Emc_workloads.Workload.Train in
  let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o2 ~arrays w.source in
  let full = Smarts.run_full Config.typical prog ~inputs:arrays in
  let smp = Smarts.run_sampled Config.typical prog ~inputs:arrays in
  let err = Float.abs (smp.Smarts.cycles -. full.Smarts.cycles) /. full.Smarts.cycles in
  cb (Printf.sprintf "within 10%% (got %.1f%%)" (err *. 100.)) true (err < 0.10);
  cb "sampled used sampling" true (not smp.Smarts.detailed);
  ci "same instruction count" full.Smarts.instrs smp.Smarts.instrs

let test_smarts_interval_one_is_full () =
  let w = Emc_workloads.Registry.find "gzip" in
  let arrays = w.arrays ~scale:0.05 ~variant:Emc_workloads.Workload.Train in
  let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o0 ~arrays w.source in
  let r =
    Smarts.run_sampled
      ~params:{ Smarts.default_params with interval = 1 }
      Config.typical prog ~inputs:arrays
  in
  cb "degenerates to detailed" true r.Smarts.detailed

(* ---------------- idle-cycle skip ---------------- *)

(* [run_detailed] and [run_to_completion] jump over cycles in which no
   stage can act; [step_cycle] alone simulates one cycle at a time and is
   the reference. Whole runs and SMARTS-shaped interleavings of detailed
   windows, flushes and warming must agree on every cycle and counter. *)
let step_detailed o ~instrs =
  let start = o.Ooo.detail_instrs in
  while Ooo.busy o && o.Ooo.detail_instrs - start < instrs do
    Ooo.step_cycle o
  done

let random_march seed =
  let rng = Emc_util.Rng.create seed in
  let pick (s : Emc_core.Params.spec) = s.levels.(Emc_util.Rng.int rng (Array.length s.levels)) in
  Emc_core.Params.to_march
    (Array.append (Emc_core.Params.of_flags Emc_opt.Flags.o2)
       (Array.map pick Emc_core.Params.march_specs))

let test_skip_idle_cycle_exact () =
  let scale = Emc_core.Scale.tiny.Emc_core.Scale.workload_scale in
  let configs =
    Config.named @ [ ("random-1", random_march 1); ("random-2", random_march 2) ]
  in
  let mcf = (Emc_workloads.Registry.find "mcf").name
  and gzip = (Emc_workloads.Registry.find "gzip").name in
  List.iter
    (fun (w : Emc_workloads.Workload.t) ->
      let arrays = w.arrays ~scale ~variant:Emc_workloads.Workload.Train in
      let compile issue_width =
        Emc_codegen.Compiler.compile_source ~issue_width Emc_opt.Flags.o2 w.source
      in
      let progs = List.map (fun width -> (width, lazy (compile width))) [ 2; 4 ] in
      let fresh cfg =
        Ooo.create ~inputs:arrays cfg (Lazy.force (List.assoc cfg.Config.issue_width progs))
      in
      List.iter
        (fun (cname, cfg) ->
          let what = w.name ^ " @ " ^ cname in
          let skip = fresh cfg and step = fresh cfg in
          let cycles = Ooo.run_to_completion skip in
          while Ooo.busy step do
            Ooo.step_cycle step
          done;
          ci (what ^ ": cycles") step.Ooo.cycle cycles;
          Alcotest.(check (list (pair string int))) (what ^ ": counters") (Ooo.counters step)
            (Ooo.counters skip);
          if cname = "typical" && (w.name = mcf || w.name = gzip) then begin
            (* a skip that ends early keeps every cycle exact but skips
               less: pin how many cycles the whole run jumps over *)
            ci (what ^ ": skipped cycles")
              (if w.name = mcf then 484094 else 25680)
              skip.Ooo.skipped_cycles;
            (* warming units with a detailed warm-up + unit window every
               fourth unit, each window followed by a flush *)
            let skip = fresh cfg and step = fresh cfg in
            let unit = ref 0 in
            while Ooo.busy skip do
              if !unit mod 4 = 3 then begin
                List.iter
                  (fun instrs ->
                    Ooo.run_detailed skip ~instrs;
                    step_detailed step ~instrs)
                  [ 1000; 1000 ];
                Ooo.flush_timing skip;
                Ooo.flush_timing step;
                Alcotest.(check (list (pair string int)))
                  (Printf.sprintf "%s: counters after window %d" what (!unit / 4))
                  (Ooo.counters step) (Ooo.counters skip)
              end
              else begin
                Ooo.run_warming skip ~instrs:1000;
                Ooo.run_warming step ~instrs:1000
              end;
              incr unit
            done;
            cb (what ^ ": both interleavings end together") false (Ooo.busy step)
          end)
        configs)
    Emc_workloads.Registry.all

(* The per-instruction paths allocate nothing: a whole detailed mcf run
   (72,195 instructions at tiny scale) allocates a few words, where one
   closure or tuple per instruction would be hundreds of thousands. *)
let test_detailed_allocates_o1_words () =
  let w = Emc_workloads.Registry.find "mcf" in
  let arrays =
    w.arrays ~scale:Emc_core.Scale.tiny.Emc_core.Scale.workload_scale
      ~variant:Emc_workloads.Workload.Train
  in
  let prog = Emc_codegen.Compiler.compile_source ~issue_width:4 Emc_opt.Flags.o2 w.source in
  let o = Ooo.create ~inputs:arrays Config.typical prog in
  let before = Gc.minor_words () in
  ignore (Ooo.run_to_completion o);
  let words = Gc.minor_words () -. before in
  cb
    (Printf.sprintf "%.0f words for %d detailed instructions" words o.Ooo.detail_instrs)
    true (words < 1000.0)

(* ---------------- decoded instructions ---------------- *)

(* Every opcode, in declaration order. The match in [_every_opcode_listed]
   is exhaustive, so a new opcode does not compile until it is listed
   there and here. *)
let all_opcodes =
  Isa.[ LDI; LFI; ADD; SUB; MUL; DIV; REM; AND; OR; XOR; SLL; SRL; SRA; ADDI; SLLI; CEQ; CNE;
        CLT; CLE; CGT; CGE; FADD; FSUB; FMUL; FDIV; FCEQ; FCNE; FCLT; FCLE; FCGT; FCGE; ITOF;
        FTOI; LD; ST; FLD; FST; PREF; BEQZ; BNEZ; J; CALL; RET; MOV; FMOV; OUT; HALT; NOP ]

let _every_opcode_listed : Isa.opcode -> unit = function
  | LDI | LFI | ADD | SUB | MUL | DIV | REM | AND | OR | XOR | SLL | SRL | SRA | ADDI | SLLI
  | CEQ | CNE | CLT | CLE | CGT | CGE | FADD | FSUB | FMUL | FDIV | FCEQ | FCNE | FCLT | FCLE
  | FCGT | FCGE | ITOF | FTOI | LD | ST | FLD | FST | PREF | BEQZ | BNEZ | J | CALL | RET | MOV
  | FMOV | OUT | HALT | NOP ->
      ()

(* Each field of an opcode's decoded entry is what the [Isa] predicate it
   replaces on the per-instruction paths gives. *)
let test_decoded_matches_isa () =
  ci "opcodes listed once" (List.length all_opcodes)
    (List.length (List.sort_uniq compare all_opcodes));
  List.iter
    (fun op ->
      let d = Func.decode_op op and name = Isa.string_of_opcode op in
      let bit b = d land b <> 0 in
      let cls = Isa.fu_index (Isa.fu_of op) in
      ci (name ^ ": issue slot") (if cls > 5 then 5 else cls) (d land Func.slot_mask);
      ci (name ^ ": energy class") cls ((d lsr Func.class_shift) land 7);
      cb (name ^ ": load") (Isa.is_load op) (bit Func.load_bit);
      cb (name ^ ": store") (Isa.is_store op) (bit Func.store_bit);
      cb (name ^ ": prefetch") (op = Isa.PREF) (bit Func.pref_bit);
      cb (name ^ ": branch") (Isa.is_branch op) (bit Func.branch_bit);
      cb (name ^ ": conditional") (Isa.is_cond_branch op) (bit Func.cond_bit);
      cb (name ^ ": halt") (op = Isa.HALT) (bit Func.halt_bit);
      ci (name ^ ": latency") (Isa.latency_of op) (d lsr Func.lat_shift))
    all_opcodes

(* One sampled mcf run records how many cycles the skip jumped over and how
   many detailed instructions the refinements threw away. *)
let test_smarts_skip_and_discard_counters () =
  let w = Emc_workloads.Registry.find "mcf" in
  let arrays =
    w.arrays ~scale:Emc_core.Scale.tiny.Emc_core.Scale.workload_scale
      ~variant:Emc_workloads.Workload.Train
  in
  let prog = Emc_codegen.Compiler.compile_source ~issue_width:4 Emc_opt.Flags.o2 w.source in
  let value name = Option.value ~default:0 (Emc_obs.Metrics.counter_value name) in
  let skipped0 = value "sim.skipped_cycles"
  and discarded0 = value "smarts.discarded_detail_instrs"
  and refinements0 = value "smarts.refinements" in
  let r = Smarts.run_sampled Config.typical prog ~inputs:arrays in
  cb "sampled" false r.Smarts.detailed;
  cb "skipped cycles recorded" true (value "sim.skipped_cycles" > skipped0);
  cb "refined" true (value "smarts.refinements" > refinements0);
  cb "discarded detailed instructions recorded" true
    (value "smarts.discarded_detail_instrs" > discarded0)

(* ---------------- energy model ---------------- *)

let test_energy_breakdown_sums () =
  let w = Emc_workloads.Registry.find "gzip" in
  let arrays = w.arrays ~scale:0.05 ~variant:Emc_workloads.Workload.Train in
  let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o2 ~arrays w.source in
  let ooo = Ooo.create ~inputs:arrays Config.typical prog in
  let cycles = float_of_int (Ooo.run_to_completion ooo) in
  let b = Energy.estimate ooo ~cycles in
  cb "total positive" true (b.Energy.total > 0.0);
  Alcotest.(check (float 1e-6)) "components sum to total" b.Energy.total
    (b.Energy.dynamic_fu +. b.Energy.memory +. b.Energy.predictor +. b.Energy.leakage);
  cb "every component positive" true
    (b.Energy.dynamic_fu > 0.0 && b.Energy.memory > 0.0 && b.Energy.predictor > 0.0
    && b.Energy.leakage > 0.0)

let test_energy_tracks_memory_traffic () =
  (* mcf with a tiny L2 spends far more memory energy than with a huge one *)
  let w = Emc_workloads.Registry.find "mcf" in
  let arrays = w.arrays ~scale:0.08 ~variant:Emc_workloads.Workload.Train in
  let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o2 ~arrays w.source in
  let energy l2 =
    let ooo = Ooo.create ~inputs:arrays { Config.typical with l2_kb = l2 } prog in
    let cycles = float_of_int (Ooo.run_to_completion ooo) in
    (Energy.estimate ooo ~cycles).Energy.memory
  in
  let small = energy 256 and big = energy 8192 in
  cb (Printf.sprintf "small L2 burns more memory energy (%.0f vs %.0f)" small big) true
    (small > big)

let test_smarts_reports_all_responses () =
  let w = Emc_workloads.Registry.find "vortex" in
  let arrays = w.arrays ~scale:0.05 ~variant:Emc_workloads.Workload.Train in
  let _, _, prog = Helpers.machine ~flags:Emc_opt.Flags.o2 ~arrays w.source in
  let r = Smarts.run_full Config.typical prog ~inputs:arrays in
  cb "energy present" true (r.Smarts.energy > 0.0);
  ci "code size is the program size" (Array.length prog.Emc_isa.Isa.insts) r.Smarts.static_instrs

(* ---------------- one memory, reset for every run ---------------- *)

let layout_of globals =
  Emc_ir.Memlayout.compute
    { Emc_ir.Ir.funcs = [];
      globals = List.map (fun (gname, gty) -> { Emc_ir.Ir.gname; gty; gsize = 1 }) globals }

(* g <- g + 1; out(g); then count 10 - g down to 0, so a stale [g] shows
   in the outputs, the instruction count and the cycles. With [~fp], also
   h <- h + 1.0; out(h) through an F64 global. *)
let counter_prog ~fp =
  let layout = layout_of (("g", Emc_ir.Ir.I64) :: (if fp then [ ("h", Emc_ir.Ir.F64) ] else [])) in
  let base = Emc_ir.Memlayout.base layout in
  let float_part =
    if not fp then []
    else
      [ Isa.make LDI ~rd:4 ~imm:(base "h"); Isa.make FLD ~rd:33 ~rs1:4;
        Isa.make LFI ~rd:34 ~fimm:1.0; Isa.make FADD ~rd:33 ~rs1:33 ~rs2:34;
        Isa.make FST ~rs1:4 ~rs2:33; Isa.make OUT ~rs1:33 ]
  in
  let head =
    [ Isa.make LDI ~rd:1 ~imm:(base "g"); Isa.make LD ~rd:2 ~rs1:1;
      Isa.make ADDI ~rd:2 ~rs1:2 ~imm:1; Isa.make ST ~rs1:1 ~rs2:2; Isa.make OUT ~rs1:2 ]
    @ float_part
    @ [ Isa.make LDI ~rd:3 ~imm:10; Isa.make SUB ~rd:3 ~rs1:3 ~rs2:2 ]
  in
  let loop = List.length head in
  let insts =
    head @ [ Isa.make ADDI ~rd:3 ~rs1:3 ~imm:(-1); Isa.make BNEZ ~rs1:3 ~imm:loop; Isa.make HALT ]
  in
  { Isa.insts = Array.of_list insts; entry = 0; layout; func_starts = [] }

let outputs f = List.map Helpers.fvalue_str (Func.outputs f)

let result_bits (r : Smarts.result) =
  Printf.sprintf "%h %d %h %h %d %b %h %d" r.cycles r.instrs r.cpi r.ci_rel r.sampled_units
    r.detailed r.energy r.static_instrs

(* Two runs on one memory each see the fresh memory: the reset clears
   what the previous run stored, in both views. *)
let test_memory_reset_between_runs () =
  List.iter
    (fun fp ->
      let prog = counter_prog ~fp in
      let what = if fp then "int+fp" else "int" in
      let func ?memory () =
        let f = Func.create ?memory prog in
        let n = Func.run f in
        (outputs f, n)
      in
      let ooo ?store () =
        let o = Ooo.create ?store Config.typical prog in
        let cycles = Ooo.run_to_completion o in
        (outputs (Ooo.func o), cycles, Ooo.counters o)
      in
      let fresh = func () and fresh_ooo = ooo () in
      Alcotest.(check (list string)) (what ^ ": fresh outputs")
        ("1" :: (if fp then [ Printf.sprintf "%h" 1.0 ] else []))
        (fst fresh);
      let memory = Func.memory prog in
      let store = { (Ooo.store ()) with Ooo.memory = Some memory } in
      for run = 1 to 2 do
        cb (Printf.sprintf "%s: func run %d on one memory" what run) true (func ~memory () = fresh);
        cb (Printf.sprintf "%s: ooo run %d on one memory" what run) true
          (ooo ~store () = fresh_ooo)
      done)
    [ false; true ]

(* Func.run and Ooo.run_to_completion on a memory the same generated
   program has already dirtied give the fresh outcome and counters. Every
   generated program has int and float globals, so both views are reset. *)
let prop_dirtied_memory_runs_fresh =
  QCheck.Test.make ~name:"a dirtied memory runs like a fresh one" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let src = Emc_lang.Pretty.program (Emc_diff.Gen.program (Emc_util.Rng.create seed)) in
      let prog = Emc_codegen.Compiler.compile Emc_opt.Flags.o2 (Helpers.compile_ir src) in
      let trapping run k =
        match run () with
        | r -> Ok (k r)
        | exception Emc_ir.Trap.Trap c -> Error (Emc_ir.Trap.category c)
      in
      let func ?memory () =
        let f = Func.create ?memory prog in
        trapping (fun () -> Func.run f) (fun n -> (outputs f, Func.return_value f, n))
      in
      let ooo ?store () =
        let o = Ooo.create ?store Config.typical prog in
        trapping
          (fun () -> Ooo.run_to_completion o)
          (fun cycles -> (outputs (Ooo.func o), cycles, Ooo.counters o))
      in
      let fresh = func () and fresh_ooo = ooo () in
      let memory = Func.memory prog in
      let store = { (Ooo.store ()) with Ooo.memory = Some memory } in
      ignore (func ~memory ());
      func ~memory () = fresh && ooo ~store () = fresh_ooo)

let test_memory_wrong_size () =
  let int_prog = counter_prog ~fp:false in
  (* same layout, so same size, but it needs the FP view *)
  let fld_prog =
    { int_prog with Isa.insts = [| Isa.make FLD ~rd:33 ~rs1:0 ~imm:0x1000; Isa.make HALT |] }
  in
  let refused what run =
    match run () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument m ->
        cb (what ^ ": " ^ m) true (String.starts_with ~prefix:"Func.create: " m)
  in
  refused "another size" (fun () ->
      Func.create ~memory:(Func.memory (mk_prog [ Isa.make HALT ])) int_prog);
  refused "no FP view for an FP program" (fun () ->
      Func.create ~memory:(Func.memory int_prog) fld_prog);
  (* a machine store replaces a memory that does not fit *)
  let allocations () =
    Option.value ~default:0 (Emc_obs.Metrics.counter_value "sim.memory_allocations")
  in
  let store = { (Ooo.store ()) with Ooo.memory = Some (Func.memory int_prog) } in
  let before = allocations () in
  ignore (Smarts.run_sampled ~store Config.typical fld_prog ~inputs:[]);
  ci "a store allocates a memory that fits" 1 (allocations () - before);
  cb "and keeps it" true (Func.fits (Option.get store.Ooo.memory) fld_prog);
  cb "an FP memory fits an int program" true (Func.fits (Func.memory fld_prog) int_prog)

(* A program with no FLD, no FST and no F64 global gets an empty FP view;
   each of the three forces a full one. *)
let test_fp_view_rule () =
  let words (p : Isa.program) = Emc_ir.Memlayout.mem_words p.Isa.layout in
  let fp_len p = Array.length (Func.create p).Func.fmem in
  let int_prog = counter_prog ~fp:false in
  ci "int-only program: empty FP view" 0 (fp_len int_prog);
  ci "int-only memory: empty FP view" 0 (Array.length (Func.memory int_prog).Func.floats);
  ci "int view still full" (words int_prog) (Array.length (Func.create int_prog).Func.imem);
  let with_layout layout insts = { (mk_prog insts) with Isa.layout } in
  List.iter
    (fun (what, p) ->
      ci (what ^ " forces the FP view") (words p) (fp_len p);
      ci (what ^ ": memory") (words p) (Array.length (Func.memory p).Func.floats))
    [ ("FLD", mk_prog [ Isa.make FLD ~rd:33 ~rs1:0 ~imm:0x1000; Isa.make HALT ]);
      ("FST", mk_prog [ Isa.make FST ~rs1:0 ~rs2:33 ~imm:0x1000; Isa.make HALT ]);
      ("F64 global", with_layout (layout_of [ ("h", Emc_ir.Ir.F64) ]) [ Isa.make HALT ]) ]

(* A program too short for the sampling grid falls back to a fully
   detailed run inside its attempt; on a shared memory that the attempt
   (and a run before it) dirtied, the result keeps every bit. *)
let test_fallback_on_shared_memory () =
  let prog = counter_prog ~fp:true in
  let fallbacks () = Option.value ~default:0 (Emc_obs.Metrics.counter_value "smarts.fallback_to_full") in
  let before = fallbacks () in
  let fresh = Smarts.run_sampled Config.typical prog ~inputs:[] in
  let memory = Func.memory prog in
  ignore (Func.run (Func.create ~memory prog));
  let store = { (Ooo.store ()) with Ooo.memory = Some memory } in
  let shared = Smarts.run_sampled ~store Config.typical prog ~inputs:[] in
  ci "both runs fell back to full detail" 2 (fallbacks () - before);
  cb "detailed" true shared.Smarts.detailed;
  Alcotest.(check string) "same result bits" (result_bits fresh) (result_bits shared)

(* ---------------- one store, restored between runs ---------------- *)

module Rng = Emc_util.Rng

let counter name = Option.value ~default:0 (Emc_obs.Metrics.counter_value name)

(* A loop adds 1 to every element of the 4096-word input [a] (eight
   pages); then the program bumps a plain global ([plain], default [g]),
   a stack slot, the F64 input [h] and the plain F64 global [k] by one
   each, outputs them, and counts 50 times their sum down to zero. A word a restore leaves
   stale (an input not copied back, a store left unmarked) shows in the
   outputs and the instruction count, and a stale cache in the cycles. *)
let store_prog ?(plain = "g") () =
  let layout =
    Emc_ir.Memlayout.compute
      { Emc_ir.Ir.funcs = [];
        globals =
          List.map
            (fun (gname, gty, gsize) -> { Emc_ir.Ir.gname; gty; gsize })
            [ ("a", Emc_ir.Ir.I64, 4096); (plain, Emc_ir.Ir.I64, 1); ("h", Emc_ir.Ir.F64, 1);
              ("k", Emc_ir.Ir.F64, 1) ] }
  in
  let base = Emc_ir.Memlayout.base layout in
  let bump_float g =
    [ Isa.make LDI ~rd:4 ~imm:(base g); Isa.make FLD ~rd:33 ~rs1:4; Isa.make LFI ~rd:34 ~fimm:1.0;
      Isa.make FADD ~rd:33 ~rs1:33 ~rs2:34; Isa.make FST ~rs1:4 ~rs2:33; Isa.make OUT ~rs1:33;
      Isa.make FTOI ~rd:2 ~rs1:33; Isa.make ADD ~rd:10 ~rs1:10 ~rs2:2 ]
  in
  let head =
    [ Isa.make LDI ~rd:1 ~imm:(base "a"); Isa.make LDI ~rd:5 ~imm:0; Isa.make LDI ~rd:6 ~imm:4096 ]
  in
  let loop = List.length head in
  let body =
    [ Isa.make SLLI ~rd:7 ~rs1:5 ~imm:3; Isa.make ADD ~rd:8 ~rs1:1 ~rs2:7;
      Isa.make LD ~rd:2 ~rs1:8; Isa.make ADDI ~rd:2 ~rs1:2 ~imm:1; Isa.make ST ~rs1:8 ~rs2:2;
      Isa.make ADDI ~rd:5 ~rs1:5 ~imm:1; Isa.make CLT ~rd:9 ~rs1:5 ~rs2:6;
      Isa.make BNEZ ~rs1:9 ~imm:loop;
      (* a[1], then g and the slot below the stack top *)
      Isa.make LD ~rd:10 ~rs1:1 ~imm:8; Isa.make OUT ~rs1:10;
      Isa.make LDI ~rd:3 ~imm:(base plain); Isa.make LD ~rd:2 ~rs1:3;
      Isa.make ADDI ~rd:2 ~rs1:2 ~imm:1; Isa.make ST ~rs1:3 ~rs2:2; Isa.make OUT ~rs1:2;
      Isa.make ADD ~rd:10 ~rs1:10 ~rs2:2;
      Isa.make LD ~rd:2 ~rs1:Isa.r_sp ~imm:(-8); Isa.make ADDI ~rd:2 ~rs1:2 ~imm:1;
      Isa.make ST ~rs1:Isa.r_sp ~rs2:2 ~imm:(-8); Isa.make OUT ~rs1:2;
      Isa.make ADD ~rd:10 ~rs1:10 ~rs2:2 ]
    @ bump_float "h" @ bump_float "k"
    @ [ Isa.make LDI ~rd:11 ~imm:50; Isa.make MUL ~rd:10 ~rs1:10 ~rs2:11 ]
  in
  let countdown = loop + List.length body in
  let insts =
    head @ body
    @ [ Isa.make ADDI ~rd:10 ~rs1:10 ~imm:(-1); Isa.make BNEZ ~rs1:10 ~imm:countdown;
        Isa.make HALT ]
  in
  let inputs =
    [ ("a", Emc_workloads.Workload.DInt (Array.init 4096 (fun i -> (3 * i) + 1)));
      ("h", Emc_workloads.Workload.DFloat [| 2.5 |]) ]
  in
  ({ Isa.insts = Array.of_list insts; entry = 0; layout; func_starts = [] }, inputs)

(* Sampled runs on one store (a memory and cache arrays), on machines
   whose caches shrink and grow again to the same geometry, each give
   the bits of a run on a fresh machine. *)
let test_store_restores_fresh_bits () =
  let prog, inputs = store_prog () in
  let store = Ooo.store () in
  let restored0 = counter "sim.memory_restored_pages" in
  List.iteri
    (fun i (name, cfg) ->
      let fresh = Smarts.run_sampled cfg prog ~inputs in
      let stored = Smarts.run_sampled ~store cfg prog ~inputs in
      cb (Printf.sprintf "run %d (%s) sampled" i name) false fresh.Smarts.detailed;
      Alcotest.(check string) (Printf.sprintf "run %d (%s) on the store" i name)
        (result_bits fresh) (result_bits stored))
    [ ("typical", Config.typical); ("typical", Config.typical);
      ("constrained", Config.constrained); ("typical", Config.typical);
      ("aggressive", Config.aggressive) ];
  cb "pages were restored" true (counter "sim.memory_restored_pages" > restored0);
  (* the image the last run left, read back: a[1], g, the slot, h and k *)
  let f = Func.create ?memory:store.Ooo.memory ~inputs prog in
  ignore (Func.run f);
  Alcotest.(check (list string)) "outputs of a run on the restored memory"
    [ "5"; "1"; "1"; Printf.sprintf "%h" 3.5; Printf.sprintf "%h" 1.0 ]
    (outputs f)

(* Three (generated program, random Table-2 machine) pairs run one after
   another on one store give the outcome and counters of fresh machines.
   The caches are large, then as small as Table 2 allows, then large
   again, so a reset that covered less than the new geometry would leave
   stale tags behind. Two programs share the generator's layout, so the
   memory is restored across programs as well as across machines. *)
let prop_store_sequences_run_fresh =
  QCheck.Test.make ~name:"runs on one store match fresh runs" ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let gen () =
        let src = Emc_lang.Pretty.program (Emc_diff.Gen.program (Rng.split rng)) in
        Emc_codegen.Compiler.compile Emc_opt.Flags.o2 (Helpers.compile_ir src)
      in
      let progs = [| gen (); gen () |] in
      let inputs =
        [ ("gi", Emc_workloads.Workload.DInt (Array.init 64 (fun _ -> Rng.int rng 200 - 100)));
          ("gf", Emc_workloads.Workload.DFloat (Array.init 64 (fun _ -> Rng.float rng 8.0))) ]
      in
      let big = Rng.choice rng [| 32; 64; 128 |] and big_l2 = Rng.choice rng [| 1024; 4096; 8192 |] in
      let dl1_assoc = Rng.range rng 1 2 and l2_assoc = Rng.choice rng [| 1; 2; 4; 8 |] in
      let machine large =
        let m = random_march (Rng.int rng 1_000_000) in
        if large then
          { m with Config.icache_kb = big; dcache_kb = big; dcache_assoc = dl1_assoc; l2_kb = big_l2;
                   l2_assoc }
        else { m with Config.icache_kb = 8; dcache_kb = 8; l2_kb = 256 }
      in
      let run ?store cfg prog =
        let o = Ooo.create ?store ~inputs cfg prog in
        match Ooo.run_to_completion o with
        | cycles -> Ok (outputs (Ooo.func o), cycles, Ooo.counters o)
        | exception Emc_ir.Trap.Trap c -> Error (Emc_ir.Trap.category c)
      in
      let store = Ooo.store () in
      List.for_all
        (fun large ->
          let prog = Rng.choice rng progs and cfg = machine large in
          run ~store cfg prog = run cfg prog)
        [ true; false; true ])

(* A memory restores pages only when it holds this layout and this very
   input list: another list (even an equal one) or another layout sends
   it down the full path. That path must zero each view whole before it
   loads: the program also bumps a plain global and a stack slot in the
   integer view and a plain global in the FP view, words no input covers,
   so a view left unzeroed shows in the outputs. *)
let test_restore_needs_same_image () =
  let prog, inputs = store_prog () in
  let _, equal_inputs = store_prog () in
  (* the same code over a layout that names its plain global differently *)
  let renamed, _ = store_prog ~plain:"x" () in
  let memory = Func.memory prog in
  let check what p inputs ~full =
    let full0 = counter "sim.memory_full_loads" in
    let f = Func.create ~memory ~inputs p in
    ci (what ^ ": full loads") (if full then 1 else 0) (counter "sim.memory_full_loads" - full0);
    ignore (Func.run f);
    Alcotest.(check (list string)) (what ^ ": outputs")
      [ "5"; "1"; "1"; Printf.sprintf "%h" 3.5; Printf.sprintf "%h" 1.0 ]
      (outputs f)
  in
  check "first run" prog inputs ~full:true;
  check "same image" prog inputs ~full:false;
  check "equal but another input list" prog equal_inputs ~full:true;
  check "another layout" renamed inputs ~full:true;
  check "back to the first layout" prog inputs ~full:true;
  check "same image again" prog inputs ~full:false

(* Loading every page of the address space through [load_range], in any
   order, writes what one [load] writes. *)
let prop_load_range_pages =
  QCheck.Test.make ~name:"load_range over every page equals one load" ~count:50
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let globals =
        List.init (1 + Rng.int rng 6) (fun i ->
            { Emc_ir.Ir.gname = Printf.sprintf "g%d" i;
              gty = (if Rng.bool rng then Emc_ir.Ir.I64 else Emc_ir.Ir.F64);
              gsize = 1 + Rng.int rng 1500 })
      in
      let layout = Emc_ir.Memlayout.compute { Emc_ir.Ir.funcs = []; globals } in
      let inputs =
        List.filter_map
          (fun (g : Emc_ir.Ir.global) ->
            let n = Rng.int rng (g.gsize + 1) in
            if Rng.int rng 4 = 0 then None
            else
              Some
                ( g.gname,
                  match g.gty with
                  | Emc_ir.Ir.F64 ->
                      Emc_workloads.Workload.DFloat (Array.init n (fun _ -> Rng.float rng 100.0))
                  | _ -> Emc_workloads.Workload.DInt (Array.init n (fun _ -> Rng.int rng 1000 - 500)) ))
          globals
      in
      let words = Emc_ir.Memlayout.mem_words layout in
      let imem = Array.make words 0 and fmem = Array.make words 0.0 in
      Emc_ir.Memlayout.load layout ~imem ~fmem inputs;
      let imem' = Array.make words 0 and fmem' = Array.make words 0.0 in
      let pages = Array.init ((words + 511) / 512) Fun.id in
      Rng.shuffle rng pages;
      Array.iter
        (fun p ->
          Emc_ir.Memlayout.load_range layout ~imem:imem' ~fmem:fmem' ~lo:(p * 512)
            ~hi:(min words ((p + 1) * 512)) inputs)
        pages;
      imem = imem' && fmem = fmem')

let suite =
  [
    ("energy breakdown sums", `Quick, test_energy_breakdown_sums);
    ("energy tracks memory traffic", `Quick, test_energy_tracks_memory_traffic);
    ("smarts reports all responses", `Quick, test_smarts_reports_all_responses);
    ("cache basic", `Quick, test_cache_basic);
    ("cache lru", `Quick, test_cache_lru);
    ("cache direct-mapped conflict", `Quick, test_cache_direct_mapped_conflict);
    ("cache associativity", `Quick, test_cache_assoc_avoids_conflict);
    ("cache stats", `Quick, test_cache_stats);
    ("cache probe", `Quick, test_cache_probe_no_fill);
    ("bpred learns bias", `Quick, test_bpred_learns_bias);
    ("bpred learns alternation", `Quick, test_bpred_gshare_learns_alternation);
    ("bpred mispredict rate", `Quick, test_bpred_mispredict_rate_tracked);
    ("bpred size validation", `Quick, test_bpred_size_must_be_pow2);
    ("memsys latencies", `Quick, test_memsys_latencies);
    ("memsys prefetch", `Quick, test_memsys_prefetch_warms);
    ("func arithmetic", `Quick, test_func_arithmetic);
    ("func memory", `Quick, test_func_memory);
    ("func branches", `Quick, test_func_branches);
    ("func call/ret", `Quick, test_func_call_ret);
    ("func floats", `Quick, test_func_float_bits);
    ("loader contract on both machines", `Quick, test_loader_contract);
    ("ooo dependent chain", `Quick, test_ooo_dependent_chain_slower);
    ("ooo issue width", `Quick, test_ooo_issue_width_effect);
    ("ooo memory latency", `Quick, test_ooo_memory_latency_effect);
    ("ooo store forwarding", `Quick, test_ooo_store_forwarding);
    ("ooo ruu size", `Quick, test_ooo_ruu_size_effect);
    ("ooo refuses an RUU of 0 entries", `Quick, test_ooo_rejects_empty_ruu);
    ("ooo store waits for data", `Quick, test_ooo_store_waits_for_data);
    ("ooo flush keeps last fetch line", `Quick, test_ooo_flush_keeps_last_fetch_line);
    ("ooo commits everything", `Quick, test_ooo_commits_everything);
    ("ooo flush keeps arch state", `Quick, test_ooo_flush_timing_keeps_arch_state);
    ("branch prediction effect", `Quick, test_branch_prediction_effect);
    ("smarts accuracy", `Quick, test_smarts_accuracy);
    ("smarts interval=1", `Quick, test_smarts_interval_one_is_full);
    ("idle-cycle skip is cycle-exact", `Quick, test_skip_idle_cycle_exact);
    ("detailed simulation allocates O(1) words", `Quick, test_detailed_allocates_o1_words);
    ("decoded entries match the Isa predicates", `Quick, test_decoded_matches_isa);
    ("smarts counts skipped and discarded work", `Quick, test_smarts_skip_and_discard_counters);
    ("one memory is reset between runs", `Quick, test_memory_reset_between_runs);
    QCheck_alcotest.to_alcotest prop_dirtied_memory_runs_fresh;
    ("a memory of the wrong size is refused", `Quick, test_memory_wrong_size);
    ("FP view only for programs that touch it", `Quick, test_fp_view_rule);
    ("sampled fallback keeps its bits on a shared memory", `Quick, test_fallback_on_shared_memory);
    ("a restored store gives the fresh bits", `Quick, test_store_restores_fresh_bits);
    QCheck_alcotest.to_alcotest prop_store_sequences_run_fresh;
    ("a memory restores only the image it holds", `Quick, test_restore_needs_same_image);
    QCheck_alcotest.to_alcotest prop_load_range_pages;
  ]
