(** Optimization pass tests: each Table-1 pass is checked both for the
    transformation it is supposed to perform (structure of the output IR)
    and for semantic preservation against the reference interpreter; a
    QCheck property then hammers the whole pipeline with random flag
    settings on a corpus of tricky programs. *)

open Emc_ir
open Emc_opt

let o0 = Flags.o0

(* a corpus of small programs covering the constructs the passes touch *)
let corpus =
  [
    ( "arith-cse",
      {|
int a[64];
fn main() -> int {
  let s = 0;
  for (i = 0; i < 32; i = i + 1) {
    a[i] = i * 3 + i * 3;
    s = s + a[i] + a[i];
  }
  return s;
}
|} );
    ( "calls",
      {|
fn sq(x: int) -> int { return x * x; }
fn cube(x: int) -> int { return sq(x) * x; }
fn main() -> int {
  let s = 0;
  for (i = 0; i < 12; i = i + 1) {
    s = s + cube(i) - sq(i);
  }
  out(s);
  return s;
}
|} );
    ( "branches",
      {|
int v[128];
fn main() -> int {
  let odd = 0;
  let even = 0;
  for (i = 0; i < 128; i = i + 1) {
    v[i] = i * 7 % 13;
  }
  for (i = 0; i < 128; i = i + 1) {
    if (v[i] % 2 == 0) { even = even + v[i]; } else { odd = odd + 1; }
  }
  out(even);
  out(odd);
  return even - odd;
}
|} );
    ( "floats",
      {|
float w[64];
fn main() -> int {
  let acc = 0.0;
  for (i = 0; i < 64; i = i + 1) {
    w[i] = float(i) * 0.25;
  }
  for (i = 0; i < 64; i = i + 1) {
    acc = acc + w[i] * w[i] - 1.0;
  }
  out(acc);
  return int(acc);
}
|} );
    ( "early-return-in-loop",
      {|
int d[32];
fn find(x: int) -> int {
  for (i = 0; i < 32; i = i + 1) {
    if (d[i] == x) { return i; }
  }
  return -1;
}
fn main() -> int {
  for (i = 0; i < 32; i = i + 1) { d[i] = i * 5 % 31; }
  out(find(20));
  out(find(999));
  return 0;
}
|} );
    ( "while-loops",
      {|
fn collatz(n: int) -> int {
  let steps = 0;
  while (n != 1 && steps < 200) {
    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
    steps = steps + 1;
  }
  return steps;
}
fn main() -> int {
  let t = 0;
  for (i = 1; i < 30; i = i + 1) {
    t = t + collatz(i);
  }
  return t;
}
|} );
  ]

(* ---------------- per-pass structural tests ---------------- *)

let compile src = Emc_lang.Minic.compile_exn src

let is_mul = function Ir.Ibin (Ir.Mul, _, _, _) -> true | _ -> false
let is_call = function Ir.Call (_, g, _) -> g <> "__out" | _ -> false
let is_prefetch = function Ir.Prefetch _ -> true | _ -> false

let test_gcse_eliminates_duplicates () =
  let src = "fn main() -> int { let a = 3; let b = a * 7 + a * 7; return b; }" in
  let ir = Gcse.run (compile src) in
  (* a*7 computed twice at the source level; at most one Mul must survive
     (constant folding may even remove both) *)
  Alcotest.(check bool) "at most one mul" true (Helpers.count_ir_instrs is_mul ir <= 1);
  Helpers.check_ir_preserve_semantics ~what:"gcse" { o0 with gcse = true } src

let test_gcse_constant_folding () =
  let src = "fn main() -> int { return 2 * 3 + 10 / 2; }" in
  let ir = Gcse.run (compile src) in
  Alcotest.(check int) "all arithmetic folded" 0
    (Helpers.count_ir_instrs (function Ir.Ibin _ -> true | _ -> false) ir)

let test_gcse_folds_constant_branches () =
  let src = "fn main() -> int { if (1 < 2) { return 5; } else { return 7; } }" in
  let ir = Gcse.run (compile src) in
  let f = List.assoc "main" ir.Ir.funcs in
  Alcotest.(check bool) "no conditional branches left" true
    (Array.for_all (fun (b : Ir.block) -> match b.term with Ir.CondBr _ -> false | _ -> true)
       f.Ir.blocks)

let test_gcse_redefinition_hazard () =
  (* a multiply-defined variable must not be CSEd across its redefinition:
     regression test for the local value-numbering validity check *)
  let src =
    {|
int m[4];
fn main() -> int {
  m[0] = 5;
  let x = m[0];
  let y = x + 1;
  x = 100;
  let z = x + 1;
  out(y);
  out(z);
  return y + z;
}
|}
  in
  Helpers.check_ir_preserve_semantics ~what:"gcse redefinition" { o0 with gcse = true } src;
  Alcotest.(check (list string)) "values" [ "6"; "101" ] (Helpers.interp_outputs src)

let test_gcse_load_cse_blocked_by_store () =
  let src =
    {|
int m[4];
fn main() -> int {
  m[2] = 10;
  let a = m[2];
  m[2] = 20;
  let b = m[2];
  out(a);
  out(b);
  return a + b;
}
|}
  in
  Helpers.check_ir_preserve_semantics ~what:"load cse vs store" { o0 with gcse = true } src

let test_dce_removes_dead_code () =
  let src = "fn main() -> int { let dead = 3 * 4 + 5; let dead2 = dead + 1; return 7; }" in
  let ir = Dce.run (compile src) in
  Alcotest.(check int) "dead chain removed" 0
    (Helpers.count_ir_instrs (function Ir.Ibin _ | Ir.Iconst _ -> true | Ir.Mov _ -> true | _ -> false) ir
     - 1 (* the returned constant 7 remains *))

let test_dce_keeps_side_effects () =
  let src = "int g[4]; fn main() -> int { g[0] = 1; out(5); return 0; }" in
  let ir = Dce.run (compile src) in
  Alcotest.(check int) "store kept" 1
    (Helpers.count_ir_instrs (function Ir.Store _ -> true | _ -> false) ir);
  Alcotest.(check int) "out kept" 1
    (Helpers.count_ir_instrs (function Ir.Call (_, "__out", _) -> true | _ -> false) ir)

let loop_body_instr_count (f : Ir.func) =
  let loops = Loops.find f in
  List.fold_left
    (fun acc (l : Loops.t) ->
      acc
      + Loops.IntSet.fold (fun bl a -> a + List.length f.Ir.blocks.(bl).instrs) l.Loops.body 0)
    0 loops

let test_licm_hoists () =
  let src =
    {|
int a[64];
fn main() -> int {
  let n = 13;
  let s = 0;
  for (i = 0; i < 50; i = i + 1) {
    s = s + n * n * n;
  }
  return s;
}
|}
  in
  let before = compile src in
  let f0 = List.assoc "main" before.Ir.funcs in
  let count0 = loop_body_instr_count f0 in
  let after = Licm.run (compile src) in
  let f1 = List.assoc "main" after.Ir.funcs in
  Alcotest.(check bool) "loop body shrank" true (loop_body_instr_count f1 < count0);
  Helpers.check_ir_preserve_semantics ~what:"licm" { o0 with loop_optimize = true } src

let test_licm_does_not_hoist_variable_division () =
  (* d may be zero when the loop does not execute: hoisting would trap *)
  let src =
    {|
fn main() -> int {
  let d = 0;
  let s = 0;
  for (i = 0; i < 0; i = i + 1) {
    s = s + 100 / d;
  }
  return s;
}
|}
  in
  (* must still run without trapping after LICM *)
  Helpers.check_ir_preserve_semantics ~what:"licm div" { o0 with loop_optimize = true } src

let test_strength_reduction_removes_muls () =
  let src =
    {|
fn main() -> int {
  let s = 0;
  for (i = 0; i < 40; i = i + 1) {
    s = s + i * 24;
  }
  return s;
}
|}
  in
  let after = Strength.run (compile src) in
  let f = List.assoc "main" after.Ir.funcs in
  let loops = Loops.find f in
  let muls_in_loop =
    List.fold_left
      (fun acc (l : Loops.t) ->
        acc
        + Loops.IntSet.fold
            (fun bl a -> a + List.length (List.filter is_mul f.Ir.blocks.(bl).instrs))
            l.Loops.body 0)
      0 loops
  in
  Alcotest.(check int) "no multiplies left in loop" 0 muls_in_loop;
  Helpers.check_ir_preserve_semantics ~what:"strength" { o0 with strength_reduce = true } src

let test_strength_reduction_addresses () =
  let src =
    {|
int a[128];
fn main() -> int {
  let s = 0;
  for (i = 0; i < 100; i = i + 1) {
    a[i] = i;
    s = s + a[i];
  }
  out(s);
  return s;
}
|}
  in
  Helpers.check_ir_preserve_semantics ~what:"strength addr" { o0 with strength_reduce = true } src

let unroll_flags u = { o0 with unroll_loops = true; max_unroll_times = u; max_unrolled_insns = 300 }

let test_unroll_grows_code () =
  let src =
    "fn main() -> int { let s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i; } return s; }"
  in
  let before = Ir.instr_count (compile src) in
  let after = Ir.instr_count (Unroll.run ~max_unroll_times:8 ~max_unrolled_insns:300 (compile src)) in
  Alcotest.(check bool) "code grew substantially" true (after > before * 4)

let test_unroll_trip_counts () =
  (* factor 8 against assorted trip counts incl. 0, 1, exact multiples,
     remainders *)
  List.iter
    (fun trip ->
      let src =
        Printf.sprintf
          "fn main() -> int { let s = 0; for (i = 0; i < %d; i = i + 1) { s = s + i * i; } return s; }"
          trip
      in
      Helpers.check_ir_preserve_semantics ~what:(Printf.sprintf "unroll trip %d" trip)
        (unroll_flags 8) src;
      Helpers.check_flags_preserve_semantics ~what:(Printf.sprintf "unroll trip %d mc" trip)
        (unroll_flags 8) src)
    [ 0; 1; 7; 8; 16; 17; 100 ];
  (* non-unit steps and <= bounds *)
  List.iter
    (fun (step, cmp, bound) ->
      let src =
        Printf.sprintf
          "fn main() -> int { let s = 0; for (i = 0; i %s %d; i = i + %d) { s = s + i; } return s; }"
          cmp bound step
      in
      Helpers.check_ir_preserve_semantics
        ~what:(Printf.sprintf "unroll step %d %s %d" step cmp bound)
        (unroll_flags 8) src;
      Helpers.check_flags_preserve_semantics
        ~what:(Printf.sprintf "unroll step %d %s %d mc" step cmp bound)
        (unroll_flags 8) src)
    [ (3, "<", 100); (3, "<=", 99); (7, "<", 50); (2, "<=", 0) ]

let test_unroll_respects_size_limit () =
  let src =
    "fn main() -> int { let s = 0; for (i = 0; i < 100; i = i + 1) { s = s + i; } return s; }"
  in
  let before = Ir.instr_count (compile src) in
  let after = Ir.instr_count (Unroll.run ~max_unroll_times:8 ~max_unrolled_insns:2 (compile src)) in
  Alcotest.(check int) "loop too big: untouched" before after

let test_unroll_early_return () =
  let src =
    {|
int d[64];
fn main() -> int {
  for (i = 0; i < 64; i = i + 1) { d[i] = i * 3 % 17; }
  for (i = 0; i < 64; i = i + 1) {
    if (d[i] == 5) { return i; }
  }
  return -1;
}
|}
  in
  Helpers.check_ir_preserve_semantics ~what:"unroll early return" (unroll_flags 6) src;
  Helpers.check_flags_preserve_semantics ~what:"unroll early return mc" (unroll_flags 6) src

let inline_flags =
  { o0 with inline_functions = true; max_inline_insns_auto = 150; inline_unit_growth = 75;
    inline_call_cost = 20 }

let test_inline_removes_calls () =
  let src =
    {|
fn sq(x: int) -> int { return x * x; }
fn main() -> int {
  let s = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + sq(i); }
  return s;
}
|}
  in
  let after =
    Inline.run ~max_inline_insns_auto:150 ~inline_unit_growth:75 ~inline_call_cost:20 (compile src)
  in
  Alcotest.(check int) "no calls left" 0 (Helpers.count_ir_instrs is_call after);
  Helpers.check_ir_preserve_semantics ~what:"inline" inline_flags src

let test_inline_respects_size_threshold () =
  (* with a tiny max-inline-insns the callee must stay out of line *)
  let src =
    {|
fn big(x: int) -> int {
  let a = x + 1; let b = a * 2; let c = b + 3; let d = c * 4; let e = d + 5;
  let f = e * 6; let g = f + 7; let h = g * 8; let i2 = h + 9; let j = i2 * 10;
  return j;
}
fn main() -> int { return big(3) + big(4); }
|}
  in
  let after = Inline.run ~max_inline_insns_auto:5 ~inline_unit_growth:75 ~inline_call_cost:20 (compile src) in
  Alcotest.(check int) "calls kept" 2 (Helpers.count_ir_instrs is_call after)

let test_inline_skips_recursion () =
  let src =
    {|
fn fact(n: int) -> int { if (n <= 1) { return 1; } return n * fact(n - 1); }
fn main() -> int { return fact(6); }
|}
  in
  let after =
    Inline.run ~max_inline_insns_auto:150 ~inline_unit_growth:75 ~inline_call_cost:20 (compile src)
  in
  Alcotest.(check bool) "recursive call survives" true (Helpers.count_ir_instrs is_call after > 0);
  Helpers.check_ir_preserve_semantics ~what:"inline recursion" inline_flags src

let test_inline_void_and_value_callees () =
  let src =
    {|
int g[8];
fn bump(i: int) { g[i] = g[i] + 1; return; }
fn get(i: int) -> int { return g[i]; }
fn main() -> int {
  bump(2); bump(2); bump(3);
  out(get(2));
  out(get(3));
  return get(2) + get(3);
}
|}
  in
  Helpers.check_ir_preserve_semantics ~what:"inline void" inline_flags src;
  Helpers.check_flags_preserve_semantics ~what:"inline void mc" inline_flags src

let test_prefetch_inserted_for_large_arrays () =
  let src =
    {|
int big[4096];
fn main() -> int {
  let s = 0;
  for (i = 0; i < 4000; i = i + 1) { s = s + big[i]; }
  return s;
}
|}
  in
  let after = Prefetch.run (compile src) in
  Alcotest.(check bool) "prefetch present" true (Helpers.count_ir_instrs is_prefetch after > 0);
  Helpers.check_ir_preserve_semantics ~what:"prefetch"
    { o0 with prefetch_loop_arrays = true } src

let test_prefetch_skips_small_arrays () =
  let src =
    {|
int small[16];
fn main() -> int {
  let s = 0;
  for (i = 0; i < 16; i = i + 1) { s = s + small[i]; }
  return s;
}
|}
  in
  let after = Prefetch.run (compile src) in
  Alcotest.(check int) "no prefetch" 0 (Helpers.count_ir_instrs is_prefetch after)

let test_sched_preserves_semantics () =
  List.iter
    (fun (name, src) ->
      Helpers.check_ir_preserve_semantics ~what:("sched " ^ name)
        { o0 with schedule_insns2 = true } src)
    corpus

let test_sched_respects_memory_order () =
  let src =
    {|
int m[8];
fn main() -> int {
  m[1] = 10;
  let a = m[1];
  m[1] = 20;
  let b = m[1];
  m[1] = a + b;
  out(m[1]);
  return m[1];
}
|}
  in
  Helpers.check_ir_preserve_semantics ~what:"sched memory" { o0 with schedule_insns2 = true } src

(* A width or unit cap below 1 can issue nothing in any cycle, so the
   scheduler refuses it up front instead of looping for ever. *)
let test_sched_rejects_empty_cycles () =
  let schedule ~width ~caps =
    Sched.list_schedule ~width ~caps ~unit_of:(fun _ -> 0) ~latency:(fun _ -> 1)
      ~reads:(fun _ -> []) ~writes:(fun i -> [ i ]) ~mem:(fun _ -> Sched.Not_mem)
      ~store_after:0 3
  in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s was scheduled" what
    | exception Invalid_argument _ -> ()
  in
  refused "width 0" (fun () -> schedule ~width:0 ~caps:[| 1 |]);
  refused "a cap of 0" (fun () -> schedule ~width:2 ~caps:[| 0 |]);
  Alcotest.(check (array int)) "width 1" [| 0; 1; 2 |] (schedule ~width:1 ~caps:[| 1 |])

let test_reorder_keeps_entry_first () =
  List.iter
    (fun (name, src) ->
      let ir = Reorder.run (compile src) in
      List.iter
        (fun (_, (f : Ir.func)) ->
          Alcotest.(check int) (name ^ ": entry first") Ir.entry_label (List.hd f.Ir.layout);
          let sorted = List.sort compare f.Ir.layout in
          Alcotest.(check (list int)) (name ^ ": layout is permutation")
            (List.init (Array.length f.Ir.blocks) Fun.id)
            sorted)
        ir.Ir.funcs;
      Helpers.check_ir_preserve_semantics ~what:("reorder " ^ name)
        { o0 with reorder_blocks = true } src)
    corpus

(* ---------------- whole-pipeline differential testing ---------------- *)

let test_corpus_all_levels () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (lname, flags) ->
          Helpers.check_flags_preserve_semantics ~what:(name ^ " @ " ^ lname) flags src)
        [ ("O0", Flags.o0); ("O1", Flags.o1); ("O2", Flags.o2); ("O3", Flags.o3) ])
    corpus

let prop_random_flags =
  QCheck.Test.make ~name:"pipeline preserves semantics under random flags" ~count:60
    QCheck.(pair (int_range 0 100_000) (int_range 0 (List.length corpus - 1)))
    (fun (seed, pick) ->
      let rng = Emc_util.Rng.create seed in
      let flags = Helpers.random_flags rng in
      let issue_width = if Emc_util.Rng.bool rng then 2 else 4 in
      let name, src = List.nth corpus pick in
      let ref_ret, ref_outs = Helpers.interp src in
      let mret, mouts, _ = Helpers.machine ~flags ~issue_width src in
      ignore name;
      mouts = ref_outs
      && match ref_ret with Some (Emc_ir.Interp.VI v) -> v = mret | _ -> true)

(* passes are idempotent: running a pass a second time must not change the
   program any further (instruction counts reach a fixpoint) *)
let test_pass_idempotence () =
  List.iter
    (fun (name, src) ->
      let check pname pass =
        let once = pass (compile src) in
        let c1 = Ir.instr_count once in
        let twice = pass once in
        Alcotest.(check int) (name ^ ": " ^ pname ^ " idempotent") c1 (Ir.instr_count twice)
      in
      check "gcse" Gcse.run;
      check "dce" Dce.run;
      check "licm" Licm.run;
      check "strength" Strength.run)
    corpus

(* optimization levels are consistent: O2 never produces more dynamic
   instructions than O0 on the corpus (static size may grow, dynamic work
   must not) *)
let test_o2_reduces_dynamic_work () =
  List.iter
    (fun (name, src) ->
      let dyn flags =
        let ir = Emc_lang.Minic.compile_exn src in
        let opt = Pipeline.optimize ~issue_width:4 flags ir in
        let st = Emc_ir.Interp.create opt in
        (Emc_ir.Interp.run st ~func:"main" ~args:[]).Emc_ir.Interp.dyn_instrs
      in
      let d0 = dyn Flags.o0 and d2 = dyn Flags.o2 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: O2 dyn (%d) <= O0 dyn (%d)" name d2 d0)
        true (d2 <= d0))
    corpus

(* empty and degenerate programs survive every pass *)
let test_degenerate_programs () =
  List.iter
    (fun src ->
      List.iter
        (fun flags -> Helpers.check_flags_preserve_semantics ~what:src flags src)
        [ Flags.o0; Flags.o2; Flags.o3;
          { Flags.o3 with unroll_loops = true; prefetch_loop_arrays = true } ])
    [
      "fn main() -> int { return 0; }";
      "fn main() -> int { for (i = 0; i < 0; i = i + 1) { } return 1; }";
      "fn f() { return; } fn main() -> int { f(); return 2; }";
      "fn main() -> int { while (0 != 0) { } return 3; }";
      "int a[1]; fn main() -> int { a[0] = a[0]; return a[0]; }";
    ]

(* deeply nested loops through the whole pipeline *)
let test_nested_loops_all_flags () =
  let src =
    {|
int acc[4];
fn main() -> int {
  let s = 0;
  for (i = 0; i < 6; i = i + 1) {
    for (j = 0; j < 6; j = j + 1) {
      for (k = 0; k < 6; k = k + 1) {
        s = s + i * 36 + j * 6 + k;
      }
    }
  }
  out(s);
  return s;
}
|}
  in
  List.iter
    (fun flags -> Helpers.check_flags_preserve_semantics ~what:"nested loops" flags src)
    [ Flags.o2; Flags.o3; { Flags.o3 with unroll_loops = true; max_unroll_times = 4 } ]

let suite =
  [
    ("pass idempotence", `Quick, test_pass_idempotence);
    ("O2 reduces dynamic work", `Quick, test_o2_reduces_dynamic_work);
    ("degenerate programs", `Quick, test_degenerate_programs);
    ("nested loops all flags", `Quick, test_nested_loops_all_flags);
    ("gcse eliminates duplicates", `Quick, test_gcse_eliminates_duplicates);
    ("gcse constant folding", `Quick, test_gcse_constant_folding);
    ("gcse folds constant branches", `Quick, test_gcse_folds_constant_branches);
    ("gcse redefinition hazard", `Quick, test_gcse_redefinition_hazard);
    ("gcse load cse vs store", `Quick, test_gcse_load_cse_blocked_by_store);
    ("dce removes dead code", `Quick, test_dce_removes_dead_code);
    ("dce keeps side effects", `Quick, test_dce_keeps_side_effects);
    ("licm hoists invariants", `Quick, test_licm_hoists);
    ("licm respects traps", `Quick, test_licm_does_not_hoist_variable_division);
    ("strength reduction removes muls", `Quick, test_strength_reduction_removes_muls);
    ("strength reduction addresses", `Quick, test_strength_reduction_addresses);
    ("unroll grows code", `Quick, test_unroll_grows_code);
    ("unroll trip counts", `Quick, test_unroll_trip_counts);
    ("unroll respects size limit", `Quick, test_unroll_respects_size_limit);
    ("unroll early return", `Quick, test_unroll_early_return);
    ("inline removes calls", `Quick, test_inline_removes_calls);
    ("inline size threshold", `Quick, test_inline_respects_size_threshold);
    ("inline skips recursion", `Quick, test_inline_skips_recursion);
    ("inline void/value callees", `Quick, test_inline_void_and_value_callees);
    ("prefetch large arrays", `Quick, test_prefetch_inserted_for_large_arrays);
    ("prefetch skips small arrays", `Quick, test_prefetch_skips_small_arrays);
    ("sched preserves semantics", `Quick, test_sched_preserves_semantics);
    ("sched memory order", `Quick, test_sched_respects_memory_order);
    ("sched refuses a width below 1", `Quick, test_sched_rejects_empty_cycles);
    ("reorder layout valid", `Quick, test_reorder_keeps_entry_first);
    ("corpus at all -O levels", `Quick, test_corpus_all_levels);
    QCheck_alcotest.to_alcotest prop_random_flags;
  ]
