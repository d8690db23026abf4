open Emc_ir

(** -fschedule-insns2: the one list scheduler of both halves, and the half
    that runs before register allocation.

    {!list_schedule} builds a dependence DAG over nodes [0 .. n-1] (true,
    anti and output register dependences from each node's reads and
    writes; memory ordering edges) and re-emits the nodes greedily by
    critical-path priority under an issue width and per-class unit caps.
    {!run} applies it to each basic block of IR; the second
    (post-register-allocation) half applies it to machine code in
    {!Emc_codegen.Postsched}.

    Latencies approximate the target ISA: integer multiply 3, divide 12, FP
    add 2, FP multiply 4, FP divide 12, FP compare 2, loads 2 (assumed L1
    hit), everything else 1 — int/float conversions too, where the ISA's
    {!Emc_isa.Isa.latency_of} gives 2. *)

type mem = Not_mem | Load | Store

let list_schedule ~width ~caps ~unit_of ~latency ~reads ~writes ~mem ~store_after n =
  (* a cycle that can issue nothing would repeat forever *)
  if width < 1 || Array.exists (fun c -> c < 1) caps then
    invalid_arg
      (Printf.sprintf "Sched.list_schedule: width %d and every unit cap must be at least 1" width);
  let succs = Array.make n [] and npreds = Array.make n 0 in
  let add_edge i j lat =
    if i <> j then begin
      succs.(i) <- (j, lat) :: succs.(i);
      npreds.(j) <- npreds.(j) + 1
    end
  in
  let last_def = Hashtbl.create 16 and last_uses = Hashtbl.create 16 in
  let uses r = Option.value ~default:[] (Hashtbl.find_opt last_uses r) in
  let mem_ops = ref [] and last_store = ref (-1) in
  for j = 0 to n - 1 do
    List.iter
      (fun r ->
        Option.iter (fun i -> add_edge i j (latency i)) (Hashtbl.find_opt last_def r);
        Hashtbl.replace last_uses r (j :: uses r))
      (reads j);
    List.iter
      (fun r ->
        Option.iter (fun i -> add_edge i j 1) (Hashtbl.find_opt last_def r);
        List.iter (fun u -> add_edge u j 0) (uses r);
        Hashtbl.replace last_def r j;
        Hashtbl.replace last_uses r [])
      (writes j);
    (* loads may pass each other; a load follows the latest store by one
       cycle, and a store follows every earlier memory op, the latest by
       [store_after] cycles *)
    match mem j with
    | Not_mem -> ()
    | Load ->
        if !last_store >= 0 then add_edge !last_store j 1;
        mem_ops := j :: !mem_ops
    | Store ->
        List.iteri (fun k i -> add_edge i j (if k = 0 then store_after else 0)) !mem_ops;
        last_store := j;
        mem_ops := j :: !mem_ops
  done;
  (* critical-path priority *)
  let prio = Array.make n 0 in
  for i = n - 1 downto 0 do
    prio.(i) <- List.fold_left (fun acc (j, lat) -> max acc (lat + prio.(j))) (latency i) succs.(i)
  done;
  (* greedy issue: each cycle, up to [width] ready nodes with a free unit,
     highest priority first, ties to the lower index *)
  let order = Array.make n 0 and ready_at = Array.make n 0 and scheduled = Array.make n false in
  let free = Array.copy caps and emitted = ref 0 and cycle = ref 0 in
  while !emitted < n do
    Array.blit caps 0 free 0 (Array.length caps);
    let issued = ref 0 and stuck = ref false in
    while !issued < width && not !stuck do
      let best = ref (-1) in
      for i = 0 to n - 1 do
        if (not scheduled.(i)) && npreds.(i) = 0 && ready_at.(i) <= !cycle
           && free.(unit_of i) > 0
           && (!best < 0 || prio.(i) > prio.(!best))
        then best := i
      done;
      if !best < 0 then stuck := true
      else begin
        let i = !best in
        scheduled.(i) <- true;
        free.(unit_of i) <- free.(unit_of i) - 1;
        order.(!emitted) <- i;
        incr emitted;
        incr issued;
        List.iter
          (fun (j, lat) ->
            npreds.(j) <- npreds.(j) - 1;
            ready_at.(j) <- max ready_at.(j) (!cycle + lat))
          succs.(i)
      end
    done;
    incr cycle
  done;
  order

let latency = function
  | Ir.Ibin (Ir.Mul, _, _, _) -> 3
  | Ir.Ibin ((Ir.Div | Ir.Rem), _, _, _) -> 12
  | Ir.Fbin ((Ir.FAdd | Ir.FSub), _, _, _) -> 2
  | Ir.Fbin (Ir.FMul, _, _, _) -> 4
  | Ir.Fbin (Ir.FDiv, _, _, _) -> 12
  | Ir.Fcmp _ -> 2
  | Ir.Load _ -> 2
  | _ -> 1

(* a call orders like a store, and follows the latest memory op by a cycle *)
let mem_of = function
  | Ir.Load _ | Ir.Prefetch _ -> Load
  | Ir.Store _ | Ir.Call _ -> Store
  | _ -> Not_mem

let schedule_block ~issue_width (b : Ir.block) =
  let instrs = Array.of_list b.instrs in
  let n = Array.length instrs in
  if n > 1 && n < 400 then
    let order =
      list_schedule ~width:issue_width ~caps:[| issue_width |] ~unit_of:(fun _ -> 0)
        ~latency:(fun i -> latency instrs.(i))
        ~reads:(fun i -> Ir.uses_of instrs.(i))
        ~writes:(fun i -> Option.to_list (Ir.def_of instrs.(i)))
        ~mem:(fun i -> mem_of instrs.(i))
        ~store_after:1 n
    in
    b.instrs <- Array.to_list (Array.map (fun i -> instrs.(i)) order)

let run ~issue_width (p : Ir.program) =
  List.iter (fun (_, f) -> Array.iter (schedule_block ~issue_width) f.Ir.blocks) p.funcs;
  p
