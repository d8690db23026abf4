open Emc_isa

(** Out-of-order timing model in the style of SimpleScalar's sim-outorder.

    The core structure is the RUU (register update unit — a unified
    reorder-buffer/reservation-station array, parameter #17), fed by an
    in-order front end (I-cache + combined branch predictor) and drained by
    in-order commit. Per cycle:

    - {b commit}: up to [issue_width] completed entries leave the RUU head;
      stores write the D-cache at commit (store buffer semantics);
    - {b writeback}: issued entries whose latency elapsed become complete; a
      mispredicted branch unblocks the front end [mispredict_extra] cycles
      after completing;
    - {b issue}: up to [issue_width] ready entries (operands complete,
      functional unit of the right class free) begin execution, oldest
      first. Loads check older in-flight stores for a same-word conflict
      (forwarding at 1 cycle once the store has executed); otherwise they
      access the D-cache/L2/memory hierarchy. Prefetches touch the hierarchy
      without stalling anything;
    - {b dispatch}: up to [issue_width] instructions move from the fetch
      queue into free RUU slots, capturing their producers;
    - {b fetch}: up to [issue_width] sequential instructions per cycle; a
      taken branch ends the fetch group; an I-cache miss stalls the front
      end; a mispredicted conditional branch blocks fetch until the branch
      resolves (the simulator is trace-driven, so wrong-path instructions
      are modeled as front-end bubbles, a standard approximation).

    The model is driven by the functional simulator's dynamic stream, so
    each run is tied to one binary and one input — IPC comparisons across
    different binaries are meaningless, which is exactly why the paper (and
    this reproduction) measures whole-program cycles.

    {2 Scheduling data structures}

    The per-cycle loop is scan-free; every stage runs in time proportional
    to the work it actually performs, not to the RUU size, and cycles in
    which no stage can act are not stepped at all. Cycle counts are
    bit-identical to the straightforward scan-everything, cycle-by-cycle
    formulation (the golden tests in [test_sim_golden], the
    "idle-cycle skip is cycle-exact" test and the differential fuzzer's
    [ooo-timing] level enforce this):

    - {b decoded table}: each RUU entry carries its static instruction's
      {!Func.decode} entry, one int packing the issue slot, the
      load/store/prefetch/branch flags and the base latency, and fetch and
      functional warming test the same table's halt, conditional-branch
      and prefetch bits. The table is built once per program and kept in
      the {!store}, so the SMARTS attempts of a design point share it. No
      stage calls an [Isa] predicate per instruction: under dune's dev
      profile every module is compiled [-opaque], and each such call would
      go through a closure.
    - {b completion calendar}: issuing an entry pushes [(seq, slot)] into a
      power-of-two timing wheel bucket keyed by [complete_at]. Writeback
      drains exactly the current cycle's bucket. The wheel is sized past the
      worst memory round-trip ({!Memsys.max_latency}), so a live event is
      never more than one revolution away. Events are validated against the
      entry's [seq] on pop: a [flush_timing] can strand stale events in the
      wheel and they must be ignored, not serviced. A bitmap ([cal_busy])
      holds one bit per bucket, set while the bucket is not empty.
    - {b ready set}: a bitset over RUU slots holding dispatched entries
      whose remaining producer count ([pending]) is zero. Completion wakes
      consumers through per-producer edge lists ([cons_head]/[cons_next],
      edge id = [slot*2 + operand]); dispatch only records edges to
      producers that are still in flight, so each edge is drained exactly
      once. In-order commit guarantees a consumer slot cannot be recycled
      before its producers complete, which is what makes the raw slot in
      the edge safe to dereference. Issue walks set bits oldest-first from
      the RUU head; an entry that fails to launch (FU busy, store-set
      conflict) keeps its bit and retries next cycle, exactly like the
      old rescan.
    - {b store index}: an open-addressing table maps word address → the
      youngest in-flight store to that word, and each store links to the
      previous same-word store ([st_prev_*]). A load walks that chain,
      skipping stores younger than itself and validating [seq] (entries are
      never deleted — commit and flush invalidate them implicitly). This
      replaces the head-to-slot RUU walk per load per issue attempt.
    - {b fetch ring}: the fetch queue is a preallocated ring of
      [ifq_size] slots each embedding a {!Func.dynbuf}; together with
      {!Func.step_into} the front end allocates nothing per instruction,
      and neither do the later stages: a detailed run allocates O(1)
      words in all.
    - {b idle-cycle skip}: {!run_detailed} and {!run_to_completion} call
      {!skip_idle} before every {!step_cycle}. A cycle is idle when all
      five stages are stuck: writeback's calendar bucket is empty; the RUU
      is empty or its head has not completed; the ready set is empty;
      the fetch queue is empty or the RUU full; and fetch is done, its
      queue full, or it is blocked on a branch or until a later cycle. An
      idle cycle changes nothing but [cycle] and the three stall counters,
      so every cycle after it is idle too until a calendar bucket falls due
      or fetch unblocks. The skip jumps straight to the earlier of those
      two cycles and credits the stall counters as the per-cycle loop
      would, so every cycle and counter is unchanged. The next non-empty
      bucket is found in the calendar bitmap, a count-trailing-zeros per
      32 buckets, instead of by probing each bucket in turn. A bucket
      holding only events stranded by [flush_timing] just ends a skip
      early; writeback sets [state = 2] only at [complete_at], so the
      commit condition cannot hide a due commit. [step_cycle] still
      simulates exactly one cycle and is the reference the skip is tested
      against.

    All ring/wheel arithmetic uses power-of-two masks or wrap compares —
    there is no [mod]/[div] left on a per-cycle or per-instruction path. *)

type entry = {
  mutable seq : int;
  mutable dec : int;  (** the instruction's {!Func.decode} entry *)
  mutable dst : int;  (** arch register id or -1 *)
  mutable pending : int;  (** producers not yet complete (0..2) *)
  mutable addr : int;
  mutable mispred : bool;
  mutable state : int;  (** 0 = waiting, 1 = issued, 2 = completed *)
  mutable complete_at : int;
  mutable valid : bool;
}

let mispredict_extra = 3
let ifq_size = 16 (* power of two: the fetch queue is a ring *)

type fetch_slot = { f_dyn : Func.dynbuf; mutable f_mispred : bool }

type t = {
  cfg : Config.t;
  machine : Isa.machine;
  mem : Memsys.t;
  bpred : Bpred.t;
  func : Func.t;
  decoded : int array;  (** [func]'s {!Func.decode} table *)
  ruu : entry array;
  size : int;  (** [Array.length ruu], hoisted out of the wrap compares *)
  mutable head : int;
  mutable count : int;
  mutable seq : int;
  (* fetch queue ring: slots [ifq_head, ifq_head+ifq_len) mod ifq_size *)
  ifq : fetch_slot array;
  mutable ifq_head : int;
  mutable ifq_len : int;
  mutable fetch_blocked_until : int;  (** -1 means blocked on a branch resolution *)
  mutable last_fetch_line : int;
  mutable cycle : int;
  mutable committed : int;
  mutable trace_done : bool;
  (* per-arch-register producer tracking *)
  prod_slot : int array;  (** 64 entries; -1 when value is architectural *)
  prod_seq : int array;
  (* ready set: bit per RUU slot, 32 bits per word *)
  ready : int array;
  (* completion calendar: wheel of buckets, index = complete_at land cal_mask;
     events are (seq lsl slot_bits) lor slot, validated against the entry on
     pop so events stranded by a flush are ignored *)
  cal : int array array;
  cal_len : int array;
  cal_busy : int array;  (** bit per bucket, set while its [cal_len] > 0 *)
  cal_mask : int;
  slot_bits : int;
  slot_mask : int;
  (* producer-to-consumer wakeup edges: cons_head.(producer slot) heads a
     list through cons_next, edge id = (consumer slot)*2 + operand *)
  cons_head : int array;
  cons_next : int array;
  (* in-flight store index: open-addressing word->(slot,seq) plus a per-slot
     link to the previous same-word store; entries validated by seq, never
     deleted (the table is rebuilt larger when half full) *)
  mutable sq_key : int array;
  mutable sq_slot : int array;
  mutable sq_seq : int array;
  mutable sq_mask : int;
  mutable sq_used : int;
  st_prev_slot : int array;
  st_prev_seq : int array;
  (* per-cycle FU budget, reset by [issue]; indexed by [entry.fu] *)
  fu_avail : int array;
  warm_buf : Func.dynbuf;  (** scratch for {!run_warming} *)
  mutable branch_mispredicts : int;
  mutable detail_instrs : int;
  (* per-run performance counters (see {!counters}): stall cycles are
     detailed-mode cycles in which the corresponding stage made no
     progress while it had work available *)
  mutable issued_total : int;
  mutable fetch_stall_cycles : int;
  mutable issue_stall_cycles : int;
  mutable commit_stall_cycles : int;
  mutable skipped_cycles : int;
      (** cycles {!skip_idle} jumped over; not in {!counters}, whose keys the
          golden tests pin *)
}

let fresh_entry () =
  { seq = -1; dec = 0; dst = -1; pending = 0; addr = -1; mispred = false; state = 0;
    complete_at = 0; valid = false }

let next_pow2 n =
  let r = ref 1 in
  while !r < n do
    r := !r * 2
  done;
  !r

let bits_for n =
  let b = ref 0 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

(** A caller's machine store: the memory and the cache arrays its
    successive machines are built on, each starting from what the last
    one left instead of allocating its own, and the decoded table of the
    last program simulated on it. It backs one live machine at a time. *)
type store = {
  mutable memory : Func.memory option;
      (** replaced by a fresh one only when a program does not
          {!Func.fits} it (counted in [sim.memory_allocations]) *)
  caches : Memsys.store;
  mutable decoded : (Isa.program * int array) option;
      (** {!Func.decode} of the program, kept for as long as the machines
          built on the store simulate that very program (the SMARTS
          attempts of one design point) *)
}

let store () = { memory = None; caches = Memsys.store (); decoded = None }

let m_memory_allocations = Emc_obs.Metrics.counter "sim.memory_allocations"

(* The store's memory when [prog] fits it; otherwise a fresh one that
   replaces it: another address-space size, or a first program that needs
   the FP view. *)
let store_memory s prog =
  match s.memory with
  | Some m when Func.fits m prog -> m
  | _ ->
      let m = Func.memory prog in
      s.memory <- Some m;
      Emc_obs.Metrics.incr m_memory_allocations;
      m

let store_decoded s prog =
  match s.decoded with
  | Some (p, d) when p == prog -> d
  | _ ->
      let d = Func.decode prog in
      s.decoded <- Some (prog, d);
      d

(** A timing model at [prog]'s entry with [inputs] loaded (see
    {!Func.create}). Without [store] it gets a fresh memory and fresh
    caches. With it, {!Func.create} brings the store's memory back in
    place to what a fresh one would hold and {!Memsys.create} builds the
    caches over the store's arrays, so the machine runs exactly like a
    fresh one; a machine made earlier from the same store must no longer
    be used. The store keeps [prog]'s decoded table too, so a program
    must not change while machines built on one store simulate it.
    Raises [Invalid_argument] on an RUU of no entries, into which no
    instruction would ever dispatch, and on a negative cache or memory
    latency: [try_issue] reads a negative latency as "blocked by an older
    store", so a load that hits a negative-latency L1 never issues. *)
let create ?store ?inputs (cfg : Config.t) (prog : Isa.program) =
  if cfg.ruu_size < 1 then
    invalid_arg (Printf.sprintf "Ooo.create: RUU size must be at least 1, not %d" cfg.ruu_size);
  let latency what lat =
    if lat < 0 then
      invalid_arg (Printf.sprintf "Ooo.create: %s latency must not be negative, not %d" what lat)
  in
  latency "L1 data-cache" cfg.dcache_lat;
  latency "L2" cfg.l2_lat;
  latency "memory" cfg.mem_lat;
  let memory = Option.map (fun s -> store_memory s prog) store in
  let decoded = Option.map (fun s -> store_decoded s prog) store in
  let func = Func.create ?decoded ?memory ?inputs prog in
  let mem = Memsys.create ?store:(Option.map (fun s -> s.caches) store) cfg in
  let size = cfg.ruu_size in
  (* strictly larger than any single-event latency: loads bill at most the
     full miss chain, ALU ops at most Isa.latency_of (<= 12) *)
  let wheel = next_pow2 (max (Memsys.max_latency mem) 16 + 2) in
  let slot_bits = max 1 (bits_for size) in
  {
    cfg;
    machine = Isa.machine_for_width cfg.issue_width;
    mem;
    bpred = Bpred.create ~size:cfg.bpred_size;
    func;
    decoded = func.Func.decoded;
    ruu = Array.init size (fun _ -> fresh_entry ());
    size;
    head = 0;
    count = 0;
    seq = 0;
    ifq = Array.init ifq_size (fun _ -> { f_dyn = Func.dynbuf (); f_mispred = false });
    ifq_head = 0;
    ifq_len = 0;
    fetch_blocked_until = 0;
    last_fetch_line = -1;
    cycle = 0;
    committed = 0;
    trace_done = false;
    prod_slot = Array.make 64 (-1);
    prod_seq = Array.make 64 (-1);
    ready = Array.make ((size + 31) lsr 5) 0;
    cal = Array.init wheel (fun _ -> Array.make 4 0);
    cal_len = Array.make wheel 0;
    cal_busy = Array.make (wheel lsr 5) 0;
    cal_mask = wheel - 1;
    slot_bits;
    slot_mask = (1 lsl slot_bits) - 1;
    cons_head = Array.make size (-1);
    cons_next = Array.make (2 * size) (-1);
    sq_key = Array.make 64 (-1);
    sq_slot = Array.make 64 0;
    sq_seq = Array.make 64 0;
    sq_mask = 63;
    sq_used = 0;
    st_prev_slot = Array.make size (-1);
    st_prev_seq = Array.make size (-1);
    fu_avail = Array.make 6 0;
    warm_buf = Func.dynbuf ();
    branch_mispredicts = 0;
    detail_instrs = 0;
    issued_total = 0;
    fetch_stall_cycles = 0;
    issue_stall_cycles = 0;
    commit_stall_cycles = 0;
    skipped_cycles = 0;
  }

let func t = t.func

(* ---------- ready-set bitset ---------- *)

(* de Bruijn count-trailing-zeros over the low 32 bits (words of [t.ready]
   only ever hold 32 bits) *)
let debruijn32 =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = debruijn32.((((x land (-x)) * 0x077CB531) land 0xFFFFFFFF) lsr 27)
let set_ready t slot = t.ready.(slot lsr 5) <- t.ready.(slot lsr 5) lor (1 lsl (slot land 31))

let clear_ready t slot =
  t.ready.(slot lsr 5) <- t.ready.(slot lsr 5) land lnot (1 lsl (slot land 31))

(* ---------- completion calendar ---------- *)

let cal_push t at slot seq =
  assert (at - t.cycle <= t.cal_mask);
  let b = at land t.cal_mask in
  let n = t.cal_len.(b) in
  let bucket =
    let bk = t.cal.(b) in
    if n < Array.length bk then bk
    else begin
      let bigger = Array.make (2 * n) 0 in
      Array.blit bk 0 bigger 0 n;
      t.cal.(b) <- bigger;
      bigger
    end
  in
  bucket.(n) <- (seq lsl t.slot_bits) lor slot;
  t.cal_len.(b) <- n + 1;
  if n = 0 then t.cal_busy.(b lsr 5) <- t.cal_busy.(b lsr 5) lor (1 lsl (b land 31))

(* ---------- store index ---------- *)

(* open-addressing probe: returns the slot holding [word] or the free slot
   where it would go; the table never holds deleted keys *)
let sq_probe t word =
  let mask = t.sq_mask in
  let i = ref ((word * 0x9E3779B1) land mask) in
  while
    let k = t.sq_key.(!i) in
    k >= 0 && k <> word
  do
    i := (!i + 1) land mask
  done;
  !i

let sq_grow t =
  let old_key = t.sq_key and old_slot = t.sq_slot and old_seq = t.sq_seq in
  let n = 2 * Array.length old_key in
  t.sq_key <- Array.make n (-1);
  t.sq_slot <- Array.make n 0;
  t.sq_seq <- Array.make n 0;
  t.sq_mask <- n - 1;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = sq_probe t k in
        t.sq_key.(j) <- k;
        t.sq_slot.(j) <- old_slot.(i);
        t.sq_seq.(j) <- old_seq.(i)
      end)
    old_key

(* Is there an older in-flight store to the same word? Returns [`Forward]
   when that store has executed (data available), [`Conflict] when it has
   not, [`None] otherwise. Walks the same-word store chain youngest-first;
   the first link that is stale (committed or flushed, detected by seq
   mismatch) ends the walk — stores commit in order, so everything older on
   the chain is gone too. Program order is compared by [seq]: RUU slot
   numbers wrap, sequence numbers do not. *)
let older_store_conflict t (load : entry) =
  let j = sq_probe t (load.addr lsr 3) in
  if t.sq_key.(j) < 0 then `None
  else begin
    let slot = ref t.sq_slot.(j) and sq = ref t.sq_seq.(j) in
    let result = ref `None in
    let continue_ = ref true in
    while !continue_ do
      let e = t.ruu.(!slot) in
      if not (e.valid && e.dec land Func.store_bit <> 0 && e.seq = !sq) then continue_ := false
      else if e.seq < load.seq then begin
        result := (if e.state = 2 then `Forward else `Conflict);
        continue_ := false
      end
      else begin
        (* store younger than the load: skip to the previous same-word one *)
        sq := t.st_prev_seq.(!slot);
        slot := t.st_prev_slot.(!slot);
        if !slot < 0 then continue_ := false
      end
    done;
    !result
  end

(* ---------- pipeline stages ---------- *)

let commit t =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < t.machine.Isa.issue_width && t.count > 0 do
    let e = t.ruu.(t.head) in
    if e.valid && e.state = 2 && e.complete_at <= t.cycle then begin
      if e.dec land Func.store_bit <> 0 then ignore (Memsys.access_d t.mem e.addr);
      (* clear producer tracking if we are still the last writer *)
      if e.dst >= 0 && t.prod_slot.(e.dst) = t.head && t.prod_seq.(e.dst) = e.seq then begin
        t.prod_slot.(e.dst) <- -1;
        t.prod_seq.(e.dst) <- -1
      end;
      e.valid <- false;
      let h = t.head + 1 in
      t.head <- (if h = t.size then 0 else h);
      t.count <- t.count - 1;
      t.committed <- t.committed + 1;
      incr n
    end
    else continue_ := false
  done

(* complete one issued entry: wake its consumers (each pending count drops
   exactly once per recorded edge) and release a resolving mispredict *)
let complete_entry t slot (e : entry) =
  e.state <- 2;
  if e.mispred && e.dec land Func.branch_bit <> 0 && t.fetch_blocked_until < 0 then
    t.fetch_blocked_until <- t.cycle + mispredict_extra;
  let edge = ref t.cons_head.(slot) in
  t.cons_head.(slot) <- -1;
  while !edge >= 0 do
    let c = t.ruu.(!edge lsr 1) in
    c.pending <- c.pending - 1;
    if c.pending = 0 then set_ready t (!edge lsr 1);
    edge := t.cons_next.(!edge)
  done

let writeback t =
  let b = t.cycle land t.cal_mask in
  let n = t.cal_len.(b) in
  if n > 0 then begin
    let bucket = t.cal.(b) in
    for k = 0 to n - 1 do
      let ev = bucket.(k) in
      let slot = ev land t.slot_mask in
      let e = t.ruu.(slot) in
      (* seq check drops events stranded by flush_timing or slot reuse *)
      if e.valid && e.state = 1 && e.seq = ev lsr t.slot_bits then complete_entry t slot e
    done;
    t.cal_len.(b) <- 0;
    t.cal_busy.(b lsr 5) <- t.cal_busy.(b lsr 5) land lnot (1 lsl (b land 31))
  end

(* try to launch one ready entry; returns true when it issued. FU budget is
   checked before the load-conflict probe — same order as the old scan, so
   cache state mutates identically. A load blocked by an older store gets
   latency -1. *)
let try_issue t slot =
  let e = t.ruu.(slot) in
  let d = e.dec in
  let fu = d land Func.slot_mask in
  if t.fu_avail.(fu) = 0 then false
  else begin
    let lat =
      if d land Func.load_bit <> 0 then
        match older_store_conflict t e with
        | `Conflict -> -1
        | `Forward -> 1
        | `None -> Memsys.access_d t.mem e.addr
      else if d land Func.store_bit <> 0 then 1
      else if d land Func.pref_bit <> 0 then begin
        Memsys.prefetch_d t.mem e.addr;
        1
      end
      else d lsr Func.lat_shift
    in
    if lat < 0 then false
    else begin
      t.fu_avail.(fu) <- t.fu_avail.(fu) - 1;
      e.state <- 1;
      e.complete_at <- t.cycle + lat;
      clear_ready t slot;
      cal_push t e.complete_at slot e.seq;
      t.issued_total <- t.issued_total + 1;
      true
    end
  end

(* issue ready slots in [lo, hi) in slot order, until [width] are away;
   returns the updated issued count. Slot order from the head is age order,
   so this visits candidates oldest-first like the old full scan. *)
let issue_range t lo hi issued width =
  let issued = ref issued in
  if lo < hi then begin
    let w0 = lo lsr 5 and w1 = (hi - 1) lsr 5 in
    let w = ref w0 in
    while !w <= w1 && !issued < width do
      let word = ref t.ready.(!w) in
      if !w = w0 then word := !word land ((-1) lsl (lo land 31));
      if !w = w1 && hi land 31 <> 0 then word := !word land ((1 lsl (hi land 31)) - 1);
      while !word <> 0 && !issued < width do
        let bit = ctz32 !word in
        word := !word land (!word - 1);
        if try_issue t ((!w lsl 5) lor bit) then incr issued
      done;
      incr w
    done
  end;
  !issued

let issue t =
  let m = t.machine in
  t.fu_avail.(0) <- m.Isa.n_int_alu;
  t.fu_avail.(1) <- m.Isa.n_int_mul;
  t.fu_avail.(2) <- m.Isa.n_fp_alu;
  t.fu_avail.(3) <- m.Isa.n_fp_mul;
  t.fu_avail.(4) <- m.Isa.n_ldst;
  t.fu_avail.(5) <- m.Isa.issue_width;
  let width = m.Isa.issue_width in
  let tail = t.head + t.count in
  if tail <= t.size then ignore (issue_range t t.head tail 0 width)
  else begin
    let issued = issue_range t t.head t.size 0 width in
    if issued < width then ignore (issue_range t 0 (tail - t.size) issued width)
  end

(* Register sources are exactly (rs1, rs2) for every opcode — stores read
   their address base in rs1 and their data in rs2, loads leave rs2 = -1 —
   so no opcode needs special-cased source handling (a match distinguishing
   ST/FST here had identical arms and was collapsed). Record a wakeup edge
   only for producers still in flight: a completed or
   architecturally-committed producer imposes no wait, and skipping it here
   is what guarantees each recorded edge is drained exactly once at
   producer completion. *)
let add_dep t (e : entry) slot operand r =
  if r >= 0 then begin
    let p = t.prod_slot.(r) in
    if p >= 0 then begin
      let pe = t.ruu.(p) in
      if pe.valid && pe.seq = t.prod_seq.(r) && pe.state < 2 then begin
        e.pending <- e.pending + 1;
        let edge = (slot lsl 1) lor operand in
        t.cons_next.(edge) <- t.cons_head.(p);
        t.cons_head.(p) <- edge
      end
    end
  end

let dispatch t =
  let insts = t.func.Func.prog.Isa.insts in
  let n = ref 0 in
  while !n < t.machine.Isa.issue_width && t.count < t.size && t.ifq_len > 0 do
    let item = t.ifq.(t.ifq_head) in
    t.ifq_head <- (t.ifq_head + 1) land (ifq_size - 1);
    t.ifq_len <- t.ifq_len - 1;
    let d = item.f_dyn in
    let idx = d.Func.d_idx in
    let i = insts.(idx) in
    let slot =
      let s = t.head + t.count in
      if s >= t.size then s - t.size else s
    in
    let e = t.ruu.(slot) in
    t.seq <- t.seq + 1;
    e.seq <- t.seq;
    e.dec <- t.decoded.(idx);
    e.dst <- i.Isa.rd;
    e.addr <- d.Func.d_addr;
    e.mispred <- item.f_mispred;
    e.state <- 0;
    e.complete_at <- max_int;
    e.valid <- true;
    e.pending <- 0;
    t.cons_head.(slot) <- -1;
    add_dep t e slot 0 i.Isa.rs1;
    add_dep t e slot 1 i.Isa.rs2;
    if e.dec land Func.store_bit <> 0 then begin
      let j = sq_probe t (e.addr lsr 3) in
      if t.sq_key.(j) >= 0 then begin
        (* chain to the previous youngest same-word store; possibly stale,
           validated by seq at lookup time *)
        t.st_prev_slot.(slot) <- t.sq_slot.(j);
        t.st_prev_seq.(slot) <- t.sq_seq.(j)
      end
      else begin
        t.sq_key.(j) <- e.addr lsr 3;
        t.sq_used <- t.sq_used + 1;
        t.st_prev_slot.(slot) <- -1;
        t.st_prev_seq.(slot) <- -1
      end;
      t.sq_slot.(j) <- slot;
      t.sq_seq.(j) <- e.seq;
      if 2 * t.sq_used >= Array.length t.sq_key then sq_grow t
    end;
    if e.dst >= 0 then begin
      t.prod_slot.(e.dst) <- slot;
      t.prod_seq.(e.dst) <- e.seq
    end;
    if e.pending = 0 then set_ready t slot;
    t.count <- t.count + 1;
    incr n
  done

(* shared by detailed fetch and functional warming: account one I-cache
   line access when the pc crosses into a new line, returning its latency
   (1 when still within the current line). pc is an instruction index;
   instructions are 4 bytes, so the byte address is pc lsl 2 and the line
   is pc lsr (line_shift - 2). *)
let pc_line_shift =
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1) in
  log2 Memsys.Cache.line_bytes - 2

let ifetch_latency t pc =
  let line = pc lsr pc_line_shift in
  if line = t.last_fetch_line then 1
  else begin
    let lat = Memsys.access_i t.mem (pc lsl 2) in
    t.last_fetch_line <- line;
    lat
  end

(* Fetch up to issue_width instructions into the ring. *)
let fetch t =
  if t.fetch_blocked_until >= 0 && t.fetch_blocked_until <= t.cycle && not t.trace_done
  then begin
    let n = ref 0 in
    let stop = ref false in
    while (not !stop) && !n < t.machine.Isa.issue_width && t.ifq_len < ifq_size do
      let lat = ifetch_latency t t.func.Func.pc in
      if lat > 1 then begin
        t.fetch_blocked_until <- t.cycle + lat;
        stop := true
      end
      else begin
        let item = t.ifq.((t.ifq_head + t.ifq_len) land (ifq_size - 1)) in
        if not (Func.step_into t.func item.f_dyn) then begin
          t.trace_done <- true;
          stop := true
        end
        else begin
          t.detail_instrs <- t.detail_instrs + 1;
          let d = item.f_dyn in
          let dec = t.decoded.(d.Func.d_idx) in
          if dec land Func.halt_bit <> 0 then begin
            t.trace_done <- true;
            stop := true
          end
          else begin
            let mispred =
              if dec land Func.cond_bit <> 0 then begin
                let correct = Bpred.update t.bpred d.Func.d_idx d.Func.d_taken in
                if not correct then t.branch_mispredicts <- t.branch_mispredicts + 1;
                not correct
              end
              else false
            in
            item.f_mispred <- mispred;
            t.ifq_len <- t.ifq_len + 1;
            incr n;
            if mispred then begin
              (* block until the branch resolves *)
              t.fetch_blocked_until <- -1;
              stop := true
            end
            else if d.Func.d_taken then stop := true (* taken branch ends the group *)
          end
        end
      end
    done
  end

(* one simulated cycle *)
let step_cycle t =
  let committed0 = t.committed and issued0 = t.issued_total in
  let fetched0 = t.detail_instrs and had_entries = t.count > 0 in
  commit t;
  writeback t;
  issue t;
  dispatch t;
  fetch t;
  if had_entries then begin
    if t.committed = committed0 then t.commit_stall_cycles <- t.commit_stall_cycles + 1;
    if t.issued_total = issued0 then t.issue_stall_cycles <- t.issue_stall_cycles + 1
  end;
  if (not t.trace_done) && t.detail_instrs = fetched0 then
    t.fetch_stall_cycles <- t.fetch_stall_cycles + 1;
  t.cycle <- t.cycle + 1

let ready_empty t =
  let r = t.ready in
  let i = ref 0 in
  while !i < Array.length r && r.(!i) = 0 do
    incr i
  done;
  !i = Array.length r

(* How many cycles after [c] the first non-empty calendar bucket falls
   due, in [1, cal_mask]; [cal_mask + 1] when every bucket is empty. The
   bucket of [c] itself must be empty. Scans [cal_busy] word by word,
   starting at the bucket after [c]'s and wrapping round to it. *)
let next_busy t c =
  let first = (c + 1) land t.cal_mask in
  let words = Array.length t.cal_busy in
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i <= words do
    let w = ((first lsr 5) + !i) land (words - 1) in
    let bits = t.cal_busy.(w) in
    (* the first word only from [first] on; its lower bits come last *)
    let bits =
      if !i = 0 then bits land ((-1) lsl (first land 31))
      else if !i = words then bits land ((1 lsl (first land 31)) - 1)
      else bits
    in
    if bits <> 0 then found := (w lsl 5) lor ctz32 bits;
    incr i
  done;
  if !found < 0 then t.cal_mask + 1 else ((!found - c) land t.cal_mask)

(* Jump [t.cycle] over cycles in which no stage can act (see "idle-cycle
   skip" in the header), crediting the stall counters exactly as
   [step_cycle] would have. The skip ends at the first non-empty calendar
   bucket or at a future [fetch_blocked_until], whichever comes first; with
   neither there is nothing to jump to and the cycle is left alone. *)
let skip_idle t =
  let c = t.cycle and fbu = t.fetch_blocked_until in
  if
    t.cal_len.(c land t.cal_mask) = 0
    && (t.count = 0 || t.ruu.(t.head).state <> 2)
    && (t.ifq_len = 0 || t.count = t.size)
    && (t.trace_done || t.ifq_len = ifq_size || fbu < 0 || fbu > c)
    && ready_empty t
  then begin
    (* the wheel spans every pending latency: [cal_mask] buckets cover it *)
    let stop = if fbu > c then fbu else max_int and last = c + t.cal_mask in
    let k =
      let due = c + next_busy t c in
      if due < stop then due else stop
    in
    if k <= last || k = stop then begin
      let n = k - c in
      if t.count > 0 then begin
        t.commit_stall_cycles <- t.commit_stall_cycles + n;
        t.issue_stall_cycles <- t.issue_stall_cycles + n
      end;
      if not t.trace_done then t.fetch_stall_cycles <- t.fetch_stall_cycles + n;
      t.skipped_cycles <- t.skipped_cycles + n;
      t.cycle <- k
    end
  end

let busy t = t.count > 0 || t.ifq_len > 0 || not t.trace_done

(** Per-run performance counters — the raw material of the telemetry layer
    ({!Smarts} folds them into the [sim.*] metrics after every run, and
    [emc simulate --metrics] surfaces them as a report). *)
let counters t =
  [
    ("cycles", t.cycle);
    ("committed_instrs", t.committed);
    ("detail_instrs", t.detail_instrs);
    ("issued_instrs", t.issued_total);
    ("branch_mispredicts", t.branch_mispredicts);
    ("fetch_stall_cycles", t.fetch_stall_cycles);
    ("issue_stall_cycles", t.issue_stall_cycles);
    ("commit_stall_cycles", t.commit_stall_cycles);
    ("l1i_hits", t.mem.Memsys.l1i.Memsys.Cache.hits);
    ("l1i_misses", t.mem.Memsys.l1i.Memsys.Cache.misses);
    ("l1d_hits", t.mem.Memsys.l1d.Memsys.Cache.hits);
    ("l1d_misses", t.mem.Memsys.l1d.Memsys.Cache.misses);
    ("l2_hits", t.mem.Memsys.l2.Memsys.Cache.hits);
    ("l2_misses", t.mem.Memsys.l2.Memsys.Cache.misses);
  ]

(** Run in detailed mode until [instrs] more instructions have been fetched
    (or the program ends). *)
let run_detailed t ~instrs =
  let start = t.detail_instrs in
  while busy t && t.detail_instrs - start < instrs do
    skip_idle t;
    step_cycle t
  done

(** Discard in-flight timing state (RUU, fetch queue, producer tracking)
    while keeping architectural state, caches and predictors. Used when
    SMARTS switches from a detailed window back to functional warming: the
    functional simulator already executed the in-flight instructions at
    fetch, so only their timing bookkeeping must go. The completion
    calendar and store index are {e not} cleared — their stranded events
    and entries carry sequence numbers of invalidated entries and are
    skipped when encountered. [last_fetch_line] deliberately survives: the
    front end is still on the same I-cache line after the flush. *)
let flush_timing t =
  t.ifq_head <- 0;
  t.ifq_len <- 0;
  Array.iter (fun e -> e.valid <- false) t.ruu;
  t.head <- 0;
  t.count <- 0;
  Array.fill t.prod_slot 0 64 (-1);
  Array.fill t.prod_seq 0 64 (-1);
  Array.fill t.ready 0 (Array.length t.ready) 0;
  if t.fetch_blocked_until < 0 then t.fetch_blocked_until <- t.cycle

(** Run the whole program in detailed mode; returns total cycles. *)
let run_to_completion t =
  while busy t do
    skip_idle t;
    step_cycle t
  done;
  t.cycle

(** Functional warming: advance [instrs] instructions updating caches and
    branch predictor without timing (the SMARTS fast-forward mode). *)
let run_warming t ~instrs =
  let func = t.func in
  let buf = t.warm_buf in
  let n = ref 0 in
  while !n < instrs && not t.trace_done do
    ignore (ifetch_latency t func.Func.pc);
    if not (Func.step_into func buf) then t.trace_done <- true
    else begin
      let dec = t.decoded.(buf.Func.d_idx) in
      if dec land Func.halt_bit <> 0 then t.trace_done <- true
      else begin
        if dec land Func.cond_bit <> 0 then
          ignore (Bpred.update t.bpred buf.Func.d_idx buf.Func.d_taken);
        if buf.Func.d_addr >= 0 then
          if dec land Func.pref_bit <> 0 then Memsys.prefetch_d t.mem buf.Func.d_addr
          else ignore (Memsys.access_d t.mem buf.Func.d_addr)
      end
    end;
    incr n
  done
