(** The memory hierarchy: split L1 I/D, unified L2, flat memory latency —
    the paper's parameters #18–#25.

    The caches live in this module, not in one of their own, so the
    hierarchy's walks below inline {!Cache.access}: a call into another
    module of the library goes through a closure. *)

module Cache = struct
  (* Set-associative cache with true-LRU replacement.

     Tag state only (data lives in the functional simulator's memory
     image); 64-byte lines. Writes are write-back write-allocate;
     dirty-eviction writeback traffic is not modeled (a standard
     simplification that does not change any of the latency trends the
     paper's parameters probe). *)

  type t = {
    sets : int;
    ways : int;
    tags : int array;  (** the first sets*ways entries are used; -1 = invalid *)
    stamp : int array;  (** LRU timestamps *)
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
  }

  let line_shift = 6
  let line_bytes = 1 lsl line_shift

  (* Arrays a caller keeps for the caches of its successive machines. *)
  type store = { mutable s_tags : int array; mutable s_stamp : int array }

  let store () = { s_tags = [||]; s_stamp = [||] }

  (* The first [n] entries of [s]'s arrays, reset to an empty cache by a
     plain loop (on OCaml 5, [Array.fill] into a major-heap array runs the
     per-element write barrier); new arrays only when [s]'s are shorter. *)
  let take s n =
    if Array.length s.s_tags < n then begin
      s.s_tags <- Array.make n (-1);
      s.s_stamp <- Array.make n 0
    end
    else begin
      let tags = s.s_tags and stamp = s.s_stamp in
      for i = 0 to n - 1 do
        Array.unsafe_set tags i (-1);
        Array.unsafe_set stamp i 0
      done
    end;
    (s.s_tags, s.s_stamp)

  let create_in s ~size_bytes ~assoc =
    if size_bytes <= 0 || assoc <= 0 then invalid_arg "Cache.create";
    let lines = max 1 (size_bytes / line_bytes) in
    let ways = min assoc lines in
    let sets = max 1 (lines / ways) in
    if sets land (sets - 1) <> 0 then invalid_arg "Cache.create: sets must be a power of two";
    let tags, stamp = take s (sets * ways) in
    { sets; ways; tags; stamp; tick = 0; hits = 0; misses = 0 }

  let create ~size_bytes ~assoc = create_in (store ()) ~size_bytes ~assoc

  (* Tags store the full line number (redundant set bits included), so a
     lookup compares against [line] directly. This is the innermost
     function of the whole simulator (every load, store, prefetch and
     I-fetch line crossing lands here): it allocates nothing, and its
     unchecked indices stay inside the set's [ways] entries, which lie in
     the first [sets * ways] of both arrays. *)
  let[@inline] access t addr =
    let tick = t.tick + 1 in
    t.tick <- tick;
    let line = addr lsr line_shift in
    let base = (line land (t.sets - 1)) * t.ways in
    let last = base + t.ways - 1 and tags = t.tags and stamp = t.stamp in
    let w = ref base in
    while !w <= last && Array.unsafe_get tags !w <> line do
      incr w
    done;
    if !w <= last then begin
      Array.unsafe_set stamp !w tick;
      t.hits <- t.hits + 1;
      true
    end
    else begin
      (* fill the least recently used way, the lowest on a tie *)
      t.misses <- t.misses + 1;
      let victim = ref base in
      for k = base + 1 to last do
        if Array.unsafe_get stamp k < Array.unsafe_get stamp !victim then victim := k
      done;
      Array.unsafe_set tags !victim line;
      Array.unsafe_set stamp !victim tick;
      false
    end

  let probe t addr =
    let line = addr lsr line_shift in
    let base = (line land (t.sets - 1)) * t.ways in
    let rec go w = w < t.ways && (t.tags.(base + w) = line || go (w + 1)) in
    go 0

  let miss_rate t =
    let total = t.hits + t.misses in
    if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total
end

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  dcache_lat : int;
  l2_lat : int;
  mem_lat : int;
}

type store = { s_l1i : Cache.store; s_l1d : Cache.store; s_l2 : Cache.store }

let store () = { s_l1i = Cache.store (); s_l1d = Cache.store (); s_l2 = Cache.store () }

let create ?store:(s = store ()) (c : Config.t) =
  {
    l1i = Cache.create_in s.s_l1i ~size_bytes:(c.icache_kb * 1024) ~assoc:1;
    l1d = Cache.create_in s.s_l1d ~size_bytes:(c.dcache_kb * 1024) ~assoc:c.dcache_assoc;
    l2 = Cache.create_in s.s_l2 ~size_bytes:(c.l2_kb * 1024) ~assoc:c.l2_assoc;
    dcache_lat = c.dcache_lat;
    l2_lat = c.l2_lat;
    mem_lat = c.mem_lat;
  }

(** Worst-case latency any single access can bill (full miss to memory).
    The timing model sizes its completion calendar from this so a wheel slot
    can never hold an event more than one revolution away. *)
let max_latency t = 1 + t.dcache_lat + t.l2_lat + t.mem_lat

(** Instruction fetch: L1I is 1 cycle when hit (pipelined into fetch). *)
let access_i t addr =
  if Cache.access t.l1i addr then 1
  else if Cache.access t.l2 addr then 1 + t.l2_lat
  else 1 + t.l2_lat + t.mem_lat

(** Data access (load or store miss timing; writes allocate). *)
let access_d t addr =
  if Cache.access t.l1d addr then t.dcache_lat
  else if Cache.access t.l2 addr then t.dcache_lat + t.l2_lat
  else t.dcache_lat + t.l2_lat + t.mem_lat

(** Software prefetch: pulls the line into L1D/L2 without a latency bill for
    the requesting instruction (non-binding, non-blocking). *)
let prefetch_d t addr = ignore (access_d t addr)
