(** The memory hierarchy: split L1 I/D, unified L2, flat memory latency —
    the paper's parameters #18–#25. *)

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
let prefetch_d t addr =
  ignore (access_d t addr)
