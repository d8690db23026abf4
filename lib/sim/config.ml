(** Microarchitectural configuration: the 11 parameters of the paper's
    Table 2, with the same ranges, plus the three reference configurations of
    Table 5 (constrained / typical / aggressive). *)

type t = {
  issue_width : int;  (** #15: 2 or 4 *)
  bpred_size : int;  (** #16: entries per table of the combined predictor, 512..8192 *)
  ruu_size : int;  (** #17: register update unit entries, 16..128 *)
  icache_kb : int;  (** #18: 8..128 KB *)
  dcache_kb : int;  (** #19: 8..128 KB *)
  dcache_assoc : int;  (** #20: 1..2 *)
  dcache_lat : int;  (** #21: 1..3 cycles *)
  l2_kb : int;  (** #22: 256..8192 KB *)
  l2_assoc : int;  (** #23: 1..8 *)
  l2_lat : int;  (** #24: 6..16 cycles *)
  mem_lat : int;  (** #25: 50..150 cycles *)
}

(** Table 5, "Constrained". *)
let constrained =
  { issue_width = 2; bpred_size = 512; ruu_size = 16; icache_kb = 8; dcache_kb = 8;
    dcache_assoc = 1; dcache_lat = 1; l2_kb = 256; l2_assoc = 2; l2_lat = 6; mem_lat = 50 }

(** Table 5, "Typical". *)
let typical =
  { issue_width = 4; bpred_size = 2048; ruu_size = 64; icache_kb = 32; dcache_kb = 32;
    dcache_assoc = 1; dcache_lat = 2; l2_kb = 1024; l2_assoc = 4; l2_lat = 10; mem_lat = 100 }

(** Table 5, "Aggressive". *)
let aggressive =
  { issue_width = 4; bpred_size = 8192; ruu_size = 128; icache_kb = 128; dcache_kb = 128;
    dcache_assoc = 2; dcache_lat = 3; l2_kb = 8192; l2_assoc = 8; l2_lat = 16; mem_lat = 150 }

let named = [ ("constrained", constrained); ("typical", typical); ("aggressive", aggressive) ]

let pp fmt c =
  Format.fprintf fmt
    "width=%d bpred=%d ruu=%d il1=%dKB dl1=%dKB/%dway/%dcy l2=%dKB/%dway/%dcy mem=%dcy"
    c.issue_width c.bpred_size c.ruu_size c.icache_kb c.dcache_kb c.dcache_assoc c.dcache_lat
    c.l2_kb c.l2_assoc c.l2_lat c.mem_lat

let to_string c = Format.asprintf "%a" pp c
