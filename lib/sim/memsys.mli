(** The memory hierarchy — split L1 I/D caches, a unified L2 and a flat
    memory latency (paper parameters #18–#25). Latencies returned are total
    load-to-use costs; every access updates the cache state (fills on
    miss). *)

(** Set-associative cache with true-LRU replacement (tag state only; 64-byte
    lines; write-back write-allocate, dirty-eviction traffic not modeled).

    One instance each backs the L1I, L1D and unified L2 of the hierarchy. *)
module Cache : sig
  type t = {
    sets : int;
    ways : int;
    tags : int array;  (** [sets * ways] used entries; -1 = invalid *)
    stamp : int array;  (** LRU timestamps *)
    mutable tick : int;
    mutable hits : int;  (** running hit count, read by the energy model *)
    mutable misses : int;
  }

  val line_bytes : int
  (** Line size: 64 bytes, fixed. *)

  val create : size_bytes:int -> assoc:int -> t
  (** [create ~size_bytes ~assoc] — capacity is rounded so the set count is a
      power of two; raises [Invalid_argument] otherwise. Associativity is
      clamped to the number of lines. *)

  val access : t -> int -> bool
  (** [access t addr] returns [true] on hit; on a miss the line is filled,
      evicting the LRU way. Statistics are updated either way. *)

  val probe : t -> int -> bool
  (** Residency check with no fill, no LRU update and no statistics. *)

  val miss_rate : t -> float
  (** Misses over total accesses; 0 before any access. *)
end

type t = {
  l1i : Cache.t;
  l1d : Cache.t;
  l2 : Cache.t;
  dcache_lat : int;
  l2_lat : int;
  mem_lat : int;
}

type store
(** The tag and stamp arrays of the three caches, kept by a caller for
    its successive machines. *)

val store : unit -> store
(** An empty store. *)

val create : ?store:store -> Config.t -> t
(** A cold hierarchy for the configuration. With [store], its caches are
    built over the store's arrays, reset in place, and behave exactly
    like fresh ones; a hierarchy made earlier from the same store must no
    longer be used. *)

val max_latency : t -> int
(** Worst-case latency a single access can bill (a full miss to memory).
    The timing model sizes its completion calendar from this bound. *)

val access_i : t -> int -> int
(** Instruction fetch at a byte address: 1 cycle on an L1I hit (pipelined
    into fetch), otherwise 1 + L2 latency (+ memory latency on an L2
    miss). *)

val access_d : t -> int -> int
(** Data access: L1D latency on a hit, adding the L2 and memory latencies as
    the miss goes deeper. Writes allocate like reads. *)

val prefetch_d : t -> int -> unit
(** Software prefetch: pulls the line into L1D/L2 (with normal fills and
    evictions — pollution is modeled) but bills no latency to the
    requester. *)
