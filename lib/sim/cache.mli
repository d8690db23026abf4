(** Set-associative cache with true-LRU replacement (tag state only; 64-byte
    lines; write-back write-allocate, dirty-eviction traffic not modeled).

    One instance each backs the L1I, L1D and unified L2 of {!Memsys}. *)

type t = {
  sets : int;
  ways : int;
  line_shift : int;
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

type store
(** Tag and stamp arrays a caller keeps for the caches of successive
    machines, one cache at a time. *)

val store : unit -> store
(** An empty store. *)

val create_in : store -> size_bytes:int -> assoc:int -> t
(** Like {!create}, but the cache lives in the first [sets × ways]
    entries of the store's arrays, reset in place to an empty cache; the
    store gets new, longer arrays only for a larger geometry. The cache
    behaves exactly like a fresh one. A cache made earlier from the same
    store must no longer be used. *)

val access : t -> int -> bool
(** [access t addr] returns [true] on hit; on a miss the line is filled,
    evicting the LRU way. Statistics are updated either way. *)

val probe : t -> int -> bool
(** Residency check with no fill, no LRU update and no statistics. *)

val miss_rate : t -> float
(** Misses over total accesses; 0 before any access. *)
