(** Set-associative cache with true-LRU replacement.

    Tag state only (data lives in the functional simulator's memory image);
    64-byte lines. Writes are write-back write-allocate; dirty-eviction
    writeback traffic is not modeled (a standard simplification that does
    not change any of the latency trends the paper's parameters probe). *)

type t = {
  sets : int;
  ways : int;
  line_shift : int;
  tags : int array;  (** sets*ways; -1 = invalid *)
  stamp : int array;  (** LRU timestamps *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let line_bytes = 64

let create ~size_bytes ~assoc =
  if size_bytes <= 0 || assoc <= 0 then invalid_arg "Cache.create";
  let lines = max 1 (size_bytes / line_bytes) in
  let ways = min assoc lines in
  let sets = max 1 (lines / ways) in
  if sets land (sets - 1) <> 0 then invalid_arg "Cache.create: sets must be a power of two";
  {
    sets;
    ways;
    line_shift = 6;
    tags = Array.make (sets * ways) (-1);
    stamp = Array.make (sets * ways) 0;
    tick = 0;
    hits = 0;
    misses = 0;
  }

(* Tags store the full line number (redundant set bits included), so lookup
   compares against [line] directly. Both loops below are tail-recursive and
   allocation-free: this is the innermost function of the whole simulator
   (every load, store, prefetch and I-fetch line crossing lands here). *)

let rec find_way t base line w =
  if w >= t.ways then -1
  else if t.tags.(base + w) = line then w
  else find_way t base line (w + 1)

let rec lru_way t base best w =
  if w >= t.ways then best
  else lru_way t base (if t.stamp.(base + w) < t.stamp.(base + best) then w else best) (w + 1)

(** [access t addr] returns [true] on hit. On miss the line is filled
    (evicting LRU). *)
let access t addr =
  t.tick <- t.tick + 1;
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let base = set * t.ways in
  let w = find_way t base line 0 in
  if w >= 0 then begin
    t.stamp.(base + w) <- t.tick;
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let victim = base + lru_way t base 0 1 in
    t.tags.(victim) <- line;
    t.stamp.(victim) <- t.tick;
    false
  end

(** Probe without fill or LRU update. *)
let probe t addr =
  let line = addr lsr t.line_shift in
  let set = line land (t.sets - 1) in
  let base = set * t.ways in
  let rec go w = w < t.ways && (t.tags.(base + w) = line || go (w + 1)) in
  go 0

let miss_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total
