(** Set-associative cache with true-LRU replacement.

    Tag state only (data lives in the functional simulator's memory image);
    64-byte lines. Writes are write-back write-allocate; dirty-eviction
    writeback traffic is not modeled (a standard simplification that does
    not change any of the latency trends the paper's parameters probe). *)

type t = {
  sets : int;
  ways : int;
  line_shift : int;
  tags : int array;  (** the first sets*ways entries are used; -1 = invalid *)
  stamp : int array;  (** LRU timestamps *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

let line_bytes = 64

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
  { sets; ways; line_shift = 6; tags; stamp; tick = 0; hits = 0; misses = 0 }

let create ~size_bytes ~assoc = create_in (store ()) ~size_bytes ~assoc

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
