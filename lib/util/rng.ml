(* The splitmix64 state: 8 bytes, read and written as an unboxed int64.
   An [int64] kept in a mutable field is boxed, so every draw would
   allocate a new box for it. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* Inlined into each draw below, so its int64s stay unboxed there. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 = next_int64

let split t = of_state (next_int64 t)

(* Non-negative 62-bit int. *)
let[@inline] next_nat t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling: draws at or above the largest exact multiple of
     [bound] in the 62-bit range are re-drawn, so every residue class is
     equally likely (a bare [mod] over-weights small residues). For small
     bounds the rejection probability is ~bound/2^62, so streams are
     unchanged in practice; bounds near max_int reject ~half the draws. *)
  let limit = max_int / bound * bound in
  let v = ref (next_nat t) in
  while !v >= limit do
    v := next_nat t
  done;
  !v mod bound

let float t bound =
  let x = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  (* 53 random bits scaled to [0,1). *)
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let gaussian t =
  let u1 = ref (float t 1.0) in
  while not (!u1 > 0.0) do
    u1 := float t 1.0
  done;
  let u2 = float t 1.0 in
  sqrt (-2.0 *. log !u1) *. cos (2.0 *. Float.pi *. u2)

let range t lo hi =
  if hi < lo then invalid_arg "Rng.range: hi < lo";
  lo + int t (hi - lo + 1)

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choice: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  let idx = Array.init n Fun.id in
  shuffle t idx;
  Array.sub idx 0 k
