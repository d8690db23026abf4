(** Combined branch predictor, as described for the paper's parameter #16:
    a bimodal predictor and a 2-level (gshare-style) predictor of equal size,
    arbitrated by a chooser table of 2-bit counters.

    [size] is the number of entries in {e each} table. Calls and returns are
    assumed perfectly predicted (an idealized BTB and return-address stack),
    so only conditional-branch direction mispredictions cost cycles — these
    are what the predictor-size parameter controls. *)

type t = {
  size : int;
  bimodal : Bytes.t;  (** 2-bit counters *)
  pht : Bytes.t;  (** 2-bit counters for the 2-level component *)
  chooser : Bytes.t;  (** 2-bit: >=2 prefers the 2-level component *)
  hist_mask : int;
  mutable ghr : int;
  mutable lookups : int;
  mutable mispredicts : int;
}

let create ~size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Bpred.create: size must be a positive power of two";
  {
    size;
    bimodal = Bytes.make size '\001';
    pht = Bytes.make size '\001';
    chooser = Bytes.make size '\001';
    hist_mask = size - 1;
    ghr = 0;
    lookups = 0;
    mispredicts = 0;
  }

let ctr b i = Char.code (Bytes.get b i)

(* Saturate with int compares: [Stdlib.min]/[max] compare polymorphically,
   through the runtime. *)
let bump b i taken =
  let v = ctr b i in
  if taken then (if v < 3 then Bytes.set b i (Char.unsafe_chr (v + 1)))
  else if v > 0 then Bytes.set b i (Char.unsafe_chr (v - 1))

let bimodal_index t pc = pc land (t.size - 1)
let gshare_index t pc = (pc lxor t.ghr) land (t.size - 1)

let predict t pc =
  let bi = ctr t.bimodal (bimodal_index t pc) >= 2 in
  let gs = ctr t.pht (gshare_index t pc) >= 2 in
  let use_gshare = ctr t.chooser (bimodal_index t pc) >= 2 in
  if use_gshare then gs else bi

(** Update all component tables and the global history with the actual
    outcome. Returns [true] when the prediction was correct. *)
let update t pc taken =
  t.lookups <- t.lookups + 1;
  let bi_idx = bimodal_index t pc in
  let gs_idx = gshare_index t pc in
  let bi = ctr t.bimodal bi_idx >= 2 in
  let gs = ctr t.pht gs_idx >= 2 in
  let use_gshare = ctr t.chooser bi_idx >= 2 in
  let predicted = if use_gshare then gs else bi in
  (* chooser trains toward the component that was right *)
  if gs <> bi then bump t.chooser bi_idx (gs = taken);
  bump t.bimodal bi_idx taken;
  bump t.pht gs_idx taken;
  t.ghr <- ((t.ghr lsl 1) lor if taken then 1 else 0) land t.hist_mask;
  if predicted <> taken then t.mispredicts <- t.mispredicts + 1;
  predicted = taken

let mispredict_rate t =
  if t.lookups = 0 then 0.0 else float_of_int t.mispredicts /. float_of_int t.lookups
