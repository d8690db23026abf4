(** Data-segment layout shared by the IR interpreter and the code generator.

    Every global array gets a fixed byte base address, 64-byte (cache-line)
    aligned so that cache behaviour is stable across compiler configurations.
    The stack occupies a separate region above the data segment. *)

type data = DInt of int array | DFloat of float array

type t = { globals : (Ir.global * int) list;  (** with byte bases *) data_end : int }

let data_base = 0x1000
let align64 x = (x + 63) land lnot 63

let compute (p : Ir.program) =
  let addr = ref data_base in
  let globals =
    List.map
      (fun (g : Ir.global) ->
        let base = !addr in
        addr := align64 (base + (g.gsize * 8));
        (g, base))
      p.globals
  in
  { globals; data_end = !addr }

let find t name = List.find_opt (fun ((g : Ir.global), _) -> g.gname = name) t.globals

let base t name =
  match find t name with
  | Some (_, b) -> b
  | None -> invalid_arg ("Memlayout.base: unknown global " ^ name)

(** Copy the words of [inputs] that fall in the word range [[lo, hi)]:
    each [DInt] input's into [imem] and each [DFloat] input's into [fmem],
    from its global's word [base / 8] on. Unchecked: every input must have
    passed {!load}'s checks against a layout equal to [t]. {!load} is
    those checks plus one [load_range] over the whole address space; a
    simulator memory restores a dirty page with one over that page. [DInt]
    words are copied by a plain loop: on OCaml 5, [Array.blit] into a
    major-heap [int array] runs the runtime's per-element write barrier,
    which a loop over [int array]s does not; a float blit has no barrier. *)
let load_range t ~(imem : int array) ~(fmem : float array) ~lo ~hi inputs =
  List.iter
    (fun (name, data) ->
      match find t name with
      | None -> ()
      | Some (_, b) -> (
          let w = b / 8 in
          match data with
          | DInt a ->
              for i = max lo w to min hi (w + Array.length a) - 1 do
                imem.(i) <- a.(i - w)
              done
          | DFloat a ->
              let s = max lo w and e = min hi (w + Array.length a) in
              if e > s then Array.blit a (s - w) fmem s (e - s)))
    inputs

(** Write each input into its global ([DInt] into [imem], [DFloat] into
    [fmem]). Raises [Invalid_argument], before writing anything, naming
    an input that names no global, has the other element type, or is
    longer than its global. *)
let load t ~imem ~fmem inputs =
  List.iter
    (fun (name, data) ->
      let fail why = invalid_arg (Printf.sprintf "Memlayout.load: input %s %s" name why) in
      match find t name with
      | None -> fail "names no global"
      | Some (g, _) ->
          let n, ty =
            match data with DInt a -> (Array.length a, Ir.I64) | DFloat a -> (Array.length a, Ir.F64)
          in
          if ty <> g.gty then fail "has the other element type";
          if n > g.gsize then fail (Printf.sprintf "has %d elements, global holds %d" n g.gsize))
    inputs;
  load_range t ~imem ~fmem ~lo:0 ~hi:max_int inputs

(** Stack region: grows downward from [stack_top]. Sized generously relative
    to the workloads (no deep recursion). *)
let stack_size = 1 lsl 20

let stack_top t = align64 (t.data_end + (1 lsl 16)) + stack_size

(** Total memory words needed to back the address space. *)
let mem_words t = (stack_top t / 8) + 16
