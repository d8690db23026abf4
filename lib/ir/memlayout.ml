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

(** Write each input into its global at word [base / 8] ([DInt] into
    [imem], [DFloat] into [fmem]). Raises [Invalid_argument] naming an
    input that names no global, has the other element type, or is longer
    than its global. [DInt] arrays are copied by a plain loop: on OCaml 5,
    [Array.blit] into a major-heap [int array] runs the runtime's
    per-element write barrier, which a loop over [int array]s does not;
    a float blit has no barrier. *)
let load t ~(imem : int array) ~(fmem : float array) inputs =
  List.iter
    (fun (name, data) ->
      let fail why = invalid_arg (Printf.sprintf "Memlayout.load: input %s %s" name why) in
      match find t name with
      | None -> fail "names no global"
      | Some (g, b) -> (
          let check n =
            if n > g.gsize then fail (Printf.sprintf "has %d elements, global holds %d" n g.gsize)
          in
          let w = b / 8 in
          match (data, g.gty) with
          | DInt (a : int array), Ir.I64 ->
              check (Array.length a);
              for i = 0 to Array.length a - 1 do
                imem.(w + i) <- a.(i)
              done
          | DFloat a, Ir.F64 ->
              check (Array.length a);
              Array.blit a 0 fmem w (Array.length a)
          | DInt _, Ir.F64 | DFloat _, Ir.I64 -> fail "has the other element type"))
    inputs

(** Stack region: grows downward from [stack_top]. Sized generously relative
    to the workloads (no deep recursion). *)
let stack_size = 1 lsl 20

let stack_top t = align64 (t.data_end + (1 lsl 16)) + stack_size

(** Total memory words needed to back the address space. *)
let mem_words t = (stack_top t / 8) + 16
