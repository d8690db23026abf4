(** -fschedule-insns2: one list scheduler for both of its halves, and the
    half that runs before register allocation. *)

(** How a node touches memory. Loads may pass each other; a store (an IR
    call counts as one) is a barrier. *)
type mem = Not_mem | Load | Store

val list_schedule :
  width:int ->
  caps:int array ->
  unit_of:(int -> int) ->
  latency:(int -> int) ->
  reads:(int -> int list) ->
  writes:(int -> int list) ->
  mem:(int -> mem) ->
  store_after:int ->
  int ->
  int array
(** [list_schedule ... n] is the issue order of the straight-line nodes
    [0 .. n-1]: a permutation. Edges run from the last writer of each
    register a node reads (the writer's [latency]), from the last writer
    (1 cycle) and every reader since (0) of each register it writes, from
    the latest store into a load (1), and from every earlier memory op into
    a store (0, or [store_after] from the latest). Each cycle issues up to
    [width] ready nodes, at most [caps.(c)] of unit class [c] ([unit_of]
    indexes [caps]), highest critical-path priority first, ties to the
    lower index. Raises [Invalid_argument] when [width] or a cap is below
    1, since no cycle could then issue a node. *)

val run : issue_width:int -> Emc_ir.Ir.program -> Emc_ir.Ir.program
(** Schedule every IR block of 2–399 instructions in place, all nodes in
    one unit class capped at [issue_width], and return the program. *)
