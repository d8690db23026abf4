(** A process's start and stop — the stop flag, the one fork, the one
    reap, the pidfile and drain — for the three daemons, the fleet
    worker's heartbeater and {!Par.map}.

    A daemon catches SIGTERM/SIGINT into its stop flag (in [Server.bind])
    before it creates its first file, so a signal that lands the moment
    its socket or pidfile appears is recorded and its cleanup runs. A
    child forked after {!catch_stop} inherits the handler and its own
    copy of the flag, and a serving loop that starts with the flag set
    returns at once. So no signal mask is needed. *)

val catch_stop : unit -> unit
(** Route SIGTERM and SIGINT into this process's stop flag. Calling it
    again is harmless; nothing clears the flag. *)

val stopping : unit -> bool
(** The stop flag. *)

val spawn : (unit -> unit) -> int
(** Flush stdout and stderr, fork, and return the child's pid. The child
    runs the body and leaves with [Unix._exit]: 0 when the body returns,
    2 after a log line when it raises. It never unwinds into the caller's
    code and never runs the [at_exit] handlers it inherited. *)

val reap :
  ?timeout:float -> ?until:(unit -> bool) -> int list -> (int * Unix.process_status option) list
(** Wait until each pid is gone, [until ()] holds or [timeout] seconds
    (default: no bound) pass; return the pids that went, [Some status]
    for a child reaped, [None] for another process once [kill pid 0]
    answers ESRCH. With neither bound it blocks in [waitpid]; otherwise
    it polls between sleeps of 1 ms doubling to 0.1 s. A signal restarts
    the one and cuts the other short: EINTR and ECHILD are no errors. *)

val terminate : int list -> unit
(** SIGTERM each child, then reap them all with no bound. *)

val write_pidfile : string -> unit
(** Write this process's pid and a newline to the file. *)

val remove_pidfile : string -> unit
(** Remove the file; one already gone is no error. *)

val drain : ?timeout:float -> pidfile:string -> unit -> (int, string) result
(** SIGTERM the pid a pidfile names and wait up to [timeout] seconds
    (default 120) until it is gone; return the pid. The caller's own
    child is reaped (a zombie still answers [kill pid 0]); another
    process is gone once its pidfile is, or its pid. Errors name a
    missing pidfile, a pid that is malformed or below 1 (which would
    signal a process group), a stale pidfile, and a timeout. *)
