(** The one HTTP/1.1 layer behind all three daemons ([emc serve],
    [emc fleet-worker], [emc fleet-store]) and every client of them (the
    fleet coordinator and store client, [emc loadgen], the tests):
    addresses and name resolution, a typed connect, one request/response
    framing, and the response writer. Just enough protocol: a start line,
    headers, an optional [Content-Length] body, keep-alive, and in-order
    pipelining (the fleet coordinator keeps several requests in flight
    per worker and frames the responses with {!parse_response}). No
    chunked encoding, no TLS.

    Robustness is the point: header and body sizes are capped, reads
    honor absolute deadlines, and every malformed input, dead peer or
    unresolvable host is a typed [error], never an exception — a daemon
    must survive a fuzz loop of truncated and oversized garbage, and a
    coordinator must survive a store it cannot reach. *)

(** {1 Addresses} *)

type addr =
  | Tcp of string * int  (** host, port *)
  | Unix_sock of string  (** distinguished from host:port by containing '/' *)

val addr_to_string : addr -> string

val parse_addr : string -> (addr, string) result
(** ["host:port"], [":port"] (127.0.0.1), or a Unix-socket path
    (anything containing '/'). *)

val sockaddr_of_addr : addr -> (Unix.sockaddr, string) result
(** Resolve a host name (first address) or take an IP literal as is.
    Total: a name that does not resolve is an [Error]. Names under the
    reserved [.invalid] domain fail without a lookup (RFC 6761). *)

(** {1 Messages} *)

type request = {
  meth : string;  (** uppercase, e.g. "GET" *)
  path : string;  (** decoded path without the query string *)
  query : (string * string) list;  (** decoded key/value pairs *)
  headers : (string * string) list;  (** keys lowercased *)
  body : string;
}

type response = {
  status : int;
  resp_headers : (string * string) list;  (** keys lowercased *)
  resp_body : string;
}

type error =
  | Closed  (** clean EOF before any byte of the message — peer is done *)
  | Timeout  (** the deadline (or the socket's receive timeout) expired *)
  | Too_large of string  (** headers or declared body over the cap; names which *)
  | Bad of string  (** malformed start line/headers, or a truncated message *)
  | Refused of string
      (** client side only: the peer refused or reset the connection, or
          its host does not resolve — the fleet coordinator's signal that
          a worker is gone *)

val error_to_string : error -> string

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val response_header : response -> string -> string option
(** Case-insensitive header lookup. *)

(** {1 Framing}

    One pure framer serves both directions: find the head, parse the
    start line and headers, then take a [Content-Length] body. The
    blocking readers below, the multiplexed server and the fleet
    coordinator all frame through it, so limits and error mapping agree
    everywhere.

    It reads each head byte once. The search for the blank line steps 4
    bytes wherever the fourth byte is neither ['\r'] nor ['\n'], and the
    head's lines are walked by index: no copy of the head, no list of
    lines. A line is trimmed of exactly the bytes [String.trim] strips
    (space, tab, ['\n'], ['\r'], form feed); a header splits at its first
    [':'] into a lowercased key and a value, both trimmed, and a line
    without [':'] is dropped. Records, consumed lengths and error texts
    are those of trimming copied lines. A [Content-Length] is ASCII
    digits fitting in an int, and its repeats must agree in value. *)

type 'a parse =
  | Parsed of 'a * int
      (** one complete message plus the number of bytes it consumed; the
          remainder of the input is the start of the next pipelined message *)
  | Incomplete of int
      (** a valid prefix: no message can be framed before the input is
          this many bytes long (one more byte while the head is open, the
          end of the declared body once it is read), so a reader need not
          parse again before then *)
  | Invalid of error  (** terminal: respond with the mapped status and close *)

val parse_request : ?max_header:int -> ?max_body:int -> string -> request parse
(** Frame one request from an in-memory accumulation of connection
    bytes. Heads over [max_header] (16 KiB) and declared bodies over
    [max_body] (1 MiB) are [Too_large] before any body byte arrives. *)

val parse_response : ?max_header:int -> ?max_body:int -> string -> response parse
(** {!parse_request} for a response; [max_body] defaults to 8 MiB. *)

(** {1 Blocking reads}

    [timeout] bounds the {e whole} message against an absolute deadline
    — without it, only the socket's receive timeout applies, which resets
    on every read and so never fires against a peer that dribbles bytes.
    EINTR never restarts the budget.

    [carry] makes pipelining correct: reads pull from the socket in
    chunks, so bytes of the {e next} pipelined message may arrive glued
    to this one. Pass one [ref] per connection — its contents seed the
    read and, on success, it holds the surplus. Without [carry], surplus
    is discarded (fine for strict request/response lockstep, fatal for
    pipelining). A caller holding a non-empty carry must not wait for
    socket readability — the next message may already be buffered.

    Every read lands in one 4 KiB chunk made once per process, not one
    per call: a fresh chunk is a major-heap allocation. Sharing it is
    safe because its bytes are copied into the message's buffer before
    anything else runs, no signal handler of the program reads a socket,
    and a forked child has its own copy. *)

val read_request :
  ?max_header:int ->
  ?max_body:int ->
  ?timeout:float ->
  ?carry:string ref ->
  Unix.file_descr ->
  (request, error) result
(** Read one request ({!parse_request} limits). *)

val read_response :
  ?max_header:int ->
  ?max_body:int ->
  ?timeout:float ->
  ?carry:string ref ->
  Unix.file_descr ->
  (response, error) result
(** Read one response ({!parse_response} limits). *)

(** {1 Client} *)

val connect : ?timeout:float -> Unix.sockaddr -> (Unix.file_descr, error) result
(** Open a stream connection with a connect timeout (default 10 s), mapping
    a refused/unreachable peer to {!Refused} and a slow one to {!Timeout}
    instead of letting [Unix_error] escape. The timeout is an absolute
    deadline (EINTR re-waits with the remaining budget, never the full
    window). On success the descriptor's send/receive timeouts are set to
    [timeout], and a TCP socket has [TCP_NODELAY] set. *)

val write_request :
  Unix.file_descr ->
  meth:string ->
  path:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  unit ->
  (unit, error) result
(** Write one [Content-Length]-framed request (adding [Host: localhost]
    unless [headers] has a Host); a failed write is {!Refused}, a
    send-timeout expiry is {!Timeout}. Callers should ignore SIGPIPE. *)

val call :
  ?timeout:float ->
  addr ->
  meth:string ->
  path:string ->
  ?headers:(string * string) list ->
  ?body:string ->
  unit ->
  (response, error) result
(** One exchange on a fresh connection: resolve, connect, write the
    request, read the response, close. [timeout] (default 10 s) bounds
    the connect and the whole response. A host that does not resolve is
    {!Refused}, like a peer that refuses the connection. *)

(** {1 Server} *)

val respond :
  Unix.file_descr ->
  status:int ->
  ?content_type:string ->
  ?keep_alive:bool ->
  ?headers:(string * string) list ->
  string ->
  unit
(** Write a complete response with [Content-Length]; [headers] adds
    extra response headers (e.g. [X-Request-Id]). [content_type]
    defaults to ["application/json"]. Raises [Unix.Unix_error] on a dead
    peer (callers catch EPIPE/ECONNRESET). *)

val response_head_into :
  Buffer.t ->
  status:int ->
  content_type:string ->
  body_length:int ->
  keep_alive:bool ->
  (string * string) list ->
  unit
(** Render the status line, framing headers, extras and the blank line
    into [b] — the body (exactly [body_length] bytes) follows. {!respond}
    and the multiplexed server loop share this formatter, so their
    response bytes are identical by construction. *)

