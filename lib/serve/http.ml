(** Minimal HTTP/1.1 over Unix file descriptors (see http.mli). *)

type addr = Tcp of string * int | Unix_sock of string

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  headers : (string * string) list;
  body : string;
}

type response = {
  status : int;
  resp_headers : (string * string) list;
  resp_body : string;
}

type error =
  | Closed
  | Timeout
  | Too_large of string
  | Bad of string
  | Refused of string

let error_to_string = function
  | Closed -> "connection closed"
  | Timeout -> "timed out"
  | Too_large what -> what ^ " too large"
  | Bad msg -> msg
  | Refused msg -> msg

(* ---------------- addresses ---------------- *)

let addr_to_string = function
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p
  | Unix_sock p -> p

let parse_addr s =
  let s = String.trim s in
  if s = "" then Error "empty address"
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "%S: want host:port or a unix-socket path" s)
    | Some i -> (
        let host = String.sub s 0 i in
        let host = if host = "" then "127.0.0.1" else host in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "%S: bad port %S" s port))

(* Total: a host that does not resolve is an [Error], so every caller
   decides what an unreachable peer means instead of catching an
   exception. Names under the reserved [.invalid] TLD never resolve
   (RFC 6761 §6.4), so they are refused without a lookup. *)
let sockaddr_of_addr = function
  | Unix_sock path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      let unresolved = Error ("cannot resolve " ^ host) in
      match Unix.inet_addr_of_string host with
      | ip -> Ok (Unix.ADDR_INET (ip, port))
      | exception Failure _ -> (
          if String.ends_with ~suffix:".invalid" (String.lowercase_ascii host) then unresolved
          else
            match (Unix.gethostbyname host).Unix.h_addr_list with
            | [||] -> unresolved
            | ips -> Ok (Unix.ADDR_INET (ips.(0), port))
            | exception Not_found -> unresolved))

(* ---------------- messages ---------------- *)

let header req name = List.assoc_opt (String.lowercase_ascii name) req.headers
let response_header resp name = List.assoc_opt (String.lowercase_ascii name) resp.resp_headers

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 415 -> "Unsupported Media Type"
  | 500 -> "Internal Server Error"
  | 501 -> "Not Implemented"
  | _ -> "Status"

let url_decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' -> Buffer.add_char b ' '
    | '%' when !i + 2 < n -> (
        match (hex s.[!i + 1], hex s.[!i + 2]) with
        | Some h, Some l ->
            Buffer.add_char b (Char.chr ((h lsl 4) lor l));
            i := !i + 2
        | _ -> Buffer.add_char b '%')
    | c -> Buffer.add_char b c);
    incr i
  done;
  Buffer.contents b

let parse_query q =
  String.split_on_char '&' q
  |> List.filter_map (fun kv ->
         if kv = "" then None
         else
           match String.index_opt kv '=' with
           | Some i ->
               Some
                 ( url_decode (String.sub kv 0 i),
                   url_decode (String.sub kv (i + 1) (String.length kv - i - 1)) )
           | None -> Some (url_decode kv, ""))

(* ---------------- the one framer ---------------- *)

type 'a parse = Parsed of 'a * int | Incomplete of int | Invalid of error

(* The first "\r\n\r\n". A terminator that starts anywhere in
   [i] .. [i + 3] covers byte [i + 3] with a '\r' or a '\n'; when that
   byte is neither, none starts there, and the scan steps 4 bytes. *)
let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else
      match String.unsafe_get s (i + 3) with
      | '\r' | '\n' ->
          if
            String.unsafe_get s i = '\r'
            && String.unsafe_get s (i + 1) = '\n'
            && String.unsafe_get s (i + 2) = '\r'
            && String.unsafe_get s (i + 3) = '\n'
          then Some i
          else go (i + 1)
      | _ -> go (i + 4)
  in
  go 0

(* The head is walked by index: a line is a span [a, b) of [s], trimmed
   by moving its bounds over exactly the bytes [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec trim_left s a b =
  if a < b && is_space (String.unsafe_get s a) then trim_left s (a + 1) b else a

let rec trim_right s a b =
  if b > a && is_space (String.unsafe_get s (b - 1)) then trim_right s a (b - 1) else b

(* The end of the line from [j]: its '\n', or the head's end [i] *)
let rec line_end s j i = if j < i && String.unsafe_get s j <> '\n' then line_end s (j + 1) i else j

(* The first ':' in [j, b), or [b] *)
let rec colon s j b = if j < b && String.unsafe_get s j <> ':' then colon s (j + 1) b else j

(* [String.lowercase_ascii (String.sub s a (b - a))] in one allocation *)
let lowercase_sub s a b =
  let k = Bytes.create (b - a) in
  for j = 0 to b - a - 1 do
    Bytes.unsafe_set k j (Char.lowercase_ascii (String.unsafe_get s (a + j)))
  done;
  Bytes.unsafe_to_string k

(* The header lines from [j] to the head's end [i], in order: each
   splits at its first ':' into a lowercased key and a value, both
   trimmed; a line without ':' is dropped. The line [a, b) is trimmed
   already, so its key needs only its right end trimmed and its value
   only its left. *)
let rec header_lines s j i acc =
  let e = line_end s j i in
  let a = trim_left s j e in
  let b = trim_right s a e in
  let c = colon s a b in
  let acc =
    if c = b then acc
    else
      let v = trim_left s (c + 1) b in
      (lowercase_sub s a (trim_right s a c), String.sub s v (b - v)) :: acc
  in
  if e < i then header_lines s (e + 1) i acc else List.rev acc

let ( let* ) = Result.bind

let content_length headers =
  match List.assoc_opt "content-length" headers with
  | None -> Ok 0
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> Ok n
      | _ -> Error (Bad ("malformed content-length: " ^ v)))

(* Head, then a [Content-Length] body, for either direction: [start]
   parses the first line (given the headers) into a constructor that
   takes the body. [Incomplete] names the input length before which no
   message can be framed — one more byte while the head is open, the
   body's end once the head is read — so a reader re-parses only when
   that many bytes have arrived. *)
let frame ~max_header ~max_body start s =
  match find_head_end s with
  | None ->
      if String.length s > max_header then Invalid (Too_large "headers")
      else Incomplete (String.length s + 1)
  | Some i when i > max_header -> Invalid (Too_large "headers")
  | Some i -> (
      let e = line_end s 0 i in
      let a = trim_left s 0 e in
      let first = String.sub s a (trim_right s a e - a) in
      let headers = if e < i then header_lines s (e + 1) i [] else [] in
      let framed =
        let* make = start first headers in
        let* () =
          if List.mem_assoc "transfer-encoding" headers then
            Error (Bad "chunked transfer encoding is not supported")
          else Ok ()
        in
        let* len = content_length headers in
        if len > max_body then Error (Too_large "body") else Ok (make, len)
      in
      match framed with
      | Error e -> Invalid e
      | Ok (make, len) ->
          let body_start = i + 4 in
          if String.length s - body_start >= len then
            Parsed (make (String.sub s body_start len), body_start + len)
          else Incomplete (body_start + len))

let request_start first headers =
  match String.split_on_char ' ' first with
  | [ meth; target; ("HTTP/1.1" | "HTTP/1.0") ] ->
      let path, query =
        match String.index_opt target '?' with
        | Some i ->
            ( url_decode (String.sub target 0 i),
              parse_query (String.sub target (i + 1) (String.length target - i - 1)) )
        | None -> (url_decode target, [])
      in
      let meth = String.uppercase_ascii meth in
      Ok (fun body -> { meth; path; query; headers; body })
  | _ -> Error (Bad "malformed request line")

let response_start first headers =
  match String.split_on_char ' ' first with
  | version :: code :: _ when String.starts_with ~prefix:"HTTP/" version -> (
      match int_of_string_opt code with
      | Some status -> Ok (fun resp_body -> { status; resp_headers = headers; resp_body })
      | None -> Error (Bad ("malformed status code: " ^ code)))
  | _ -> Error (Bad "malformed status line")

let parse_request ?(max_header = 16 * 1024) ?(max_body = 1024 * 1024) s =
  frame ~max_header ~max_body request_start s

let parse_response ?(max_header = 16 * 1024) ?(max_body = 8 * 1024 * 1024) s =
  frame ~max_header ~max_body response_start s

(* ---------------- the one blocking reader ---------------- *)

(* Absolute-deadline wait for readability. EINTR recomputes the remaining
   budget instead of restarting the full timeout — a signal-heavy process
   (interval timers, child reaping) would otherwise restart [select] with
   the whole window on every signal and never time out at all. Likewise a
   spurious early wakeup just loops: only the clock decides Timeout. *)
let wait_readable fd deadline =
  let rec go () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0.0 then Error Timeout
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> go ()
      | _ -> Ok ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Every read lands in this one chunk, made once per process: a fresh
   4 KiB [Bytes] per message would be a major-heap allocation (it is
   over [Max_young_wosize]). Its bytes are copied into the message
   buffer before anything else runs, and no signal handler reads a
   socket, so one chunk serves every call; a forked child has its own
   copy. *)
let chunk = Bytes.create 4096

(* Read into one buffer, seeded with the carry, until [parse] frames a
   message; the bytes past it go back into the carry. A parse runs only
   once the length the previous one asked for has arrived, so a body is
   parsed once, not once per read. The deadline bounds the whole message:
   a peer dribbling a byte per interval cannot reset it. *)

let read_message parse ?timeout ?carry fd =
  let deadline = Option.map (fun t -> Unix.gettimeofday () +. t) timeout in
  let buf = Buffer.create 1024 in
  Option.iter
    (fun r ->
      Buffer.add_string buf !r;
      r := "")
    carry;
  let cut why = if Buffer.length buf = 0 then Error Closed else Error (Bad why) in
  let rec fill need =
    if Buffer.length buf >= need then frame ()
    else
      match match deadline with None -> Ok () | Some d -> wait_readable fd d with
      | Error e -> Error e
      | Ok () -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> cut "truncated message"
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              fill need
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error Timeout
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill need
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> cut "connection reset")
  and frame () =
    let s = Buffer.contents buf in
    match parse s with
    | Parsed (m, n) ->
        Option.iter (fun r -> r := String.sub s n (String.length s - n)) carry;
        Ok m
    | Incomplete need -> fill need
    | Invalid e -> Error e
  in
  fill 1

let read_request ?max_header ?max_body ?timeout ?carry fd =
  read_message (parse_request ?max_header ?max_body) ?timeout ?carry fd

let read_response ?max_header ?max_body ?timeout ?carry fd =
  read_message (parse_response ?max_header ?max_body) ?timeout ?carry fd

(* ---------------- client half: connect, request, call ---------------- *)

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* A typed connect so a dead peer is an [error], never an escaping
   [Unix_error]: the fleet coordinator leans on this to tell a crashed
   worker (Refused/Closed) from a straggler (Timeout). The connect itself
   is raced against [timeout] via a non-blocking socket + select; the
   returned descriptor then carries [timeout] as its send/receive timeout,
   so every subsequent read honors it too. *)
let connect ?(timeout = 10.0) sockaddr =
  let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
  let fail e =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error e
  in
  let refused err = Refused ("connect: " ^ Unix.error_message err) in
  let finish () =
    Unix.clear_nonblock fd;
    (* small request/response exchanges must not wait out Nagle's delay *)
    (match sockaddr with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
    | Unix.ADDR_UNIX _ -> ());
    (* Unix-domain sockets reject SO_RCVTIMEO on some systems; timeouts
       there come from the select-guarded connect and the peer's behavior *)
    (try
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
       Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout
     with Unix.Unix_error _ -> ());
    Ok fd
  in
  match
    Unix.set_nonblock fd;
    Unix.connect fd sockaddr
  with
  | () -> finish ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      (* a deadline, not a per-select timeout: EINTR (or an early wakeup)
         re-waits with the remaining budget rather than the full window *)
      let deadline = Unix.gettimeofday () +. timeout in
      let rec wait () =
        let remaining = deadline -. Unix.gettimeofday () in
        if remaining <= 0.0 then fail Timeout
        else
          match Unix.select [] [ fd ] [] remaining with
          | _, [], _ -> wait ()
          | _, _ :: _, _ -> (
              match Unix.getsockopt_error fd with
              | None -> finish ()
              | Some err -> fail (refused err))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      in
      wait ())
  | exception Unix.Unix_error (err, _, _) -> fail (refused err)

let write_request fd ~meth ~path ?(headers = []) ?(body = "") () =
  let b = Buffer.create (String.length body + 128) in
  Buffer.add_string b (Printf.sprintf "%s %s HTTP/1.1\r\n" meth path);
  if not (List.exists (fun (k, _) -> String.lowercase_ascii k = "host") headers) then
    Buffer.add_string b "Host: localhost\r\n";
  List.iter (fun (k, v) -> Buffer.add_string b (k ^ ": " ^ v ^ "\r\n")) headers;
  Buffer.add_string b (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length body));
  Buffer.add_string b body;
  match write_all fd (Buffer.contents b) with
  | () -> Ok ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Error Timeout
  | exception Unix.Unix_error (err, _, _) ->
      Error (Refused ("request write: " ^ Unix.error_message err))

let call ?(timeout = 10.0) addr ~meth ~path ?headers ?body () =
  match sockaddr_of_addr addr with
  | Error msg -> Error (Refused msg)
  | Ok sockaddr ->
      let* fd = connect ~timeout sockaddr in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let* () = write_request fd ~meth ~path ?headers ?body () in
          read_response ~timeout fd)

(* ---------------- server half: responses ---------------- *)

(* The one response-head formatter: the blocking [respond] below and the
   multiplexed server loop both render through it, so responses are
   byte-identical whichever path wrote them. *)
let response_head_into b ~status ~content_type ~body_length ~keep_alive headers =
  (match status with
  | 200 -> Buffer.add_string b "HTTP/1.1 200 OK\r\n"
  | s ->
      Buffer.add_string b "HTTP/1.1 ";
      Buffer.add_string b (string_of_int s);
      Buffer.add_char b ' ';
      Buffer.add_string b (status_text s);
      Buffer.add_string b "\r\n");
  Buffer.add_string b "Content-Type: ";
  Buffer.add_string b content_type;
  Buffer.add_string b "\r\nContent-Length: ";
  Buffer.add_string b (string_of_int body_length);
  Buffer.add_string b "\r\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b v;
      Buffer.add_string b "\r\n")
    headers;
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n" else "Connection: close\r\n");
  Buffer.add_string b "\r\n"

let respond fd ~status ?(content_type = "application/json") ?(keep_alive = true)
    ?(headers = []) body =
  let b = Buffer.create (String.length body + 128) in
  response_head_into b ~status ~content_type ~body_length:(String.length body) ~keep_alive
    headers;
  Buffer.add_string b body;
  write_all fd (Buffer.contents b)
