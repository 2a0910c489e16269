(* The server under test: a `branch_align serve` child process.

   Paths are relative to the checkout root, the working directory of both
   processes, which keeps the socket path short whatever the checkout's
   location.  Every started server is registered until it has been stopped;
   [stop_all] (run on every exit path) sends SIGTERM, reaps the process and
   unlinks the socket, so a failed run never leaves a server behind. *)

let out_dir = "perfbench/out"
let socket = Filename.concat out_dir "serve.sock"
let log = Filename.concat out_dir "server.log"
let exe = "_build/default/bin/branch_align.exe"

type t = { pid : int; mutable reaped : bool }

let live : t list ref = ref []

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* A reply that stalls mid-frame fails the read after this long instead of
   hanging the run. *)
let read_timeout_s = 60.0

let try_connect () =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO read_timeout_s;
    Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
    Unix.close fd;
    None

(* The server unlinks whatever sits at its path before binding, so a second
   server would silently steal the socket of a live one.  Refuse instead; a
   socket file nobody listens on is a leftover and is removed. *)
let claim_socket () =
  if Sys.file_exists socket then
    match try_connect () with
    | Some fd ->
      Unix.close fd;
      failwith
        (Printf.sprintf "a server is already listening on %s; stop it first" socket)
    | None -> Unix.unlink socket

let start args =
  ensure_out_dir ();
  claim_socket ();
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: socket :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close logfd;
        Unix.close null)
      (fun () -> Unix.create_process exe argv null logfd logfd)
  in
  let t = { pid; reaped = false } in
  live := t :: !live;
  t

let alive t =
  (not t.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ ->
    t.reaped <- true;
    false

(* Poll for the socket every half millisecond, then wait for the first pong:
   the set-up time is not rounded to a retry interval. *)
let wait_ready t ~timeout =
  let deadline = Clock.now () +. timeout in
  let rec poll () =
    match try_connect () with
    | Some fd -> fd
    | None ->
      if not (alive t) then failwith "the server exited before it was ready";
      if Clock.now () > deadline then failwith "the server was not ready in time";
      Unix.sleepf 0.0005;
      poll ()
  in
  let fd = poll () in
  Ba_serve.Protocol.write_request fd (Ba_serve.Protocol.request ~id:0 Ba_serve.Protocol.Ping);
  match Ba_serve.Protocol.read_frame fd with
  | Some "{\"id\":0,\"status\":\"ok\",\"body\":{\"pong\":true}}" -> fd
  | Some p -> failwith ("unexpected answer to ping: " ^ p)
  | None -> failwith "the server closed the connection before answering ping"

let stop t =
  if not t.reaped then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
    let deadline = Clock.now () +. 10.0 in
    while not t.reaped do
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ ->
        if Clock.now () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          t.reaped <- true
        end
        else Unix.sleepf 0.001
      | _ -> t.reaped <- true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> t.reaped <- true
    done
  end;
  live := List.filter (fun u -> u != t) !live;
  try Unix.unlink socket with Unix.Unix_error _ -> ()

let stop_all () = List.iter stop !live

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
