(** Blocking protocol client for the server tests.

    One connection per value; {!send}/{!recv} allow pipelining (responses
    to compute requests preserve per-connection request order, and every
    response echoes the request id), {!call} is the simple one-at-a-time
    path. *)

type t

val connect : ?retries:int -> string -> t
(** Connect to a server socket, retrying [retries] times (50 ms apart,
    default 40) while the path does not accept yet — covers the window
    between {!Ba_serve.Server.start} and the server actually listening. *)

val close : t -> unit
val send : t -> Ba_serve.Protocol.request -> unit

val recv : t -> Ba_serve.Protocol.response option
(** [None] on a clean EOF (server drained and closed). *)

val call : t -> Ba_serve.Protocol.request -> Ba_serve.Protocol.response
(** {!send} then {!recv}; raises on EOF. *)
