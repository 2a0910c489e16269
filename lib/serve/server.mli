(** The alignment server: a Unix-socket request loop over the CLI pipelines.

    See DESIGN.md "Serving, sharded caching & backpressure" for the full
    story.  In short:

    - requests are admitted into a bounded queue; when it is full the
      server answers [overloaded] immediately instead of queueing — clients
      retry, the server never falls behind unboundedly;
    - a dispatcher drains the queue in batches of at most [batch_max] and
      executes each batch through a {!Ba_par.Pool} — task-indexed result
      slots keep every response body byte-identical at any [jobs];
    - profiles and traces come from the process-wide, byte-budgeted
      {!Ba_workloads.Profiled} LRU ([cache_mb] resizes it), so repeated
      workloads are served from memory;
    - SIGINT/SIGTERM (when [install_signals]) or {!stop} drain gracefully:
      everything already admitted is answered before the socket is
      unlinked. *)

type config = {
  socket_path : string;
  jobs : int option;  (** pool size; [None] = {!Ba_par.Pool.default_jobs} *)
  cache_mb : int option;  (** resize the {!Ba_workloads.Profiled} budget *)
  queue_len : int;  (** admission-queue bound *)
  batch_max : int;  (** max requests per dispatch batch *)
  install_signals : bool;  (** catch SIGINT/SIGTERM for graceful drain *)
}

val default_config : socket_path:string -> config
(** [queue_len = 256], [batch_max = 64], signals installed. *)

val run : config -> unit
(** Bind, serve until a stop signal arrives, drain, clean up.  Blocks the
    calling domain for the server's lifetime.  Raises [Invalid_argument]
    before binding when [queue_len] or [batch_max] is not positive. *)

type handle

val start : config -> handle
(** {!run} on a background domain.  The socket is already bound and
    listening when [start] returns, so a client may connect immediately.
    Refuses the same configurations as {!run}. *)

val stop : handle -> unit
(** Request a graceful drain and wait for the server to finish. *)
