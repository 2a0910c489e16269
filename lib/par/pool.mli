(** A deterministic Domain-based work pool.

    The evaluation matrices (tables, lint-all, verify-all) are
    embarrassingly parallel grids, but every rendered table must be
    bit-for-bit identical whatever the scheduling.  The pool guarantees
    that by construction: tasks are claimed from a shared index counter,
    every result is written into a task-indexed slot, and {!map} returns
    the slots in input order — so output depends only on the task function,
    never on completion order.

    Concurrency rules:

    - A pool runs one batch at a time; concurrent {!map} calls from
      different domains queue up on the pool and run back to back.
    - A {!map} issued from {e inside} a pool task runs inline
      (sequentially, in the calling task) instead of deadlocking on the
      pool; nested parallelism is deliberately not a thing.
    - Tasks must not share unsynchronised mutable state.  Everything in
      [lib/] keeps its interpreter and predictor state per run, so the
      pipeline functions are safe as-is; profiles passed to tasks are only
      read.

    Exception contract: if tasks raise, {!map} raises the exception of the
    {e lowest-indexed} raising task — the same one a sequential left-to-right
    run would surface — after the whole batch has drained.  The pool remains
    usable afterwards.

    [jobs = 1] forces the plain sequential path: no domains are spawned
    and tasks run in the calling domain in input order. *)

type t

val jobs_of_string : string -> (int, string) result
(** Parse a job count: a positive integer (surrounding whitespace allowed).
    Zero, negative, and non-numeric values are errors with a human-readable
    message. *)

val check_env : unit -> (unit, string) result
(** Validate the [BA_JOBS] environment variable without consuming it.  [Ok]
    when unset or a positive integer; [Error message] otherwise.  Entry
    points call this first so a malformed [BA_JOBS] is a clear non-zero exit
    instead of a silent fallback. *)

val default_jobs : unit -> int
(** The [BA_JOBS] environment variable if set, otherwise
    [Domain.recommended_domain_count ()].  Raises [Failure] if [BA_JOBS] is
    set to anything but a positive integer — use {!check_env} at program
    entry for a graceful message. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (the submitting
    domain participates in every batch, so [jobs] is the true concurrency).
    [jobs] defaults to {!default_jobs}; values below 1 raise
    [Invalid_argument]. *)

val jobs : t -> int

val shutdown : t -> unit
(** Stop and join the worker domains.  Idempotent.  Calling {!map} after
    shutdown raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map. *)

val mapi : t -> (int -> 'a -> 'b) -> 'a list -> 'b list

val map_array : t -> ('a -> 'b) -> 'a array -> 'b array

val map_reduce :
  t -> map:('a -> 'b) -> reduce:('acc -> 'b -> 'acc) -> init:'acc -> 'a list -> 'acc
(** Parallel map, then a sequential left fold over the results in task
    order — deterministic even for non-commutative [reduce]. *)

val timed_map :
  t ->
  label:string ->
  ?task_label:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b list * Stats.t
(** {!map} that also captures per-task and whole-batch wall times. *)
