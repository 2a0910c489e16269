(** Return-address stack (Kaeli & Emma style; paper §6 simulates a 32-entry
    stack in every architecture).

    A fixed-depth circular stack: pushing beyond the depth silently
    overwrites the oldest entry; popping an empty stack predicts nothing
    (a guaranteed misprediction).  The top index wraps by compare, so a
    push or pop does no division. *)

type t

val create : depth:int -> t

val push : t -> int -> unit
(** Push a return address.  Addresses are [>= 0]; a negative one raises
    [Invalid_argument], since [-1] is {!pop}'s empty answer. *)

val pop : t -> int
(** The most recently pushed address still held, or [-1] when the stack
    is empty.  A sentinel rather than an option, so the per-return path
    allocates nothing; it never equals a real return address. *)

val depth : t -> int
val occupancy : t -> int

val flush_obs : t -> unit
(** Flush the books accumulated since the last flush to the
    [predict.ras.*] counters and depth histogram. *)
