(** Two-bit saturating up/down counters, the prediction state used by both
    the PHTs and the BTB entries (paper §3). *)

type t = private int
(** 0 = strongly not-taken, 1 = weakly not-taken, 2 = weakly taken,
    3 = strongly taken. *)

val initial : t
(** Weakly not-taken: a cold counter predicts the fall-through, matching the
    paper's BTB/PHT fall-through-on-miss convention. *)

val strongly_taken : t
(** Starting state for entries allocated on a taken branch. *)

val predict : t -> bool

val update : t -> taken:bool -> t
(** One saturating step toward [taken]: a table read, with no branch on
    [taken] or on the state. *)

val flush_sat : hi:int -> lo:int -> unit
(** Bulk-record [hi] saturated-taken and [lo] saturated-not-taken updates
    on the [predict.counter2.*] counters; owners of counter state call this
    from their own flush instead of touching the registry per update. *)

val of_int : int -> t
(** Clamped to [\[0, 3\]]; for tests. *)

val of_bits : int -> t
(** The counter held in the two low bits of [n]: the decoder of a word
    that packs a counter with other state (a {!Pht} entry). *)
