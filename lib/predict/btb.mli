(** Branch target buffers (paper §3).

    A set-associative cache of {e taken} branches: each entry stores the
    branch address (tag), its most recent taken target, and a 2-bit counter
    used to predict the direction of conditional branches.  Lookups that
    miss predict the fall-through path.  Replacement is LRU within a set.

    The paper simulates a 64-entry 2-way and a 256-entry 4-way BTB (the
    latter the Pentium's configuration).

    The entries live in four parallel int arrays (tag, target, counter, LRU
    stamp), one slot per way at [set * assoc + way], and the set mask is
    fixed at {!create}: {!access} finds the way and, on a miss, the LRU
    victim in one scan of contiguous words. *)

type t

val create : entries:int -> assoc:int -> t
(** [entries] must be a positive multiple of [assoc], with a power-of-two
    set count. *)

val access : t -> pc:int -> taken:bool -> target:int -> int
(** Look the branch at [pc] up and train on its resolved outcome, in one
    pass over its set.  Returns the answer the BTB gave {e before}
    training, packed into one int so the per-branch path allocates
    nothing: [-1] on a miss; on a hit, [(target lsl 1) lor b], where
    [target] (>= 0) is the stored target and [b] is 1 when the entry's
    counter predicted taken.  So [p < 0] is a miss, [p lsr 1] the target
    and [p land 1 = 1] the direction.

    Training: a hit updates the counter (and, when taken, the stored
    target) and makes the entry most recently used; a miss allocates an
    entry only when the branch was taken, evicting the set's LRU entry.
    Newly allocated entries start strongly taken.  Raises
    [Invalid_argument] on a negative [target], which the answer's
    encoding cannot carry. *)

val probe : t -> pc:int -> int
(** {!access}'s answer for [pc] without training: it touches neither the
    entries, the replacement state nor the books.  For tests that observe
    the buffer's contents. *)

(** {1 Pure indexing}

    Address-to-set/tag functions, factored out so static conflict analysis
    ({!Ba_conflict}) evaluates exactly the placement the simulator uses
    (the simulator applies the same mask, computed once per buffer).
    [entries]/[assoc] constraints are those of {!create}. *)

val set_index : entries:int -> assoc:int -> pc:int -> int
(** Set the branch at [pc] maps to: its address's low set bits. *)

val tag_of : pc:int -> int
(** Tag stored and compared for [pc]: the full branch address. *)

val occupancy : t -> int
(** Number of valid entries; alignment reduces this by making branches fall
    through (the paper's explanation of the small-BTB benefit). *)

val flush_obs : t -> unit
(** Flush the books accumulated since the last flush to the
    [predict.btb.*] / [predict.counter2.*] counters: one lookup and one
    hit or miss per {!access}, plus its allocations, evictions and
    saturated counter updates. *)
