(** The Alpha AXP 21064's conditional-branch predictor (paper §6.1).

    Each instruction in the on-chip cache carries a single history bit
    recording the branch's last direction.  When a cache line is (re)filled,
    the bits reset to a static BT/FNT prediction taken from the sign of each
    branch's displacement.  The paper describes the resulting behaviour as
    "a cross between a direct-mapped PHT table and a BT/FNT architecture";
    this module models exactly that: a direct-mapped line store where
    evictions fall back to BT/FNT.

    The 21064's 8 KB instruction cache has 32-byte lines; with 4-byte
    instructions that is 8 instructions per line and 256 lines.

    The line tags are one int array and the history bits one byte per
    instruction slot, line-major, so {!access} computes a branch's line,
    tag and slot once and reads and writes flat arrays. *)

type t

val create : ?lines:int -> ?insns_per_line:int -> unit -> t
(** Defaults: 256 lines of 8 instructions. *)

val access : t -> pc:int -> taken_target:int -> taken:bool -> bool
(** The direction predicted for the conditional at [pc], read {e before}
    recording its resolved direction [taken]: [pc]'s history bit, or, if
    its line was evicted (or never seen) or the bit not yet written since
    the fill, BT/FNT on [taken_target].  Then [taken] is recorded in the
    bit, (re)filling the line if needed.  Raises [Invalid_argument] on a
    negative [pc]. *)

(** {1 Pure indexing}

    Address-to-line functions, factored out so static conflict analysis
    ({!Ba_conflict}) evaluates exactly the mapping the simulator uses. *)

val line_no_of : insns_per_line:int -> pc:int -> int
(** Cache line number (also the line's tag) of an instruction address. *)

val slot_of : insns_per_line:int -> pc:int -> int
(** History-bit slot of [pc] within its line. *)

val line_index : lines:int -> line_no:int -> int
(** Which stored line a line number maps to ([lines] is a power of two);
    distinct line numbers with equal indices evict each other's bits. *)

val flush_obs : t -> unit
(** Flush the cold-bit and refill tallies accumulated since the last flush
    to the [predict.alpha.*] counters. *)
