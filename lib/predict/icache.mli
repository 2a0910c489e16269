(** Instruction cache model.

    Branch alignment improves more than prediction: packing the hot path
    into consecutive addresses also improves instruction-cache locality
    (the Hwu & Chang / Pettis & Hansen motivation the paper builds on, and
    part of Figure 4's unattributed hardware gains).  This is a classic
    set-associative cache of instruction addresses with LRU replacement;
    the 21064 configuration is 8 KB direct-mapped with 32-byte lines
    (8 instructions per line at 4 bytes each).

    Addresses are in instruction units, matching {!Ba_layout.Image}. *)

type t

val create : ?lines:int -> ?insns_per_line:int -> ?assoc:int -> unit -> t
(** Defaults: 256 lines x 8 instructions, direct-mapped. *)

val touch_range : t -> addr:int -> size:int -> int
(** Mark the instructions [addr .. addr+size-1] as fetched; returns the
    number of line misses this incurs. *)

val misses : t -> int
val accesses : t -> int
(** Cumulative line accesses/misses since creation. *)

(** {1 Pure indexing}

    Address-to-line/set functions, factored out so static conflict analysis
    ({!Ba_conflict}) evaluates exactly the mapping the cache model uses. *)

val line_of : insns_per_line:int -> addr:int -> int
(** Cache line number of an instruction address. *)

val set_index : lines:int -> assoc:int -> line:int -> int
(** Set a line number maps to ([lines]/[assoc] power-of-two sets). *)

val flush_obs : t -> unit
(** Flush accesses and misses accumulated since the last flush to the
    [predict.icache.*] counters. *)
