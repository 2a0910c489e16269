(** Pattern history tables (paper §3, "Dynamic Branch Prediction Methods").

    Both variants store 2-bit saturating counters and predict conditional
    branch {e directions} only (they do nothing for misfetches):

    - {b direct-mapped}: indexed by the branch address;
    - {b gshare}: indexed by the branch address XORed with a global
      taken/not-taken history register — the variant McFarling found most
      accurate, used by the paper as its "correlation PHT".

    The paper's configuration is 4096 entries (1 KByte of 2-bit counters)
    and, for the correlation table, a 12-bit global history.

    Each entry is one int packing the counter with the last pc that
    trained it ([owner lsl 2 lor counter], owner [-1] until first
    trained); the owner only feeds the [predict.pht.alias] book.  Owners
    are exact for pcs below [2{^60}]. *)

type t

val create_direct : entries:int -> t
(** [entries] must be a power of two. *)

val create_gshare : entries:int -> history_bits:int -> t

val access : t -> pc:int -> taken:bool -> bool
(** The direction the table predicted for the conditional at [pc], read
    {e before} training on its resolved direction [taken]: one index
    computation per conditional, then the indexed counter is trained and
    (gshare) the outcome shifted into the global history.  Call once per
    executed conditional. *)

val predict : t -> pc:int -> bool
(** {!access}'s answer for [pc] without training: it touches neither the
    table, the history nor the books.  For tests that observe the table. *)

val entries : t -> int

(** {1 Pure indexing}

    The address-to-entry functions, factored out so static analysis
    ({!Ba_conflict}) evaluates exactly the hash the simulator uses.
    [entries] must be a power of two, as in {!create_direct}. *)

val direct_index : entries:int -> pc:int -> int
(** Entry the direct-mapped table consults for the conditional at [pc]. *)

val gshare_index : entries:int -> history:int -> pc:int -> int
(** Entry the gshare table consults for [pc] under a given global history
    register value.  The history is dynamic state; address-only analyses
    conventionally project it to 0. *)

val flush_obs : t -> unit
(** Flush the books accumulated since the last flush to the
    [predict.pht.*] / [predict.counter2.*] counters: one lookup per
    {!access}, a hit when its answer was right, an alias when it trained
    an entry last trained by another pc, and its saturated counter
    updates.  {!access} itself never touches the registry. *)
