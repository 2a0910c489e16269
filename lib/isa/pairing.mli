(** Dual-issue pairing model for the 21064.

    The 21064 issues up to two instructions per cycle, but only when they
    use different pipes: one integer-pipe instruction (integer ops, loads,
    stores, branches) may pair with one floating-point instruction.  Two
    integer-pipe instructions never dual-issue.  Numeric code therefore
    approaches 0.5 cycles per instruction while pure integer code stays at
    1.0 — which is why the paper's FP programs have so little to gain from
    removing branch bubbles.

    Issue is modelled in order with no reordering: scan the instruction
    sequence and greedily pair adjacent instructions with compatible
    pipes.  Taken branches end an issue group. *)

val issue_cycles : Insn.t list -> int
(** Cycles to issue the sequence under greedy in-order pairing. *)

val block_cycles : Codegen.listing -> Ba_layout.Linear.lblock -> int
(** Issue cycles of one layout block's full instruction sequence
    (memoisable: depends only on the block's instructions). *)

val per_block_table : Codegen.listing -> (int, int) Hashtbl.t
(** Precomputed [block start address -> issue cycles] for every block of
    the listing, used by the timing model's per-visit accounting. *)

val prefix_table : Codegen.listing -> int array array
(** Indexed by address, one slot per address of the image: at a block's
    start address, [c] where [c.(k)] is the issue cycles of the block's
    first [k] instructions; [[||]] at every other address.  A visit that
    executes only part of a block (a not-taken conditional stops before an
    inserted jump, a taken one before nothing) costs [c.(fetched)].  Dense
    so the timing model's per-block lookup is an array read. *)
