(** Extended-TSP block reordering (Newell & Pupyrev, "Improved Basic Block
    Reordering").

    Where the paper's Greedy/Cost/TryN maximise fall-throughs (possibly
    weighted by an architectural cost model), the extended-TSP objective
    also credits {e short} forward and backward jumps, decayed linearly
    with distance — a proxy for icache/fetch locality: a taken branch that
    lands a few lines away is far cheaper than one that crosses the cache.
    The algorithm is the modern chain-merging formulation: every block
    starts as its own chain, and the pair of chains whose concatenation
    gains the most objective is merged until no merge gains.

    Merges are priced {e incrementally} through {!Eval}, a
    [Ba_delta.Model]-style windowed evaluator: block sizes are
    layout-independent, so a chain's internal contributions never change
    when the chain moves — only the edges {e crossing} the two merged
    chains are re-priced.  {!Eval.scratch_total} recomputes every edge
    from first principles; the differential wall in [test_exttsp.ml]
    holds it bit-equal to the incrementally maintained {!Eval.total}
    after every merge.

    The objective is architecture-oblivious (like Greedy); [align_proc]
    still never loses to Greedy {e under the ExtTSP objective} — it scores
    Pettis-Hansen's layout too and keeps whichever is better (counted by
    the [core.exttsp.guard] metric).

    The objective uses the published constants: 1.0 per fall-through
    traversal, a peak of 0.1 per jump traversal decaying linearly to 0 at
    1024 instruction slots forward and 640 backward. *)

type edge = {
  src : Ba_ir.Term.block_id;
  dst : Ba_ir.Term.block_id;
  weight : float;  (** profile traversal count of the edge *)
}

val edges_of :
  Ba_cfg.Profile.t -> Ba_ir.Term.proc_id -> edge array
(** Every weighted layout-sensitive edge of the procedure, in a fixed
    deterministic order (blocks ascending, each terminator's successors in
    declaration order, switch targets deduplicated): jump edges, both
    conditional legs, switch cases, and call/vcall continuations. *)

val sizes_of : Ba_ir.Proc.t -> int array
(** Layout-independent block sizes: straight-line instructions plus one
    terminator slot.  (The real lowering sometimes emits a second branch
    instruction; the objective deliberately prices the permutation, not
    the lowering, so that chain contributions are position-invariant and
    merges can be evaluated incrementally.) *)

val score_order :
  sizes:int array -> edges:edge array -> Ba_ir.Term.block_id array -> float
(** From-scratch objective of a complete block order: the sum over [edges]
    (in array order) of each edge's contribution at its laid-out
    distance. *)

val score_decision :
  Ba_cfg.Profile.t -> Ba_ir.Term.proc_id -> Ba_layout.Decision.t -> float
(** {!score_order} of a decision's order, with edges and sizes derived
    from the profile. *)

(** The incremental chain evaluator. *)
module Eval : sig
  type t

  val create : Ba_cfg.Profile.t -> Ba_ir.Term.proc_id -> t
  (** Every block in its own chain; only self-loop edges score. *)

  val n_chains : t -> int

  val chains : t -> Ba_ir.Term.block_id array list
  (** Live chains, ascending by chain id (deterministic). *)

  val total : t -> float
  (** Objective of the current chain set — cached per-edge contributions
      summed in edge order.  Edges between different chains contribute 0
      (unmerged chains are notionally far apart). *)

  val scratch_total : t -> float
  (** The same figure recomputed from first principles: every edge
      re-priced from the current chain assignment and offsets, summed in
      the same edge order.  Bit-equal to {!total} by construction; the
      differential wall enforces it. *)

  val best_merge : t -> (int * int * float) option
  (** [(a, b, gain)] with the strictly largest positive gain among all
      pairs of edge-connected live chains, appending [b] after [a]; ties
      broken by the smaller [(a, b)].  The entry chain is never appended
      ([b] is never the entry's chain), keeping the entry block a chain
      head.  [None] when no merge gains. *)

  val merge_gain : t -> int -> int -> float
  (** Objective gained by appending chain [b] after chain [a]: the sum of
      the cross-chain edges' contributions at the merged offsets. *)

  val merge : t -> int -> int -> unit
  (** Append chain [b] to chain [a], re-pricing only the edges that cross
      the two chains (the "window"); all other cached contributions are
      position-invariant and untouched. *)

  val order : t -> Ba_ir.Term.block_id array
  (** Concatenate the live chains: the entry chain first, the rest by
      execution density (visit weight per instruction slot) descending,
      ties by first block id. *)
end

val align_proc :
  ?strategy:Ba_layout.Chain_order.strategy ->
  Ba_cfg.Profile.t -> Ba_ir.Term.proc_id ->
  Ba_layout.Decision.t
(** Run the chain-merging algorithm, then score Pettis-Hansen's Greedy
    layout under the same objective and return whichever is better (the
    guard mirrors [Align]'s cost-model guard; [strategy] orders Greedy's
    chains as {!Ctx.to_decision} would). *)
