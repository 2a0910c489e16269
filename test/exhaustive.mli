(** Exhaustive optimal alignment for small procedures.

    §4: "We briefly considered using the cost model to assess the cost of
    every possible basic block alignment using an exhaustive search and
    selecting the minimal cost ordering.  In practice, this sounds
    expensive, but in the common case procedures contain 5-15 basic
    blocks."  This module is that search, used as an optimality reference:
    it enumerates every block permutation (entry fixed first) combined with
    every forced jump-leg choice for conditionals left without an adjacent
    successor, scoring each candidate with the {e exact} layout evaluator
    {!Ba_core.Layout_cost} — no direction guessing, no chain heuristics.

    The search visits (n-1)! permutations, so it is gated on procedure
    size; the tests use it to bound how far Try15 lands from optimal. *)

val max_blocks : int
(** Largest procedure size accepted (9: 40,320 permutations). *)

val align_proc :
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  Ba_cfg.Profile.t ->
  Ba_ir.Term.proc_id ->
  Ba_layout.Decision.t
(** The minimum-cost decision under the exact cost model.  Raises
    [Invalid_argument] if the procedure has more than {!max_blocks}
    blocks. *)

val optimal_cost :
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  Ba_cfg.Profile.t ->
  Ba_ir.Term.proc_id ->
  float
(** The branch cost of the optimal decision (convenience wrapper). *)
