(** Optimality audit: statically detect locally improvable layouts.

    A verified layout can still be a bad layout.  The auditor prices, under
    one architectural cost model, every member of a small neighbourhood of
    the given layout and reports each variant that lowers expected cost —
    evidence the aligner left cycles on the table.  Three move classes, one
    rule id each (all Info severity: a missed local improvement is a
    finding about quality, not correctness):

    - [audit/adjacent-swap] — exchanging two adjacent layout blocks
      (the entry block is never moved);
    - [audit/jump-leg-flip] — a neither-edge conditional routing the other
      leg through its inserted jump (the branch-sense flip);
    - [audit/jump-elision] — dropping a conditional's inserted jump and
      letting one leg fall through;
    - [audit/neither-edge] — the reverse: forcing the fall-then-jump
      lowering on a conditional currently aligned to one edge (the
      paper's §4 loop transformation).

    Every finding quantifies its saving in expected cycles; each variant
    is priced with {!Ba_delta.Model}, bit-equal to re-lowering and pricing
    it with {!Ba_core.Layout_cost}, so the deltas are achievable, not
    estimates.  When a simulation oracle [sim] is given (decision ->
    penalty cycles of the whole-program layout with this procedure's
    decision replaced — see {!Ba_delta.Eval}), each finding also reports
    the simulator-exact cycle change of its move. *)

val canonical_decision : Ba_layout.Linear.t -> Ba_layout.Decision.t
(** The decision whose lowering reproduces the given linear code: the
    source permutation, with every inserted-jump conditional pinned to its
    current jump leg. *)

val check :
  ?sim:(Ba_layout.Decision.t -> int) ->
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  proc_id:Ba_ir.Term.proc_id ->
  Ba_layout.Linear.t ->
  Ba_analysis.Diagnostic.t list
(** Findings for every strictly improving move (saving more than 1e-6
    cycles), sorted.  The input must have passed {!Bisim.verify};
    behaviour on unverified code is unspecified. *)
