(** Static cost certification.

    Recomputes a lowered procedure's expected branch cost from first
    principles — the profile counts and {!Ba_core.Cost_model} applied to
    the bisimulation witness, i.e. to {e how each CFG edge was realised} —
    and cross-checks the result, position by position, against the
    evaluator the experiments trust ({!Ba_core.Layout_cost}).  The two
    computations share no traversal code: the evaluator walks lowered
    terminators, the certifier prices witness realisations; agreement
    certifies both the evaluator and the layout's claimed cost.

    Rule ids: [cert/cost-mismatch] (error) when a position's recomputed
    cycles diverge from the evaluator beyond floating-point tolerance. *)

val recompute :
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  Ba_layout.Linear.t ->
  Bisim.witness ->
  float array
(** Expected branch cycles per layout position, computed from the witness
    and the profile alone. *)

val certify :
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  proc_id:Ba_ir.Term.proc_id ->
  Ba_layout.Linear.t ->
  Bisim.witness ->
  (float, Ba_analysis.Diagnostic.t list) result
(** [Ok total] when every position agrees within a relative 1e-9, with a
    1e-6 absolute floor; [Error] localises each
    divergent site. *)
