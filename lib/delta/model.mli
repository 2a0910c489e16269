(** Incremental static cost evaluation for one procedure.

    Holds a layout decision plus the cached per-position
    {!Ba_core.Layout_cost.site} values of its lowering, and re-prices a
    local move ({!Move.local}) by re-lowering only the affected window —
    O(1) positions instead of a full {!Ba_layout.Lower.lower} pass.

    Exactness contract: {!total} and {!preview} are bit-equal to
    {!Ba_core.Layout_cost.branch_cost} of the corresponding freshly
    lowered layout, and {!delta} equals the sum of the per-position
    differences over the move's window (positions outside the window are
    untouched bit-for-bit).  The move-algebra tests in [test_delta.ml]
    enforce both. *)

type t

val create :
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  visits:(Ba_ir.Term.block_id -> int) ->
  cond_counts:(Ba_ir.Term.block_id -> int * int) ->
  Ba_ir.Proc.t ->
  Ba_layout.Decision.t ->
  t
(** The decision is copied; the model never aliases the caller's arrays.
    Raises [Invalid_argument] on an invalid decision. *)

val n_positions : t -> int

val decision : t -> Ba_layout.Decision.t
(** The current (post-commit) decision, freshly allocated. *)

val total : t -> float
(** Exact branch cost of the current layout under the model's
    architecture — bit-equal to {!Ba_core.Layout_cost.branch_cost}. *)

val preview : t -> Move.local -> float
(** Branch cost of the layout after the move, without committing it.
    Raises [Invalid_argument] for a swap touching the pinned entry or
    falling outside the layout. *)

val delta : t -> Move.local -> float
(** Cost change of the move: the sum over the affected window of
    (new − old) per-position branch cycles.  Additive across moves with
    disjoint windows. *)

val commit : t -> Move.local -> unit
(** Apply the move to the model's layout. *)
