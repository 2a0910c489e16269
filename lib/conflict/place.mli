(** Conflict-aware placement.

    A post-pass over an aligned layout that reduces the {e predicted}
    predictor interference ({!Analyze.objective}) without giving up the
    alignment's own wins.  Two mechanisms, applied in order:

    + {b block-order perturbation} — adjacent layout swaps
      ({!Ba_layout.Decision.swap_positions}), accepted only when the
      procedure's exact {!Ba_core.Layout_cost.branch_cost} under the
      alignment's cost model does not increase {e and} the global conflict
      objective strictly decreases;
    + {b inter-procedure padding} — unused instruction slots inserted
      before procedures ({!Ba_layout.Image.build}'s [pads]) to steer
      branch addresses away from shared predictor indices.  Padding never
      moves code relative to its procedure, so execution semantics, the
      bisimulation argument and per-procedure costs are untouched.

    Both searches are greedy, first-improvement, in fixed (procedure,
    position / pad) order — deterministic by construction. *)

type result = {
  image : Ba_layout.Image.t;  (** final image, pads applied *)
  decisions : Ba_layout.Decision.t array;
  pads : int array;
  before : int;  (** conflict objective of the input layout *)
  after : int;  (** conflict objective of [image]; [after <= before] *)
  swaps : int;  (** accepted block-order perturbations *)
}

val improve :
  ?suite:Structure.t list ->
  ?arch:Ba_core.Cost_model.arch ->
  ?interproc:bool ->
  profile:Ba_cfg.Profile.t ->
  Ba_ir.Program.t ->
  Ba_layout.Decision.t array ->
  result
(** [improve ~profile program decisions] runs both mechanisms under the
    ["place"] span.  [suite] defaults to {!Structure.placement_suite},
    [arch] (the swap guard's cost model) to [Btfnt]; pads run from 0 to
    32 slots per procedure.
    The result never has a larger objective than the input: every step
    requires strict improvement, and zero pads with zero swaps reproduce
    the input image.

    The swap guard is priced incrementally with {!Ba_delta.Model}, bit-equal
    to re-lowering the whole procedure per candidate.

    [interproc] (default [false]) composes placement with the stitched
    layout: every image — the objective baseline, each swap candidate's,
    each pad candidate's and the final result — is built with
    {!Ba_layout.Image.build_interproc}, so the pads steer the hot regions
    of the stitched order (the cold section and later procedures shift
    with them, and the pad sweep prices each candidate exactly by
    rebuilding rather than through the base-shift shortcut, which is
    unsound for split procedures). *)
