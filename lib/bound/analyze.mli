(** Abstract interpretation of a lowered image into sound penalty-cycle
    bounds.

    For one branch architecture, walk the image's branch sites
    ({!Ba_conflict.Site.extract} — exact per-site outcome counts, static
    RAS call-chain bound) and price each site with the architecture's
    abstract transfer function:

    - {b static rules}: the prediction is a pure function of the address
      map ({!Ba_predict.Static_rule.predict_taken}), so conditional costs
      are exact;
    - {b direct-indexed PHT}: sites aliasing one counter (the same
      {!Ba_predict.Pht.direct_index}) are pooled and their joint outcome
      batches run through the 2-bit-counter interval domain
      ({!Domain.Counter});
    - {b dynamic-history table} (gshare): no static grouping
      is sound, so conditionals get the vacuous [\[mf*taken, mp*weight\]]
      interval plus one whole-layout guaranteed first mispredict;
    - {b BTB}: best/worst-case aliasing from
      {!Ba_conflict.Analyze.of_summary}'s conflict map — conflict-free
      sets can never evict, so repeat transfers hit; every site's first
      taken execution is a guaranteed miss;
    - {b RAS} (all architectures): when the static call-chain bound fits
      the stack, every pop matches its push — non-main returns are exactly
      free and main's halting return exactly mispredicts.

    The analysis never runs the trace: it is pure arithmetic over the
    address map and the profile, deterministic by construction.  Its
    soundness contract — [total.lo <= Bep.bep <= total.hi] for the
    simulator run on the same profile's trace — is enforced by
    [test/test_bound.ml] over the whole workload x algorithm x
    architecture matrix and on random programs. *)

type row = {
  proc : Ba_ir.Term.proc_id;
  block : Ba_ir.Term.block_id;  (** representative semantic site *)
  pc : int;  (** absolute address of the (first pooled) branch *)
  pooled : int;  (** sites sharing this predictor entry (1 = alone) *)
  weight : int;  (** executions priced by this row *)
  what : string;  (** cond | cond-pool | jump | jump-cont | switch | call | vcall | ret *)
  penalty : Domain.interval;
}

type t = {
  arch : Ba_sim.Bep.arch;
  rows : row list;  (** in (procedure, pc) order *)
  extra_lo : int;
      (** whole-layout lower-bound supplement not attributable to one row
          (the dynamic-table first-taken mispredict) *)
  total : Domain.interval;
}

val analyze :
  arch:Ba_sim.Bep.arch -> profile:Ba_cfg.Profile.t -> Ba_layout.Image.t -> t
(** Prices with the simulators' penalties ({!Ba_sim.Bep.penalties}) and
    their return stack ({!Ba_sim.Bep.return_stack_depth}).  For
    [Static_likely], the likely bits must have been built from this same
    image ({!Ba_sim.Bep.arch_of}), as the harness does. *)

val bounds :
  arch:Ba_sim.Bep.arch ->
  profile:Ba_cfg.Profile.t ->
  Ba_layout.Image.t ->
  Domain.interval
(** Just the whole-layout interval of {!analyze}. *)
