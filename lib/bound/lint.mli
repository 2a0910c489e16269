(** The [bound/*] lint rules, both Info severity (see DESIGN.md):

    - [bound/provably-suboptimal] — some other alignment algorithm's
      layout has a static {e upper} bound below this layout's static
      {e lower} bound under the cell's architecture: the layout is
      certified suboptimal without running a simulation.
    - [bound/gap-too-wide] — the layout's own interval is too wide to
      support conclusions (expected for dynamic-history predictors, whose
      static domain is nearly vacuous).

    Merged into [branch_align lint] as the [bound] extension stage. *)

val check :
  algo:Ba_delta.Algo.t ->
  arch:Ba_core.Cost_model.arch ->
  profile:Ba_cfg.Profile.t ->
  Ba_layout.Image.t ->
  Ba_analysis.Diagnostic.t list
(** [image] must be [algo]'s layout under [arch]; the rule compares it
    against the layouts of orig, greedy, cost and try15 (those that are
    not [algo]) rebuilt from the same profile.  Each layout is judged by
    its cost model's canonical simulated configuration
    ({!Ba_sim.Bep.of_model}). *)
