(** Proving one workload's layout under one algorithm.

    {!verify} escalates {!Ba_analysis.Run.check_pipeline} from linting to
    proving: it runs the five lint stages, then — decisions permitting —
    runs the three verification passes on the image those stages checked
    (or on its {!Ba_layout.Image.build_interproc} twin): the translation
    validator ({!Bisim}) per procedure, the cost certifier ({!Cost_cert})
    per architecture, and the optimality auditor ({!Audit}).
    Certification and audit run only when every procedure bisimulates —
    there is nothing meaningful to price otherwise.  {!lint} runs the
    same five stages and then the conflict, audit and bound extension
    stages on the same image. *)

type t = {
  lint : Ba_analysis.Diagnostic.t list;
      (** findings of the lint stages run before the proof (none for
          {!verify_image}) *)
  bisim : Ba_analysis.Diagnostic.t list;
      (** translation-validation findings, all procedures, plus the
          address-map findings of an image no lint stage checked *)
  certificates : Certificate.t list;
      (** one per architecture, in {!Ba_core.Cost_model.all_arches}
          order *)
  cert_diags : Ba_analysis.Diagnostic.t list;
      (** cost-certification cross-check failures *)
  audit : Ba_analysis.Diagnostic.t list;  (** improvable-layout findings *)
  verified : bool;
      (** every procedure bisimulates, the address map of an image no lint
          stage checked is sound, and every certificate cross-checked;
          every surface reads this verdict rather than deriving its own *)
}

val diagnostics : t -> Ba_analysis.Diagnostic.t list
(** Lint, bisimulation, certification and audit findings, sorted. *)

val error_count : t -> int

val verify_image :
  workload:string -> algo:string -> profile:Ba_cfg.Profile.t -> Ba_layout.Image.t -> t
(** The proof of an image no lint stage checked (a placed or stitched
    image): its whole-image address map ({!Ba_analysis.Check_image}),
    bisimulation, and certification on every architecture; no audit. *)

val verify :
  ?pool:Ba_par.Pool.t ->
  ?audit:bool ->
  ?interproc:bool ->
  ?trace:Ba_trace.Trace.t ->
  arch:Ba_core.Cost_model.arch ->
  profile:Ba_cfg.Profile.t ->
  Ba_delta.Algo.t ->
  t
(** Lint stages 1-5 over the profile's program aligned by the algorithm
    under [arch], then prove the image stage 5 checked.  All five
    architectures are certified, in parallel on [pool] when given
    (certificates keep {!Ba_core.Cost_model.all_arches} order, and
    therefore their digests, either way); [pool] also runs the anneal
    search.  [audit] (default true) runs the audit under [arch]; [trace]
    (recorded for this profile's run) upgrades its findings with
    simulator-exact cycle figures via {!Ba_delta.Eval}.  [interproc]
    (default false) proves the {!Ba_layout.Image.build_interproc} image of
    the same decisions instead — stitched and hot/cold-split addresses —
    and checks its address map.  Verification is skipped (with
    [verified = false]) when the IR or the decisions have lint errors:
    there is no lowered code to prove. *)

val lint :
  trace:Ba_trace.Trace.t ->
  arch:Ba_core.Cost_model.arch ->
  profile:Ba_cfg.Profile.t ->
  Ba_delta.Algo.t ->
  Ba_analysis.Run.report
(** Lint stages 1-5 as in {!verify}, then — when they report no error —
    the extension stages on the image stage 5 checked: the conflict lint
    ({!Ba_conflict.Lint}), the optimality audit under [arch] and the
    bound lint ({!Ba_bound.Lint}).  [trace] (recorded for this profile's
    run) gives the audit's findings the simulator-exact figures
    {!verify} quotes for the same layout.  What [branch_align lint]
    prints. *)

val verify_pipeline :
  arch:Ba_core.Cost_model.arch ->
  max_steps:int ->
  profile:Ba_cfg.Profile.t ->
  trace:Ba_trace.Trace.t ->
  audit:bool ->
  algo:Ba_core.Align.algo ->
  Ba_ir.Program.t ->
  t
(** [verify ~audit ~trace ~arch ~profile (Core algo)], in the shape the
    benchmark's traced copy of the serve handler
    ([perfbench/replica.ml]) calls; no production code calls it.
    [max_steps] is ignored (the profile and the trace fix the run) and
    the program must be the profile's ([Invalid_argument] otherwise). *)
