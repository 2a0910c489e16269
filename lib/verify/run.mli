(** Driving verification over one workload / algorithm pair.

    [verify_pipeline] escalates {!Ba_analysis.Run.check_pipeline} from
    linting to proving: it runs the same five lint stages over the same
    pipeline products (sharing the profile and the alignment run rather
    than recomputing them), then — decisions permitting — lowers, and on
    the lowered image runs the three verification passes: the
    translation validator ({!Bisim}) per procedure, the cost certifier
    ({!Cost_cert}) per architecture, and the optimality auditor
    ({!Audit}).  Certification and audit run only when every procedure
    bisimulates — there is nothing meaningful to price otherwise. *)

type t = {
  lint : Ba_analysis.Run.report;  (** the five Ba_analysis stages *)
  bisim : Ba_analysis.Diagnostic.t list;
      (** translation-validation findings, all procedures *)
  certificates : Certificate.t list;
      (** one per architecture, in {!Ba_core.Cost_model.all_arches}
          order *)
  cert_diags : Ba_analysis.Diagnostic.t list;
      (** cost-certification cross-check failures *)
  audit : Ba_analysis.Diagnostic.t list;  (** improvable-layout findings *)
  verified : bool;
      (** every procedure bisimulates and every certificate cross-checked *)
}

val diagnostics : t -> Ba_analysis.Diagnostic.t list
(** Lint, bisimulation, certification and audit findings, sorted. *)

val error_count : t -> int

val verify_image :
  ?pool:Ba_par.Pool.t ->
  ?audit_arch:Ba_core.Cost_model.arch ->
  ?audit:bool ->
  ?trace:Ba_trace.Trace.t ->
  workload:string ->
  algo:string ->
  profile:Ba_cfg.Profile.t ->
  Ba_layout.Image.t ->
  Ba_analysis.Diagnostic.t list
  * Certificate.t list
  * Ba_analysis.Diagnostic.t list
  * Ba_analysis.Diagnostic.t list
(** The verification passes alone — [(bisim, certificates, cert_diags,
    audit)] — over an already-built image, with the lint stages assumed
    done elsewhere.  Every architecture is certified; [audit_arch]
    defaults to BT/FNT.  [pool] certifies the architectures in parallel;
    certificates keep {!Ba_core.Cost_model.all_arches} order (and
    therefore their digests) either way.  [trace] (a semantic trace recorded for this
    profile's run) upgrades audit findings with simulator-exact cycle
    figures via {!Ba_delta.Eval}. *)

val verify_pipeline :
  ?pool:Ba_par.Pool.t ->
  ?arch:Ba_core.Cost_model.arch ->
  ?max_steps:int ->
  ?profile:Ba_cfg.Profile.t ->
  ?trace:Ba_trace.Trace.t ->
  ?audit:bool ->
  ?interproc:bool ->
  algo:Ba_core.Align.algo ->
  Ba_ir.Program.t ->
  t
(** Full run: lint stages 1-5 as {!Ba_analysis.Run.check_pipeline} would,
    then verify.  [arch] (default BT/FNT) selects the cost model the
    alignment and the audit run under; all five architectures are
    certified; [profile] replaces the profiling run as in the lint
    pipeline.  [interproc] (default false) builds the image
    with {!Ba_layout.Image.build_interproc} instead of
    {!Ba_layout.Image.build} — same decisions, stitched and hot/cold-split
    addresses — so the bisimulation, the cost certificates and the audit
    prove the cross-procedure layout.  Verification is skipped (with
    [verified = false]) when the IR or the decisions have lint errors —
    there is no lowered code to validate. *)
