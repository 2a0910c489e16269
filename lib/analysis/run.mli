(** Threading all checkers over one profiled program and one aligner.

    [check_pipeline] drives the same pipeline the tool itself runs —
    align every procedure, lower, assign addresses — and lints every
    intermediate product: the IR (stage 1), the collected profile
    (stage 2), each procedure's layout decision (stage 3), each lowered
    procedure (stage 4) and the final code image (stage 5).  Later stages
    are skipped when an earlier stage reports errors (aligning an invalid
    program, or lowering a non-permutation, would crash rather than
    lint). *)

type stage = Ir | Profile | Decision | Linear | Image | Conflict | Audit | Bound
(** [Conflict], [Audit] and [Bound] are extension stages: {!check_pipeline}
    cannot run them itself (the conflict analyser, the alignment auditor
    and the bound checker live above this library), so
    [Ba_verify.Run.lint] appends their findings to {!report.stages} after
    the five built-in stages, on the report's {!report.image}. *)

val stage_name : stage -> string

val all_stages : stage list
(** Every stage in display order, extension stages last. *)

val core_stages : stage list
(** The five stages {!check_pipeline} runs itself. *)

type report = {
  stages : (stage * Diagnostic.t list) list;
      (** executed stages in pipeline order, with their findings *)
  decisions : Ba_layout.Decision.t array option;
      (** the aligner's layout; [None] when IR errors stopped the
          pipeline before alignment *)
  image : Ba_layout.Image.t option;
      (** the image stages 4 and 5 checked; [None] when they were
          skipped *)
}

val diagnostics : report -> Diagnostic.t list
(** All findings of all executed stages, in {!Diagnostic.sort} order. *)

val error_count : report -> int
val ran : report -> stage -> bool

val check_pipeline :
  profile:Ba_cfg.Profile.t ->
  align:(Ba_cfg.Profile.t -> Ba_layout.Decision.t array) ->
  Ba_ir.Program.t ->
  report
(** Run the full five-stage lint of [program] under [profile] (which must
    have been created for [program] — raises [Invalid_argument]
    otherwise).  [align] produces the layout under test, one decision per
    procedure ([Invalid_argument] otherwise); it is called once, and only
    when the IR is clean.  Lowering skips stages 4 and 5 when stage 3
    finds an error, and takes the profile-guided jump-leg choice of
    {!Ba_layout.Image.build}. *)
