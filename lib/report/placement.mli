(** The conflict-aware placement table.

    For each workload: align with the canonical Try15/BTB configuration,
    run {!Ba_conflict.Place.improve} over the aligned layout, and score
    both images against the seven branch-execution-penalty architectures
    of {!Harness.full_archs}.  The row reports penalty cycles with and
    without placement, plus the static conflict objective the placement
    actually optimised.

    Placement optimises a {e prediction}; the simulator is the judge.  A
    guard re-checks the real outcome: when the placed image's total
    penalty cycles exceed the baseline's, the row is marked not applied
    and {!row.effective} falls back to the baseline numbers — placement
    is never allowed to ship a regression. *)

type row = {
  workload : Ba_workloads.Spec.t;
  base : int array;  (** penalty cycles per architecture, aligned image *)
  placed : int array;  (** penalty cycles per architecture, after placement *)
  effective : int array;  (** [placed] when applied, else [base] *)
  applied : bool;  (** the never-worse guard kept the placed image *)
  before : int;  (** static conflict objective, aligned image *)
  after : int;  (** static conflict objective, placed image *)
  swaps : int;
  pad_slots : int;  (** total padding instructions inserted *)
}

val arch_labels : string list
(** Column labels, in {!Harness.full_archs} order. *)

val penalties :
  max_steps:int ->
  profile:Ba_cfg.Profile.t ->
  trace:Ba_trace.Trace.t ->
  Ba_layout.Image.t ->
  int array
(** Penalty cycles of one image per {!Harness.full_archs} architecture
    (LIKELY bits rebuilt from the image itself); the inter-procedural
    report scores its images through the same helper so the columns
    match. *)

val evaluate : ?max_steps:int -> ?tryn:int -> Ba_workloads.Spec.t -> row

val evaluate_suite :
  ?max_steps:int ->
  ?tryn:int ->
  ?jobs:int ->
  Ba_workloads.Spec.t list ->
  row list
(** Deterministic parallel evaluation, as {!Harness.evaluate_suite}. *)

val render : row list -> string
(** Grouped ascii table (FP / INT / Other), one row per workload; each
    architecture cell shows [base>placed] penalty cycles. *)

val to_json : row list -> Ba_util.Json.t
