(** Per-workload evaluation harness.

    For one workload this runs the paper's full §5-§6 methodology:

    + execute the original layout once to collect the edge profile;
    + re-execute the original layout, feeding all seven branch
      architectures (three static, two PHTs, two BTBs) and the trace
      statistics;
    + align with Greedy (architecture-oblivious) and re-execute likewise;
    + align with Try15 once per architectural cost model (FALLTHROUGH,
      BT/FNT, LIKELY, PHT, BTB) and execute each against its architectures;
    + for Figure 4, run the Alpha 21064 timing model over the original,
      Greedy and BTB-aligned Try15 images.

    All relative-CPI numbers are against the original program's instruction
    count, as in the paper. *)

type arch_cpis = {
  fallthrough : float;
  btfnt : float;
  likely : float;
  pht_direct : float;
  gshare : float;
  btb64 : float;
  btb256 : float;
}

val full_archs : Ba_sim.Bep.config list
(** The seven simulated branch architectures of Tables 3/4, in column
    order.  [`Likely] stands for profile-guided hint bits, which must be
    rebuilt per image ({!Ba_sim.Bep.arch_of}); the placement table reuses
    this list so its columns match. *)

val simulate_archs : Ba_sim.Bep.config list
(** The six architectures [branch_align simulate] and [run] and the serve
    [simulate] kind report, in row order: LIKELY, FALLTHROUGH, BT/FNT, the
    two PHTs and the 256-entry BTB. *)

type outcome = {
  result : Ba_exec.Engine.result;
      (** what a replay of the trace through the image reports *)
  rows : (Ba_sim.Bep.config * Ba_sim.Bep.counts) array;
      (** each configuration's books, in the order given *)
  pct_ft : float;
      (** share of the image's executed conditional branches that fell
          through (the paper's "% of Fall-Through Conditional Branches"),
          in closed form whatever [archs] holds *)
  stats : Ba_exec.Trace_stats.t option;
      (** the replay's trace statistics; [None] when every configuration
          was static and nothing was replayed *)
}

val run_image :
  profile:Ba_cfg.Profile.t ->
  trace:Ba_trace.Trace.t ->
  archs:Ba_sim.Bep.config list ->
  Ba_layout.Image.t ->
  outcome
(** Score one image on every configuration of [archs].  Applying
    [~profile ~trace] walks [trace] once ({!Ba_delta.Stream.walk} over
    [profile]'s program, the program [trace] was recorded from); apply
    them once and the walk serves every image scored after.  The static
    configurations (FALLTHROUGH, BT/FNT, LIKELY) are priced in closed form
    over the walk's counts ({!Ba_delta.Eval.static_books}), with LIKELY
    hint bits built from [profile] and the image itself (re-annotating the
    rewritten binary); only the dynamic ones (PHTs, BTBs) replay [trace],
    one {!Ba_sim.Runner.simulate} driving just their simulators.  Every
    field equals what {!Ba_sim.Runner.simulate} on all of [archs] reports:
    the static wall and the delta wall hold it so. *)

val cpi : outcome -> orig_insns:int -> int -> float
(** [cpi outcome ~orig_insns i]: relative CPI of the [i]th architecture
    of [outcome] against the original program's instruction count. *)

type eval = {
  workload : Ba_workloads.Spec.t;
  orig_insns : int;
  stats : Ba_exec.Trace_stats.summary;  (** Table 2 row, original layout *)
  orig : arch_cpis;  (** Table 3/4 "Orig" columns *)
  greedy : arch_cpis;  (** Table 3/4 "Greedy" columns *)
  exttsp : arch_cpis;
      (** Table 3/4 "ExtTsp" columns: extended-TSP chain merging
          ({!Ba_core.Exttsp}); architecture-oblivious, so one image feeds
          all seven architectures, as Greedy's does *)
  try15 : arch_cpis;
      (** Table 3/4 "Try15" columns; each architecture's figure comes from
          the image aligned with that architecture's cost model *)
  anneal : arch_cpis;
      (** Table 3/4 "Anneal" columns: the seeded simulated-annealing
          search ({!Ba_delta.Anneal}, seed 0), aligned per cost model
          like Try15 *)
  pct_ft_orig : float;  (** fall-through conditional percentage, original *)
  pct_ft_greedy : float;
  pct_ft_try15_ft : float;  (** after Try15 under the FALLTHROUGH model *)
  pct_ft_try15_btfnt : float;
  pct_ft_try15_likely : float;
  alpha : (float * float * float) option;
      (** Figure 4: (orig, greedy, try15-BTB) relative execution times on
          the 21064 model; computed for the SPEC C programs *)
}

val evaluate : ?max_steps:int -> Ba_workloads.Spec.t -> eval
(** [max_steps] defaults to {!Ba_workloads.Spec.default_max_steps}.  The
    workload's profile {e and} semantic trace come from the process-wide
    {!Ba_workloads.Profiled} memo, so the interpreter runs only once per
    workload per budget; the trace is walked once, and every image
    (original included) is then scored by {!run_image}.  Of its 14
    images, only the 7 scored on a dynamic predictor (original, Greedy
    and ExtTsp on all seven; Try15 and Anneal under PHT and BTB) replay
    the trace; the static columns come from the closed form. *)

val evaluate_suite :
  ?max_steps:int -> ?jobs:int -> Ba_workloads.Spec.t list -> eval list
(** Evaluate the workloads on a {!Ba_par.Pool} of [jobs] domains (default
    {!Ba_par.Pool.default_jobs}, i.e. the [BA_JOBS] environment variable or
    the machine's domain count; [jobs = 1] forces the sequential path).
    Results are returned in workload order whatever the scheduling, so
    every rendered table is byte-identical to a sequential run. *)

val evaluate_suite_timed :
  ?max_steps:int ->
  ?jobs:int ->
  Ba_workloads.Spec.t list ->
  eval list * Ba_par.Stats.t
(** {!evaluate_suite} plus per-workload wall times. *)

val by_class :
  ('a -> Ba_workloads.Spec.t) -> 'a list -> (string * 'a list) list
(** Group report rows by their workload's class (FP, INT, Other, with the
    paper's group labels), preserving order and dropping empty groups. *)
