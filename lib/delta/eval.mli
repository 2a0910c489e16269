(** Simulator-exact incremental candidate pricing.

    One {!Stream.build} pass over the recorded trace makes every later
    candidate evaluation a function of the candidate's geometry alone.
    {!cost} then returns, per requested configuration, {e exactly} the
    integer penalty cycles {!Ba_sim.Runner.simulate} would report for a
    full replay of the trace on that layout ([Bep.bep]) — the differential
    wall in [test_delta.ml] enforces bit equality.

    Configurations are {!Ba_sim.Bep.config}s: static rules are priced by
    closed form over per-site counts; the PHTs replay only the
    conditional-direction substream, with cached / entry-scoped fast paths
    when the move left predictor inputs unchanged; the BTB synthesises the
    exact event stream into a real {!Ba_sim.Bep.t}.  {!stats} reports which
    paths ran. *)

val spec_label : Ba_sim.Bep.config -> string
(** The penalty-model label the align listing prints: [fallthrough],
    [btfnt], [likely], [pht4096], [gshare4096/12], [btb256/4], ... *)

val spec_of_model : Ba_core.Cost_model.arch -> Ba_sim.Bep.config
(** {!Ba_sim.Bep.of_model}, under the name the benchmark's traced copy of
    the serve handler ([perfbench/replica.ml]) calls; no production code
    calls it. *)

type stats = {
  mutable closed_form : int;  (** static-rule closed-form evaluations *)
  mutable cond_cached : int;  (** table substream: cached base reused *)
  mutable cond_scoped : int;  (** table substream: entry-scoped dual replay *)
  mutable cond_replayed : int;  (** table substream: full replay *)
  mutable machine_runs : int;  (** BTB synthesised-event machine runs *)
  mutable ras_substreams : int;  (** call/return substream replays *)
}

type t

val create :
  specs:Ba_sim.Bep.config array ->
  Ba_cfg.Profile.t ->
  Ba_trace.Trace.t ->
  Ba_layout.Decision.t array ->
  t
(** [create ~specs profile trace base] replays the trace once (shape only)
    and prices the base layout's conditional substreams so later
    candidates near [base] hit the cached paths.  Prices with the
    machine's penalties and return stack ({!Ba_sim.Bep.penalties},
    {!Ba_sim.Bep.return_stack_depth}), as {!Ba_sim.Runner.simulate} does,
    and replays entry-scoped direct-PHT substreams for at most 32 changed
    sites.  Raises [Invalid_argument] on [`Arch (Static_likely _)]: fixed
    hint bits cannot follow a candidate's branch senses, so LIKELY is
    priced as [`Likely], its bits rebuilt per candidate. *)

val stats : t -> stats

val cost : t -> Ba_layout.Decision.t array -> int array
(** Exact penalty cycles of the candidate layout, per spec — bit-equal to
    [Bep.bep] after [Runner.simulate ~trace] on the candidate's image,
    with each configuration made an architecture by
    {!Ba_sim.Bep.arch_of}. *)

val cost_arch : t -> int -> Ba_layout.Decision.t array -> int
(** [cost] for the single spec at the given index. *)
