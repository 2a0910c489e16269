(** Simulator-exact incremental candidate pricing.

    One {!Stream.build} pass over the recorded trace makes every later
    candidate evaluation a function of the candidate's geometry alone.
    {!cost} then returns, per requested architecture, {e exactly} the
    integer penalty cycles {!Ba_sim.Runner.simulate} would report for a
    full replay of the trace on that layout ([Bep.bep]) — the differential
    wall in [test_delta.ml] enforces bit equality.

    Static rules are priced by closed form over per-site counts; table and
    adaptive predictors replay only the conditional-direction substream,
    with cached / entry-scoped fast paths when the move left predictor
    inputs unchanged; the BTB synthesises the exact event stream into a
    real {!Ba_sim.Bep.t}.  {!stats} reports which paths ran. *)

type spec =
  | Fallthrough
  | Btfnt
  | Likely  (** hint bits rebuilt per candidate image, as the gap study does *)
  | Pht_direct of { entries : int }
  | Pht_gshare of { entries : int; history_bits : int }
  | Pht_global of { history_bits : int }
  | Pht_local of { history_bits : int; branch_entries : int }
  | Btb of { entries : int; assoc : int }

val spec_label : spec -> string

val spec_of_model : Ba_core.Cost_model.arch -> spec
(** Each cost-model architecture's canonical simulated configuration —
    the same mapping the optimality-gap study uses (direct PHT 4096, BTB
    256/4-way). *)

val to_arch :
  spec -> image:Ba_layout.Image.t -> profile:Ba_cfg.Profile.t -> Ba_sim.Bep.arch
(** The [Bep] architecture a full simulation of [image] would use — what
    the differential wall runs the reference side with. *)

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
  ?penalties:Ba_sim.Bep.penalties ->
  ?ras_depth:int ->
  ?scoped_max:int ->
  specs:spec array ->
  Ba_cfg.Profile.t ->
  Ba_trace.Trace.t ->
  Ba_layout.Decision.t array ->
  t
(** [create ~specs profile trace base] replays the trace once (shape only)
    and prices the base layout's conditional substreams so later
    candidates near [base] hit the cached paths.  Defaults: the paper's
    penalties (1/4), a 32-entry return stack, and entry-scoped direct-PHT
    replay for at most [scoped_max = 32] changed sites. *)

val specs : t -> spec array
val stats : t -> stats

val cost : t -> Ba_layout.Decision.t array -> int array
(** Exact penalty cycles of the candidate layout, per spec — bit-equal to
    [Bep.bep] after [Runner.simulate ~trace] on the candidate's image. *)

val cost_arch : t -> int -> Ba_layout.Decision.t array -> int
(** [cost] for the single spec at the given index. *)

val delta : t -> Ba_layout.Decision.t array -> Move.t -> int array
(** Per-spec cost change of applying the move: [cost after - cost before]. *)
