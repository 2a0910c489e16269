(** Simulated-annealing layout search ([--algo=anneal]).

    A seeded random walk over the local move vocabulary ({!Move}: adjacent
    swaps and forced jump legs), priced incrementally by {!Model} under
    one architectural cost model.  Deterministic by construction — an
    explicit splitmix64 stream per (seed, procedure), a fixed geometric
    cooling schedule, no global state — so results are byte-identical at
    any [-j].  The walk starts from the Greedy layout and returns the best
    layout seen, so it is never worse than Greedy under the model. *)

val default_sweeps : int

val align_proc :
  ?seed:int ->
  ?sweeps:int ->
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  Ba_cfg.Profile.t ->
  Ba_ir.Term.proc_id ->
  Ba_layout.Decision.t

val align_program :
  ?seed:int ->
  ?sweeps:int ->
  arch:Ba_core.Cost_model.arch ->
  ?table:Ba_core.Cost_model.table ->
  Ba_cfg.Profile.t ->
  Ba_layout.Decision.t array
