(** The measured optimality-gap table ([experiments gap]).

    For each workload x cost-model architecture: the exact simulated
    penalty cycles of the Greedy, Cost, ExtTsp and Try15 layouts, and the
    {!Ba_core.Optimal} branch-and-bound result over the Try15 layout's k
    hottest chains — an exactly-priced optimum over the candidate set,
    reached while pruning most candidates on their {!Ba_bound} lower
    bounds alone.  The gap columns are each algorithm's distance from that
    optimum; [gap(try15)] is always [>= 0] because the identity reordering
    is itself a candidate.

    Every layout is priced over the workload's recorded trace, so the
    table is deterministic at any [-j].  Candidates are priced with
    {!Ba_delta.Eval} — bit-equal to a full replay of the trace, in
    O(affected sites) per candidate.  The [anneal] column is the seeded
    simulated-annealing search ({!Ba_delta.Anneal}, seed 0). *)

type cell = {
  model : Ba_core.Cost_model.arch;
  greedy : int;  (** penalty cycles, Greedy layout *)
  cost : int;
  exttsp : int;  (** penalty cycles, extended-TSP chain-merging layout *)
  tryn : int;
  anneal : int;  (** penalty cycles, simulated-annealing layout (seed 0) *)
  optimal : int;  (** Optimal-k best exactly-priced cost *)
  opt_lower : int;  (** that winner's own static lower bound *)
  candidates : int;
  simulated : int;
  pruned : int;
}

type row = { workload : Ba_workloads.Spec.t; cells : cell list }

val models : Ba_core.Cost_model.arch list
(** The five cost-model architectures, in harness column order. *)

val evaluate : ?max_steps:int -> ?k:int -> Ba_workloads.Spec.t -> row

val evaluate_suite :
  ?max_steps:int -> ?k:int -> ?jobs:int -> Ba_workloads.Spec.t list -> row list
(** Deterministic parallel evaluation, one task per workload. *)

val render : row list -> string
val to_json : row list -> Ba_util.Json.t
