(** Execution-time model of the dual-issue Alpha AXP 21064 (paper §6.1,
    Figure 4).

    The 21064 predicts conditional branches with per-instruction history
    bits in the instruction cache, initialised to BT/FNT on line fill
    ({!Ba_predict.Alpha_bits}); its combined mispredict penalty is ten
    instruction slots and a misfetch loses two, and misfetch stalls are
    frequently squashed by other pipeline stalls (the paper estimates
    roughly 30%).  With dual issue, ten instruction slots are five cycles
    and two slots one cycle.

    Execution time here is [instructions / issue_width + penalty cycles];
    Figure 4 reports each aligned program's time relative to the original
    binary's. *)

type config = {
  lines : int;  (** predictor-bit lines (the on-chip icache's tag geometry) *)
  insns_per_line : int;
  return_stack_depth : int;
  issue_width : float;
  misfetch_cycles : float;
  mispredict_cycles : float;
  squash_rate : float;  (** fraction of misfetch stalls hidden by other stalls *)
  icache_lines : int;
      (** instruction-cache size for the locality model, scaled to the
          workload suite's footprints (see DESIGN.md) *)
  icache_miss_cycles : float;
}

val default_config : config
(** 256 x 8 predictor-bit lines, the machine's return stack
    ({!Bep.return_stack_depth}), dual issue, misfetch 1 cycle, mispredict 5
    cycles, 30% squash, 64-line icache at 8 cycles per miss. *)

type t

val create : ?config:config -> ?issue:int array array -> unit -> t
(** [issue], when given (a {!Ba_isa.Pairing.prefix_table} of the image being
    executed), switches the base cycle count from the ideal
    [instructions / issue_width] to the dual-issue pairing model.  It is
    indexed by address: [issue.(addr)] holds the prefix issue cycles of the
    block starting at [addr], and is empty where no block starts (an
    inserted jump's fetch, which issues alone).  Every address {!on_block}
    is fed must lie inside the image. *)

val on_event : t -> Ba_exec.Event.t -> unit

val on_block : t -> addr:int -> size:int -> unit
(** Feed one executed block's fetch range to the instruction-cache model
    (attach to {!Ba_exec.Engine.run}'s [on_block]). *)

val flush_obs : t -> unit
(** Flush the component predictors' batched [predict.*] metrics to the
    registry; {!Ba_sim.Runner.simulate_alpha} calls this once per run. *)

val cycles : t -> insns:int -> float
(** Modelled execution time in cycles for a run that executed [insns]
    instructions. *)

val misfetches : t -> int
val mispredicts : t -> int
