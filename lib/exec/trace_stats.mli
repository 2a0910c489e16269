(** Trace statistics — the measurements behind the paper's Table 2.

    Attach {!on_event} to an {!Engine.run}, then {!summarize}.  All
    percentages follow the paper's definitions: "% Breaks" is branch
    instructions (taken or not) as a share of all executed instructions;
    the break-kind columns split the executed breaks into conditional
    branches, indirect jumps (including virtual calls), unconditional
    branches, direct calls and returns; "Q-x" is the number of conditional
    branch {e sites} accounting for x% of executed conditional branches. *)

type t

val create : unit -> t

val on_event : t -> Event.t -> unit
(** Count one branch event.  Raises [Invalid_argument] on a conditional at
    a negative pc, which has no slot in the per-pc counts. *)

type summary = {
  insns : int;  (** instructions traced *)
  pct_breaks : float;
  q50 : int;
  q90 : int;
  q99 : int;
  q100 : int;  (** conditional sites executed at least once *)
  static_cond_sites : int;
  pct_taken : float;  (** taken share of executed conditional branches *)
  pct_cbr : float;
  pct_ij : float;
  pct_br : float;
  pct_call : float;
  pct_ret : float;
}

val summarize : t -> program:Ba_ir.Program.t -> insns:int -> summary

val pct_cond_fallthrough : t -> float
(** Share of executed conditional branches that fell through — the paper's
    "% of Fall-Through Conditional Branches" columns in Table 3. *)
