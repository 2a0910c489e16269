(** The alignment algorithms, as every surface names them.

    {!Ba_core.Align.algo} holds the paper's deterministic algorithms.  The
    annealing search ({!Anneal}) prices its moves through this library's
    {!Model}, and this library depends on [ba_core], so [Align.algo]
    cannot name it.  [t] adds it once, here, and the command line, the
    serve handler and the experiment reports all parse, name, align and
    build images through this module. *)

type t = Core of Ba_core.Align.algo | Anneal

val of_name : string -> (t, string) result
(** [anneal], or any spelling {!Ba_core.Align.algo_of_name} accepts.
    Case-insensitive. *)

val name : t -> string
(** [anneal], or {!Ba_core.Align.algo_name}; {!of_name} reads every name
    back. *)

val decisions :
  ?pool:Ba_par.Pool.t ->
  ?seed:int ->
  ?sweeps:int ->
  t ->
  arch:Ba_core.Cost_model.arch ->
  Ba_cfg.Profile.t ->
  Ba_layout.Decision.t array
(** One layout decision per procedure.  [Core Original] is the identity
    layout; [Anneal] runs {!Anneal.align_proc} on every procedure with
    [seed] (default 0) and [sweeps] (default {!Anneal.default_sweeps}),
    on [pool] when given.  Each procedure draws from its own PRNG stream,
    so the result is the same with or without a pool. *)

val image :
  t -> arch:Ba_core.Cost_model.arch -> Ba_cfg.Profile.t -> Ba_layout.Image.t
(** Align every procedure and build the image.  [Core Original] is
    {!Ba_layout.Image.original}: no alignment runs, so no [align] span is
    opened. *)

(** {1 The align listing}

    What [branch_align align] prints and the serve [align] kind returns:
    per procedure the block order, the forced jump legs and the model
    cost; the program's total model cost; and the exact simulated penalty
    cycles of the layout under the cost model's canonical simulated
    configuration ({!Eval.spec_of_model}). *)

type proc_row = {
  pid : Ba_ir.Term.proc_id;
  proc_name : string;
  order : Ba_ir.Term.block_id array;
  forced : (Ba_ir.Term.block_id * Ba_layout.Decision.jump_leg) list;
      (** conditionals lowered to jump on the given leg, ascending *)
  cost : float;  (** {!Model.total} of the procedure's layout *)
}

type listing = {
  procs : proc_row list;
  total_cost : float;
  penalty_model : string;  (** {!Eval.spec_label} *)
  penalty_cycles : int;
}

val listing :
  arch:Ba_core.Cost_model.arch ->
  Ba_cfg.Profile.t ->
  Ba_trace.Trace.t ->
  Ba_layout.Decision.t array ->
  listing
