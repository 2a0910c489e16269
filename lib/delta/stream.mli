(** Layout-independent execution summaries.

    One replay-shaped walk over the recorded trace (driven on the
    program's identity layout, where global position = site id) yields
    per-site counts and, when asked, a per-step record stream.  Everything
    here is a function of the program and the semantic trace only — no
    candidate layout's addresses appear — so one walk serves every layout
    {!Eval} prices and every image {!Ba_report.Harness.run_image} scores.

    The counts alone price the static architectures in closed form; only
    the dynamic predictors (PHTs, BTBs) read the records. *)

(** Step tags.  [tag_plain] covers jumps, fall-throughs and
    terminator-free steps. *)

val tag_plain : int
val tag_cond_false : int
val tag_cond_true : int
val tag_switch : int
val tag_call : int
val tag_vcall : int
val tag_ret : int
val tag_halt : int

type counts = {
  program : Ba_ir.Program.t;
  pbase : int array;  (** first site of each procedure *)
  n_sites : int;
  site_proc : int array;
  site_block : int array;
  opcode : int array;  (** semantic terminator class per site (Flat codes) *)
  n_steps : int;
  completed : bool;  (** the recorded run halted before its budget *)
  n_exec : int array;  (** per site *)
  n_true : int array;  (** semantic [true] outcomes, per conditional site *)
  n_false : int array;
  n_rets_to : int array;  (** frames pushed at this call site and popped *)
  n_underflow : int;  (** returns executed with an empty frame stack *)
  ret_mispredicts : int;
      (** returns the machine's return stack
          ({!Ba_sim.Bep.return_stack_depth} deep) mispredicts; the same on
          every layout, since every return targets its call's fall-through
          pc and distinct call sites have distinct pcs *)
}

type records = {
  recs : int array;  (** [(site lsl 3) lor tag], per executed step *)
  choices : int array;  (** switch/vcall selected indices, in order *)
  ret_frames : int array;  (** per return: pushing call site, or [-1] *)
  cond_recs : int array;  (** [(site lsl 1) lor outcome], conditionals only *)
}

type t = { counts : counts; records : records }

val walk : Ba_ir.Program.t -> Ba_trace.Trace.t -> counts
(** Walks the trace once, mirroring {!Ba_trace.Replay.run}'s control flow
    exactly (budget, early halt, frame stack), and keeps only the per-site
    counts: it allocates nothing per step.  Raises [Failure] on a
    truncated trace, as the replayer would. *)

val build : Ba_ir.Program.t -> Ba_trace.Trace.t -> t
(** {!walk} plus the per-step records the dynamic predictors replay. *)
