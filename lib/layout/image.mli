(** Whole-program code images.

    An image is the program with one linear layout per procedure and
    absolute addresses assigned (procedures are placed in program order —
    the paper reorders blocks within procedures only).  Addresses count
    instructions; procedure [p]'s code starts at [bases.(p)]. *)

type t = {
  program : Ba_ir.Program.t;
  linears : Linear.t array;
  bases : int array;
  total_size : int;
}

val build :
  ?profile:Ba_cfg.Profile.t ->
  ?pads:int array ->
  Ba_ir.Program.t ->
  Decision.t array ->
  t
(** [build program decisions] lowers every procedure and assigns addresses.
    [profile], when given, supplies the conditional counts used by
    {!Lower.lower} for neither-adjacent conditionals.  [pads], when given,
    inserts that many unused instruction slots {e before} each procedure
    (conflict-aware placement shifts procedures to steer predictor
    indices; the gap is never fetched, so execution is unchanged).  Raises
    [Invalid_argument] if the decision or pad array length does not match,
    any pad is negative, or any decision is invalid. *)

type interproc = {
  image : t;
  proc_order : int array;
      (** placement order of the procedures' hot regions (a permutation of
          proc ids; [bases] stays indexed by proc id as always) *)
  splits : int array;
      (** per-procedure first cold layout position; the procedure's block
          count when nothing was split *)
  hot_size : int;
      (** address where the trailing cold section begins (pads included) *)
}

val build_interproc :
  ?pads:int array ->
  profile:Ba_cfg.Profile.t ->
  Ba_ir.Program.t ->
  Decision.t array ->
  interproc
(** Inter-procedural layout (Codestitcher-style): procedures are chained
    along their heaviest call edges so hot callees land right after their
    hot callers (the entry procedure first), and each procedure's all-cold
    layout suffix — blocks the profile never visited — is moved to one
    trailing cold section.

    Decisions are untouched: every procedure keeps its block permutation,
    so lowering, per-procedure costs and the bisimulation witness are the
    same as {!build}'s.  Only address assignment changes, and addresses
    remain strictly increasing with layout position inside each procedure
    (the cold suffix sits above every hot region), so positional
    taken-branch direction and address direction still agree.  A cold
    suffix is only split off after a block that does not fall through
    ({!Linear.falls_through}), keeping the address map honest about
    reachability; the splitter shrinks the suffix until that holds.

    [pads], as in {!build}, inserts unused slots before each procedure's
    hot region (in placement order) — the same mechanism conflict-aware
    placement uses.  Raises [Invalid_argument] on the same conditions as
    {!build}. *)

val original : ?profile:Ba_cfg.Profile.t -> Ba_ir.Program.t -> t
(** The identity layout of every procedure — the "Orig" rows of the paper's
    tables. *)

val entry_addr : t -> Ba_ir.Term.proc_id -> int

val block_addr : t -> Ba_ir.Term.proc_id -> Ba_ir.Term.block_id -> int
(** Address of a semantic block in the image. *)

val lblock : t -> Ba_ir.Term.proc_id -> int -> Linear.lblock
(** Layout block by (procedure, layout position). *)

val validate : t -> (unit, string) result
