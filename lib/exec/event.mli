(** Branch trace events.

    The interpreter emits one event per executed branch {e instruction}
    (taken or not), mirroring what the paper's ATOM instrumentation
    recorded.  Straight-line instructions and pure fall-throughs produce no
    events. *)

type kind =
  | Cond of { mutable taken : bool; mutable taken_target : int }
      (** conditional branch; [taken] is the architectural direction under
          the current layout (not the semantic outcome), and [taken_target]
          is the branch's target address — known statically from the
          instruction encoding, and needed by BT/FNT-style predictors even
          when the branch falls through *)
  | Uncond  (** direct unconditional branch, including inserted jumps *)
  | Indirect_jump  (** switch / computed goto *)
  | Call  (** direct procedure call *)
  | Indirect_call
      (** virtual-dispatch call; grouped with indirect jumps in the paper's
          Table 2 statistics *)
  | Ret

type t = {
  mutable pc : int;  (** address of the branch instruction *)
  mutable target : int;  (** address execution actually continues at *)
  mutable kind : kind;
}
(** Fields are mutable so the flat replayer ({!Ba_trace.Replay}) can reuse
    one scratch event for the whole run instead of allocating per branch.
    The contract for every [on_event] consumer is therefore: read the
    fields, never retain the event (or its [Cond] payload) past the
    callback.  All in-repo consumers (Bep, Alpha, Trace_stats, Hotspots)
    copy what they need. *)

val is_taken : t -> bool
(** Did the instruction redirect fetch?  [true] for everything except a
    not-taken conditional. *)

val fallthrough_addr : t -> int
(** The address following the branch instruction — where a not-taken
    prediction resumes, and the return address pushed by calls. *)

val pp : Format.formatter -> t -> unit
