(** Branch execution penalty (BEP) simulation — the paper's §6 metric — and
    the one description of the machine it simulates.

    A [t] consumes the branch-event stream of one execution and charges each
    event misfetch/mispredict cycles according to one branch architecture:

    - {b static / PHT architectures}: unconditional branches, correctly
      predicted taken conditional branches and direct calls cost a misfetch;
      mispredicted conditionals, mispredicted returns and all indirect jumps
      cost a mispredict (§6);
    - {b BTB architectures}: taken branches that hit in the BTB are free;
      unconditional/call BTB misses cost a misfetch; wrong directions or
      targets cost a mispredict.

    The machine's facts are written here once: the four dynamic geometries,
    the penalties, the return-stack depth every architecture shares, and
    the configuration each cost model is judged on.  The simulators, the
    incremental pricer ({!Ba_delta.Eval}), the bound, the conflict
    analysis and the reports read them from this module. *)

type arch =
  | Static_fallthrough
  | Static_btfnt
  | Static_likely of Ba_predict.Likely_bits.t
  | Pht_direct of { entries : int }
  | Pht_gshare of { entries : int; history_bits : int }
  | Btb_arch of { entries : int; assoc : int }

val arch_label : arch -> string
(** The table label: [FALLTHROUGH], [BT/FNT], [LIKELY], [PHT-4096],
    [gshare-4096], [BTB-64/2], ... *)

val pht_direct : arch
(** The 4096-entry direct-mapped PHT (1 KB of 2-bit counters). *)

val gshare : arch
(** The 4096-entry gshare PHT with a 12-bit global history. *)

val btb64 : arch
(** The 64-entry 2-way BTB. *)

val btb256 : arch
(** The 256-entry 4-way BTB. *)

type config = [ `Arch of arch | `Likely ]
(** A configuration before it meets an image: [`Likely] stands for
    profile-guided hint bits, which follow the layout and so are built per
    image ({!arch_of}). *)

val config_label : config -> string
(** {!arch_label} of the configuration's architecture. *)

val arch_of :
  image:Ba_layout.Image.t -> profile:Ba_cfg.Profile.t -> config -> arch
(** The architecture simulating [image]: LIKELY's hint bits are built from
    the image and the profile ({!Ba_predict.Likely_bits.build}). *)

val of_model : Ba_core.Cost_model.arch -> config
(** The configuration that judges each cost model: the static rules for
    FALLTHROUGH, BT/FNT and LIKELY, {!pht_direct} for PHT and {!btb256}
    for BTB. *)

type penalties = { misfetch : int; mispredict : int }

val penalties : penalties
(** misfetch 1, mispredict 4 — the paper's simulation numbers, which
    every simulator charges. *)

val return_stack_depth : int
(** 32 — the return stack every architecture shares, {!Alpha}'s
    included. *)

type counts = {
  mutable misfetches : int;
  mutable mispredicts : int;
  mutable cond : int;
  mutable cond_taken : int;
  mutable cond_correct : int;
  mutable uncond : int;
  mutable calls : int;
  mutable indirect : int;
  mutable rets : int;
  mutable rets_correct : int;
}

val cycles : counts -> int
(** Penalty cycles of a set of books: misfetches and mispredicts at
    {!penalties}. *)

val accuracy : counts -> float
(** Fraction of the books' conditional branches predicted correctly. *)

type t

val create : ?return_stack_depth:int -> arch -> t
(** [return_stack_depth] defaults to {!return_stack_depth}. *)

val on_event : t -> Ba_exec.Event.t -> unit
val counts : t -> counts
(** The live books (mutated by {!on_event}); read them when the event
    stream is done. *)

val flush_obs : t -> unit
(** Add this simulator's contribution to the global [sim.bep.*] counters —
    the event loop itself never touches the metrics registry.  Call exactly
    once per simulation; {!Ba_sim.Runner.simulate} does. *)

val bep : t -> int
(** Total penalty cycles charged so far: {!cycles} of the live books. *)

val cond_accuracy : t -> float
(** Fraction of executed conditional branches predicted correctly. *)

val relative_cpi : t -> insns:int -> orig_insns:int -> float
(** The paper's metric: [(insns + bep) / orig_insns] — cycles per original
    instruction, so that layouts that add or remove jumps stay comparable. *)
