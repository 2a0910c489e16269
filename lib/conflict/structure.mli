(** The predictor structures the static conflict analysis reasons about.

    Each constructor names one hardware structure from the paper's
    architecture space together with its geometry.  The analysis evaluates
    the structure's {e pure} indexing function (exported by [Ba_predict]
    precisely so simulation and analysis cannot drift apart) over the
    static address map of a code image, and reports which entries end up
    shared by hot branch sites.

    The default geometries are scaled to the workload suite's code
    footprints (hundreds of instructions, not megabytes), the same scaling
    {!Ba_sim.Alpha.default_config} applies to its instruction cache: a
    4096-entry PHT over an 800-instruction program would never collide and
    the analysis would be vacuous. *)

type t =
  | Pht_direct of { entries : int }
      (** direct-mapped pattern history table; index = low pc bits *)
  | Pht_gshare of { entries : int; history_bits : int }
      (** gshare PHT.  The branch history register is dynamic, so the
          static analysis projects it to zero — a heuristic view (history
          zero re-occurs whenever the recent outcomes were all not-taken),
          not a bound.  Reports for this structure are advisory. *)
  | Two_level_local of { branch_entries : int }
      (** per-branch history table of Yeh & Patt's local scheme; branches
          sharing a history register interleave their outcome streams.
          The paper discusses this scheme (§3) but does not simulate it,
          and no simulator here models it: the report is static only,
          with no simulated figure to check it against. *)
  | Btb of { entries : int; assoc : int }
      (** branch target buffer; an entry is allocated per taken branch *)
  | Ras of { depth : int }
      (** return-address stack; the suites use the simulated machine's
          depth ({!Ba_sim.Bep.return_stack_depth}) *)
  | Icache of { lines : int; insns_per_line : int; assoc : int }
      (** instruction cache over fetched address ranges *)
  | Alpha of { lines : int; insns_per_line : int }
      (** the 21064's per-instruction history bits: direct-mapped lines
          whose refill discards every resident branch's history *)

val name : t -> string
(** Stable slug, e.g. ["pht-direct-256"]; used in reports, JSON and golden
    files. *)

val default_suite : t list
(** The seven structures the [analyze] subcommand reports on. *)

val placement_suite : t list
(** The address-sensitive subset driving conflict-aware placement: the RAS
    is layout-invariant and the gshare projection duplicates the direct
    PHT under zero history, so both are excluded from the placement
    objective. *)
