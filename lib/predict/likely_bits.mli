(** Profile-derived LIKELY hint bits.

    The LIKELY architecture encodes each conditional branch's probable
    direction in the instruction; compilers set it from profile feedback.
    This module computes the hint for every conditional branch {e
    instruction} of a code image: the branch at address [pc] is hinted taken
    iff the profile-majority semantic outcome corresponds to "taken" under
    that image's layout (a layout that flips a branch's sense flips its
    hint, exactly as re-running the compiler on the transformed code
    would). *)

type t

val build : Ba_layout.Image.t -> Ba_cfg.Profile.t -> t
(** The hints are stored densely, one slot per address of the image
    ([Image.total_size] slots), so {!hint} is an array read. *)

val hint : t -> int -> bool
(** [hint t pc] is the likely-taken bit of the conditional at [pc].  Raises
    [Invalid_argument] for an address that is not a conditional branch,
    including any address outside the image. *)

val count : t -> int
