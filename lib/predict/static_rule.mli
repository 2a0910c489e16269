(** The paper's three static conditional-branch prediction rules (§3).

    - {b FALLTHROUGH}: always predict the fall-through path.
    - {b BT/FNT}: backward taken, forward not taken — predict taken exactly
      when the branch target precedes the branch (HP PA-RISC, Alpha 21064
      default).
    - {b LIKELY}: a per-site hint bit encodes the profile-majority
      direction (Tera-style likely bits, set from profile feedback). *)

type t =
  | Fallthrough
  | Btfnt
  | Likely of (int -> bool)
      (** maps a conditional branch's pc to its likely-taken hint *)

val predict_taken : t -> pc:int -> taken_target:int -> bool
(** Would this rule predict "taken" for the conditional at [pc] whose taken
    target is [taken_target]?  (For BT/FNT the target address decides;
    a self-branch counts as backward.) *)
