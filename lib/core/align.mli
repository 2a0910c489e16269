(** Front end to the branch alignment algorithms.

    An algorithm maps a procedure plus its execution profile to a layout
    {!Ba_layout.Decision}; {!align_program} applies it to every procedure,
    giving the decision array {!Ba_layout.Image.build} consumes.

    [Original] is the identity transformation (the paper's "Orig" columns);
    [Greedy] is Pettis & Hansen's bottom-up algorithm; [Cost] and [Tryn]
    additionally take the architectural cost model into account.  [arch]
    selects that model and defaults to [Btfnt], matching the architecture
    Pettis & Hansen tuned for.

    [refine_rounds] (default 1) enables iterative refinement: rounds after
    the first re-run the algorithm with taken-branch directions taken from
    the previous round's actual layout instead of DFS guesses.  Only the
    BT/FNT cost model consults directions, so refinement is useful there
    and a no-op elsewhere. *)

type algo =
  | Original
  | Greedy
  | Cost
  | Tryn of int  (** group size; the paper's Try15 is [Tryn 15] *)
  | ExtTsp
      (** chain merging over the extended-TSP objective ({!Exttsp});
          architecture-oblivious like [Greedy], so [arch] and
          [refine_rounds] do not apply *)

val algo_name : algo -> string

val algo_of_name : string -> (algo, string) result
(** Parse a command-line / protocol spelling: [orig]/[original], [greedy]/
    [pettis-hansen], [cost], [exttsp], or [tryN] (e.g. [try15]).
    Case-insensitive. *)

val align_proc :
  algo ->
  ?strategy:Ba_layout.Chain_order.strategy ->
  ?arch:Cost_model.arch ->
  ?table:Cost_model.table ->
  ?refine_rounds:int ->
  Ba_cfg.Profile.t ->
  Ba_ir.Term.proc_id ->
  Ba_layout.Decision.t

val align_program :
  algo ->
  ?strategy:Ba_layout.Chain_order.strategy ->
  ?arch:Cost_model.arch ->
  ?table:Cost_model.table ->
  ?refine_rounds:int ->
  Ba_cfg.Profile.t ->
  Ba_layout.Decision.t array

val image :
  algo ->
  ?strategy:Ba_layout.Chain_order.strategy ->
  ?arch:Cost_model.arch ->
  ?table:Cost_model.table ->
  ?refine_rounds:int ->
  Ba_cfg.Profile.t ->
  Ba_layout.Image.t
(** Align every procedure and build the rewritten code image in one step
    (profile-guided lowering included). *)
