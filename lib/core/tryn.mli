(** The paper's Try15 alignment algorithm (§4).

    The procedure's alignable edges that executed at least twice (the
    paper prunes edges executed no more than once) are taken in
    weight order, [n] at a time.  For each group every feasible combination
    of per-edge placements — fall-through or taken — is enumerated with a
    branch-and-bound search and scored under the architecture's cost model;
    a conditional both of whose legs end up taken is scored as the
    jump-insertion ("align neither") lowering.  The best assignment is
    committed before moving to the next group, and edges below the weight
    threshold are linked greedily at the end.

    [n] defaults to 15 as in the paper; the ablation benchmark sweeps it.

    Search leaves are priced incrementally: each group source's cost is
    cached and invalidated only when a link or unlink touches that source,
    so a leaf costs O(relinked sources) instead of O(group sources). *)

val build_chains :
  arch:Cost_model.arch ->
  ?table:Cost_model.table ->
  ?n:int ->
  Ctx.t ->
  Ba_layout.Chain.t
