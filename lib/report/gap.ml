open Ba_core

type cell = {
  model : Cost_model.arch;
  greedy : int;
  cost : int;
  exttsp : int;
  tryn : int;
  anneal : int;
  optimal : int;
  opt_lower : int;
  candidates : int;
  simulated : int;
  pruned : int;
}

type row = { workload : Ba_workloads.Spec.t; cells : cell list }

let models =
  [ Cost_model.Fallthrough; Cost_model.Btfnt; Cost_model.Likely;
    Cost_model.Pht; Cost_model.Btb ]

let evaluate ?max_steps ?(k = 4) (workload : Ba_workloads.Spec.t) =
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> Ba_workloads.Spec.default_max_steps
  in
  let program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps workload
  in
  let cells =
    List.map
      (fun model ->
        let layout algo = Align.align_program algo ~arch:model profile in
        let base = layout (Align.Tryn 15) in
        (* Candidates are priced by the incremental evaluator — exactly
           the integer [Bep.bep] a full replay reports, which the
           differential wall enforces — so the search costs O(affected
           sites) per candidate instead of a full trace replay. *)
        let config = Ba_sim.Bep.of_model model in
        let ev = Ba_delta.Eval.create ~specs:[| config |] profile trace base in
        let bep decisions = Ba_delta.Eval.cost_arch ev 0 decisions in
        let bounds decisions =
          let image = Ba_layout.Image.build ~profile program decisions in
          let arch = Ba_sim.Bep.arch_of ~image ~profile config in
          let i = Ba_bound.Analyze.bounds ~arch ~profile image in
          (i.Ba_bound.Domain.lo, i.Ba_bound.Domain.hi)
        in
        let greedy = bep (layout Align.Greedy) in
        let cost = bep (layout Align.Cost) in
        let exttsp = bep (layout Align.ExtTsp) in
        let tryn_bep = bep base in
        let anneal = bep (Ba_delta.Anneal.align_program ~arch:model profile) in
        (* Optimal-k explores reorderings of the strongest algorithm's
           layout, so its winner prices what bounded search leaves on the
           table for every algorithm. *)
        let r = Optimal.search ~k ~bounds ~cost:bep ~profile base in
        {
          model;
          greedy;
          cost;
          exttsp;
          tryn = tryn_bep;
          anneal;
          optimal = r.Optimal.best_cost;
          opt_lower = r.Optimal.best_lower;
          candidates = r.Optimal.candidates;
          simulated = r.Optimal.simulated;
          pruned = r.Optimal.pruned;
        })
      models
  in
  { workload; cells }

let evaluate_suite ?max_steps ?k ?jobs workloads =
  Ba_par.Pool.with_pool ?jobs (fun pool ->
      Ba_par.Pool.map pool (evaluate ?max_steps ?k) workloads)

let render rows =
  let open Ba_util.Ascii_table in
  let columns =
    [
      column ~align:Left "workload";
      column ~align:Left "arch";
      column "greedy";
      column "cost";
      column "exttsp";
      column "try15";
      column "anneal";
      column "opt-k";
      column "opt-lb";
      column "gap(greedy)";
      column "gap(cost)";
      column "gap(exttsp)";
      column "gap(try15)";
      column "gap(anneal)";
      column "sim/cand";
    ]
  in
  let cells =
    List.concat_map
      (fun r ->
        List.map
          (fun c ->
            [
              r.workload.Ba_workloads.Spec.name;
              Cost_model.arch_name c.model;
              string_of_int c.greedy;
              string_of_int c.cost;
              string_of_int c.exttsp;
              string_of_int c.tryn;
              string_of_int c.anneal;
              string_of_int c.optimal;
              string_of_int c.opt_lower;
              string_of_int (c.greedy - c.optimal);
              string_of_int (c.cost - c.optimal);
              string_of_int (c.exttsp - c.optimal);
              string_of_int (c.tryn - c.optimal);
              string_of_int (c.anneal - c.optimal);
              Printf.sprintf "%d/%d" c.simulated c.candidates;
            ])
          r.cells)
      rows
  in
  render ~columns ~rows:cells

let to_json rows =
  let open Ba_util.Json in
  Obj
    [
      ("schema", String "ba-gap/2");
      ( "rows",
        List
          (List.concat_map
             (fun r ->
               List.map
                 (fun c ->
                   Obj
                     [
                       ("workload", String r.workload.Ba_workloads.Spec.name);
                       ("arch", String (Cost_model.arch_name c.model));
                       ("greedy", Int c.greedy);
                       ("cost", Int c.cost);
                       ("exttsp", Int c.exttsp);
                       ("try15", Int c.tryn);
                       ("anneal", Int c.anneal);
                       ("optimal", Int c.optimal);
                       ("optimal_lower", Int c.opt_lower);
                       ("gap_greedy", Int (c.greedy - c.optimal));
                       ("gap_cost", Int (c.cost - c.optimal));
                       ("gap_exttsp", Int (c.exttsp - c.optimal));
                       ("gap_try15", Int (c.tryn - c.optimal));
                       ("gap_anneal", Int (c.anneal - c.optimal));
                       ("candidates", Int c.candidates);
                       ("simulated", Int c.simulated);
                       ("pruned", Int c.pruned);
                     ])
                 r.cells)
             rows) );
    ]
