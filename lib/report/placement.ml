open Ba_core
open Ba_sim

type row = {
  workload : Ba_workloads.Spec.t;
  base : int array;
  placed : int array;
  effective : int array;
  applied : bool;
  before : int;
  after : int;
  swaps : int;
  pad_slots : int;
}

let arch_labels = List.map Bep.config_label Harness.full_archs

let penalties ~profile ~trace =
  let run = Harness.run_image ~profile ~trace ~archs:Harness.full_archs in
  fun image -> Array.map (fun (_, books) -> Bep.cycles books) (run image).Harness.rows

let evaluate ?max_steps (workload : Ba_workloads.Spec.t) =
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> Ba_workloads.Spec.default_max_steps
  in
  let program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps workload
  in
  (* The canonical BTB-aligned Try15 layout — the configuration the paper
     carries into its hardware evaluation — is the placement baseline. *)
  let decisions =
    Align.align_program (Align.Tryn 15) ~arch:Cost_model.Btb profile
  in
  let base_image = Ba_layout.Image.build ~profile program decisions in
  let place =
    Ba_conflict.Place.improve ~arch:Cost_model.Btb ~profile program decisions
  in
  let penalties = penalties ~profile ~trace in
  let base = penalties base_image in
  let placed = penalties place.Ba_conflict.Place.image in
  let total a = Array.fold_left ( + ) 0 a in
  let applied = total placed <= total base in
  {
    workload;
    base;
    placed;
    effective = (if applied then placed else base);
    applied;
    before = place.Ba_conflict.Place.before;
    after = place.Ba_conflict.Place.after;
    swaps = place.Ba_conflict.Place.swaps;
    pad_slots = Array.fold_left ( + ) 0 place.Ba_conflict.Place.pads;
  }

let evaluate_suite ?max_steps ?jobs workloads =
  Ba_par.Pool.with_pool ?jobs (fun pool ->
      Ba_par.Pool.map pool (evaluate ?max_steps) workloads)

let render rows =
  let open Ba_util.Ascii_table in
  let columns =
    column ~align:Left "workload"
    :: List.map (fun l -> column l) arch_labels
    @ [ column "conflict-wt"; column "swaps"; column "pads"; column ~align:Left "kept" ]
  in
  let cell base placed = Printf.sprintf "%d>%d" base placed in
  let to_row r =
    r.workload.Ba_workloads.Spec.name
    :: List.init (Array.length r.base) (fun i -> cell r.base.(i) r.placed.(i))
    @ [
        Printf.sprintf "%d>%d" r.before r.after;
        int_cell r.swaps;
        int_cell r.pad_slots;
        (if r.applied then "yes" else "no (reverted)");
      ]
  in
  let groups =
    List.map
      (fun (label, rs) -> (label, List.map to_row rs))
      (Harness.by_class (fun r -> r.workload) rows)
  in
  render_grouped ~columns ~groups

let to_json rows =
  let open Ba_util.Json in
  let arr a = List (Array.to_list (Array.map (fun v -> Int v) a)) in
  Obj
    [
      ("schema", String "ba-placement/1");
      ("arch_labels", List (List.map (fun l -> String l) arch_labels));
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("workload", String r.workload.Ba_workloads.Spec.name);
                   ("class", String (Ba_workloads.Spec.cls_name r.workload.Ba_workloads.Spec.cls));
                   ("base_penalty_cycles", arr r.base);
                   ("placed_penalty_cycles", arr r.placed);
                   ("effective_penalty_cycles", arr r.effective);
                   ("applied", Bool r.applied);
                   ("conflict_weight_before", Int r.before);
                   ("conflict_weight_after", Int r.after);
                   ("swaps", Int r.swaps);
                   ("pad_slots", Int r.pad_slots);
                 ])
             rows) );
    ]
