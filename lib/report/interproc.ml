open Ba_core

type row = {
  workload : Ba_workloads.Spec.t;
  procs : int;
  split_procs : int;
  cold_insns : int;
  verified : bool;
  plain : int array;
  stitched : int array;
}

let evaluate ?max_steps (workload : Ba_workloads.Spec.t) =
  let max_steps =
    match max_steps with
    | Some s -> s
    | None -> Ba_workloads.Spec.default_max_steps
  in
  let program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps workload
  in
  let n = Ba_ir.Program.n_procs program in
  let decisions = Align.align_program Align.ExtTsp profile in
  let plain_image = Ba_layout.Image.build ~profile program decisions in
  let ip = Ba_layout.Image.build_interproc ~profile program decisions in
  let split_procs = ref 0 in
  Array.iteri
    (fun p s ->
      if s < Ba_ir.Proc.n_blocks (Ba_ir.Program.proc program p) then
        incr split_procs)
    ip.Ba_layout.Image.splits;
  let stitched_image = ip.Ba_layout.Image.image in
  (* The stitched layout is proved, not trusted: per-procedure
     bisimulation, cost certificates and the whole-image address map —
     stitched order, one cold section, no overlaps. *)
  let proof =
    Ba_verify.Run.verify_image
      ~workload:workload.Ba_workloads.Spec.name ~algo:(Align.algo_name Align.ExtTsp)
      ~profile stitched_image
  in
  let penalties image = Placement.penalties ~max_steps ~profile ~trace image in
  {
    workload;
    procs = n;
    split_procs = !split_procs;
    cold_insns = stitched_image.Ba_layout.Image.total_size - ip.Ba_layout.Image.hot_size;
    verified = proof.Ba_verify.Run.verified;
    plain = penalties plain_image;
    stitched = penalties stitched_image;
  }

let evaluate_suite ?max_steps ?jobs workloads =
  Ba_par.Pool.with_pool ?jobs (fun pool ->
      Ba_par.Pool.map pool (evaluate ?max_steps) workloads)

let render rows =
  let open Ba_util.Ascii_table in
  let columns =
    column ~align:Left "workload"
    :: List.map (fun l -> column l) Placement.arch_labels
    @ [
        column "procs"; column "split"; column "cold-insns";
        column ~align:Left "proved";
      ]
  in
  let to_row r =
    r.workload.Ba_workloads.Spec.name
    :: List.init (Array.length r.plain) (fun i ->
           Printf.sprintf "%d>%d" r.plain.(i) r.stitched.(i))
    @ [
        int_cell r.procs;
        int_cell r.split_procs;
        int_cell r.cold_insns;
        (if r.verified then "yes" else "NO");
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
      ("schema", String "ba-interproc/1");
      ("arch_labels", List (List.map (fun l -> String l) Placement.arch_labels));
      ( "rows",
        List
          (List.map
             (fun r ->
               Obj
                 [
                   ("workload", String r.workload.Ba_workloads.Spec.name);
                   ("class", String (Ba_workloads.Spec.cls_name r.workload.Ba_workloads.Spec.cls));
                   ("procs", Int r.procs);
                   ("split_procs", Int r.split_procs);
                   ("cold_insns", Int r.cold_insns);
                   ("verified", Bool r.verified);
                   ("plain_penalty_cycles", arr r.plain);
                   ("stitched_penalty_cycles", arr r.stitched);
                 ])
             rows) );
    ]
