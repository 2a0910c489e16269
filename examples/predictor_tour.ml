(* A tour of the branch prediction architectures.

     dune exec examples/predictor_tour.exe [workload]

   Runs one workload (default: espresso) through the seven configurations
   the paper simulates — three static rules, two pattern history tables,
   two BTBs, all sharing one return stack — before and after Try15
   alignment, and prints accuracies, penalty events and relative CPI. *)

let workload_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "espresso"

let () =
  let workload =
    match Ba_workloads.Spec.by_name workload_name with
    | Some w -> w
    | None ->
      Fmt.epr "unknown workload %s; available:@." workload_name;
      List.iter
        (fun (w : Ba_workloads.Spec.t) -> Fmt.epr "  %s@." w.Ba_workloads.Spec.name)
        Ba_workloads.Spec.all;
      exit 1
  in
  let program = workload.Ba_workloads.Spec.build () in
  Fmt.pr "workload %s: %s@.@." workload.Ba_workloads.Spec.name
    workload.Ba_workloads.Spec.description;
  let profile = Ba_exec.Engine.profile_program program in
  (* The machine's seven configurations, as Tables 3/4 list them; LIKELY
     hint bits are per-image, so each image gets its own. *)
  let configs =
    Ba_sim.Bep.
      [
        `Arch Static_fallthrough;
        `Arch Static_btfnt;
        `Likely;
        `Arch pht_direct;
        `Arch gshare;
        `Arch btb64;
        `Arch btb256;
      ]
  in
  let archs image = List.map (Ba_sim.Bep.arch_of ~image ~profile) configs in
  let orig_image = Ba_layout.Image.original ~profile program in
  let orig = Ba_sim.Runner.simulate ~archs:(archs orig_image) orig_image in
  let orig_insns = orig.Ba_sim.Runner.result.Ba_exec.Engine.insns in
  (* Each architecture is evaluated on the image aligned with its own cost
     model, as in the paper's Table 3/4 "Try15" columns. *)
  let aligned_for model config =
    let image = Ba_core.Align.image (Ba_core.Align.Tryn 15) ~arch:model profile in
    let arch = Ba_sim.Bep.arch_of ~image ~profile config in
    let out = Ba_sim.Runner.simulate ~archs:[ arch ] image in
    (out, snd out.Ba_sim.Runner.sims.(0))
  in
  let open Ba_util.Ascii_table in
  let columns =
    [
      column ~align:Left "architecture"; column "accuracy";
      column "misfetch"; column "mispredict"; column "CPI orig"; column "CPI aligned";
    ]
  in
  let model_for = function
    | `Arch Ba_sim.Bep.Static_fallthrough -> Ba_core.Cost_model.Fallthrough
    | `Arch Ba_sim.Bep.Static_btfnt -> Ba_core.Cost_model.Btfnt
    | `Likely | `Arch (Ba_sim.Bep.Static_likely _) -> Ba_core.Cost_model.Likely
    | `Arch (Ba_sim.Bep.Pht_direct _ | Ba_sim.Bep.Pht_gshare _) -> Ba_core.Cost_model.Pht
    | `Arch (Ba_sim.Bep.Btb_arch _) -> Ba_core.Cost_model.Btb
  in
  let rows =
    List.map2
      (fun config (arch, osim) ->
        let aligned_out, asim = aligned_for (model_for config) config in
        let c = Ba_sim.Bep.counts osim in
        [
          Ba_sim.Bep.arch_label arch;
          Printf.sprintf "%.1f%%" (100.0 *. Ba_sim.Bep.cond_accuracy osim);
          int_cell c.Ba_sim.Bep.misfetches;
          int_cell c.Ba_sim.Bep.mispredicts;
          float_cell (Ba_sim.Bep.relative_cpi osim ~insns:orig_insns ~orig_insns);
          float_cell
            (Ba_sim.Bep.relative_cpi asim
               ~insns:aligned_out.Ba_sim.Runner.result.Ba_exec.Engine.insns ~orig_insns);
        ])
      configs (Array.to_list orig.Ba_sim.Runner.sims)
  in
  print_string (render ~columns ~rows);
  Fmt.pr
    "@.Note how alignment helps the static architectures most (FALLTHROUGH in@.\
     particular), the PHTs moderately (misfetch removal only), and the BTBs@.\
     least — the ordering of §6 of the paper.@."
