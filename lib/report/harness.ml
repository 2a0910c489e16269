open Ba_core
open Ba_sim

type arch_cpis = {
  fallthrough : float;
  btfnt : float;
  likely : float;
  pht_direct : float;
  gshare : float;
  btb64 : float;
  btb256 : float;
}

type eval = {
  workload : Ba_workloads.Spec.t;
  orig_insns : int;
  stats : Ba_exec.Trace_stats.summary;
  orig : arch_cpis;
  greedy : arch_cpis;
  exttsp : arch_cpis;
  try15 : arch_cpis;
  anneal : arch_cpis;
  pct_ft_orig : float;
  pct_ft_greedy : float;
  pct_ft_try15_ft : float;
  pct_ft_try15_btfnt : float;
  pct_ft_try15_likely : float;
  alpha : (float * float * float) option;
}

type outcome = {
  result : Ba_exec.Engine.result;
  rows : (Bep.config * Bep.counts) array;
  pct_ft : float;
  stats : Ba_exec.Trace_stats.t option;
}

(* Static configurations are priced in closed form over the counts of one
   walk of the trace, made when [~profile ~trace] are applied; only the
   dynamic ones replay it.  LIKELY bits come from the profile and the image
   itself (profile-guided hints follow the rewritten binary, as
   re-annotating after transformation would). *)
let run_image ~profile ~trace =
  let counts = Ba_delta.Stream.walk (Ba_cfg.Profile.program profile) trace in
  fun ~archs image ->
    let static, dynamic = List.partition Ba_delta.Eval.is_static archs in
    let result, common, books = Ba_delta.Eval.static_books counts ~profile static image in
    let replay =
      match dynamic with
      | [] -> None
      | _ ->
        Some
          (Runner.simulate ~trace ~archs:(List.map (Bep.arch_of ~image ~profile) dynamic) image)
    in
    let books = ref books in
    let sims = ref (match replay with Some o -> Array.to_list o.Runner.sims | None -> []) in
    let next r = match !r with x :: rest -> r := rest; x | [] -> assert false in
    let row config =
      (config, if Ba_delta.Eval.is_static config then next books else Bep.counts (snd (next sims)))
    in
    {
      result;
      rows = Array.of_list (List.map row archs);
      pct_ft = Ba_util.Stats.pct (common.Bep.cond - common.Bep.cond_taken) common.Bep.cond;
      stats = Option.map (fun o -> o.Runner.stats) replay;
    }

let cpi outcome ~orig_insns arch_index =
  let _, books = outcome.rows.(arch_index) in
  float_of_int (outcome.result.Ba_exec.Engine.insns + Bep.cycles books)
  /. float_of_int orig_insns

let full_archs =
  [
    `Arch Bep.Static_fallthrough;
    `Arch Bep.Static_btfnt;
    `Likely;
    `Arch Bep.pht_direct;
    `Arch Bep.gshare;
    `Arch Bep.btb64;
    `Arch Bep.btb256;
  ]

let simulate_archs =
  [
    `Likely;
    `Arch Bep.Static_fallthrough;
    `Arch Bep.Static_btfnt;
    `Arch Bep.pht_direct;
    `Arch Bep.gshare;
    `Arch Bep.btb256;
  ]

let cpis_of_full outcome ~orig_insns =
  let c i = cpi outcome ~orig_insns i in
  {
    fallthrough = c 0;
    btfnt = c 1;
    likely = c 2;
    pht_direct = c 3;
    gshare = c 4;
    btb64 = c 5;
    btb256 = c 6;
  }

let evaluate ?max_steps (workload : Ba_workloads.Spec.t) =
  let max_steps =
    match max_steps with Some s -> s | None -> Ba_workloads.Spec.default_max_steps
  in
  (* Record once, walk once, replay only the dynamic predictors: the single
     memoized interpreter pass yields the profile and the semantic trace,
     one walk of it prices every image's static architectures, and only
     the images scored on a PHT or a BTB replay the trace. *)
  let program, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps workload in
  let run_image = run_image ~profile ~trace in
  let orig_image = Ba_layout.Image.original ~profile program in
  let orig_out = run_image ~archs:full_archs orig_image in
  let orig_insns = orig_out.result.Ba_exec.Engine.insns in
  let greedy_image = Align.image Align.Greedy profile in
  let greedy_out = run_image ~archs:full_archs greedy_image in
  (* As in §6.1, layouts evaluated on BT/FNT use the Pettis & Hansen
     precedence chain ordering; everything else uses weight-descending. *)
  let greedy_btfnt_image =
    Align.image Align.Greedy ~strategy:Ba_layout.Chain_order.Btfnt_precedence profile
  in
  let greedy_btfnt_out =
    run_image ~archs:[ `Arch Bep.Static_btfnt ] greedy_btfnt_image
  in
  (* ExtTSP is architecture-oblivious like Greedy: one image, all seven
     simulated architectures. *)
  let exttsp_image = Align.image Align.ExtTsp profile in
  let exttsp_out = run_image ~archs:full_archs exttsp_image in
  (* One Try15 alignment per architectural cost model. *)
  let try15_image arch = Align.image (Align.Tryn 15) ~arch profile in
  let t15_ft_img = try15_image Cost_model.Fallthrough in
  let t15_btfnt_img =
    (* Two refinement rounds: the second pass knows the first layout's real
       branch directions, which only BT/FNT cares about. *)
    Align.image (Align.Tryn 15) ~strategy:Ba_layout.Chain_order.Btfnt_precedence
      ~arch:Cost_model.Btfnt ~refine_rounds:2 profile
  in
  let t15_likely_img = try15_image Cost_model.Likely in
  let t15_pht_img = try15_image Cost_model.Pht in
  let t15_btb_img = try15_image Cost_model.Btb in
  let t15_ft = run_image ~archs:[ `Arch Bep.Static_fallthrough ] t15_ft_img in
  let t15_btfnt = run_image ~archs:[ `Arch Bep.Static_btfnt ] t15_btfnt_img in
  let t15_likely = run_image ~archs:[ `Likely ] t15_likely_img in
  let t15_pht =
    run_image ~archs:[ `Arch Bep.pht_direct; `Arch Bep.gshare ] t15_pht_img
  in
  let t15_btb =
    run_image ~archs:[ `Arch Bep.btb64; `Arch Bep.btb256 ] t15_btb_img
  in
  let try15 =
    {
      fallthrough = cpi t15_ft ~orig_insns 0;
      btfnt = cpi t15_btfnt ~orig_insns 0;
      likely = cpi t15_likely ~orig_insns 0;
      pht_direct = cpi t15_pht ~orig_insns 0;
      gshare = cpi t15_pht ~orig_insns 1;
      btb64 = cpi t15_btb ~orig_insns 0;
      btb256 = cpi t15_btb ~orig_insns 1;
    }
  in
  (* One annealed alignment per architectural cost model, mirroring the
     Try15 structure.  Seed 0 and a fixed schedule: the column is
     byte-identical across runs and at any [-j]. *)
  let anneal_image arch = Ba_delta.Algo.image Ba_delta.Algo.Anneal ~arch profile in
  let an_ft = run_image ~archs:[ `Arch Bep.Static_fallthrough ] (anneal_image Cost_model.Fallthrough) in
  let an_btfnt = run_image ~archs:[ `Arch Bep.Static_btfnt ] (anneal_image Cost_model.Btfnt) in
  let an_likely = run_image ~archs:[ `Likely ] (anneal_image Cost_model.Likely) in
  let an_pht =
    run_image ~archs:[ `Arch Bep.pht_direct; `Arch Bep.gshare ]
      (anneal_image Cost_model.Pht)
  in
  let an_btb =
    run_image ~archs:[ `Arch Bep.btb64; `Arch Bep.btb256 ]
      (anneal_image Cost_model.Btb)
  in
  let anneal =
    {
      fallthrough = cpi an_ft ~orig_insns 0;
      btfnt = cpi an_btfnt ~orig_insns 0;
      likely = cpi an_likely ~orig_insns 0;
      pht_direct = cpi an_pht ~orig_insns 0;
      gshare = cpi an_pht ~orig_insns 1;
      btb64 = cpi an_btb ~orig_insns 0;
      btb256 = cpi an_btb ~orig_insns 1;
    }
  in
  let alpha =
    if List.mem workload.Ba_workloads.Spec.name Ba_workloads.Spec.spec_c_programs then begin
      (* Numeric programs carry a high floating-point share, which pairs
         with integer-pipe work on the dual-issue 21064. *)
      let fp_fraction =
        match workload.Ba_workloads.Spec.cls with
        | Ba_workloads.Spec.Fp -> 0.5
        | Ba_workloads.Spec.Int | Ba_workloads.Spec.Other -> 0.08
      in
      let run_alpha image =
        let result, alpha = Runner.simulate_alpha ~fp_fraction ~trace image in
        Alpha.cycles alpha ~insns:result.Ba_exec.Engine.insns
      in
      let orig_cycles = run_alpha orig_image in
      let greedy_cycles = run_alpha greedy_image in
      let try15_cycles = run_alpha t15_btb_img in
      Some (1.0, greedy_cycles /. orig_cycles, try15_cycles /. orig_cycles)
    end
    else None
  in
  {
    workload;
    orig_insns;
    stats =
      (* [full_archs] holds the dynamic predictors, so the original image
         was replayed *)
      Ba_exec.Trace_stats.summarize (Option.get orig_out.stats) ~program ~insns:orig_insns;
    orig = cpis_of_full orig_out ~orig_insns;
    greedy =
      { (cpis_of_full greedy_out ~orig_insns) with
        btfnt = cpi greedy_btfnt_out ~orig_insns 0 };
    exttsp = cpis_of_full exttsp_out ~orig_insns;
    try15;
    anneal;
    pct_ft_orig = orig_out.pct_ft;
    pct_ft_greedy = greedy_out.pct_ft;
    pct_ft_try15_ft = t15_ft.pct_ft;
    pct_ft_try15_btfnt = t15_btfnt.pct_ft;
    pct_ft_try15_likely = t15_likely.pct_ft;
    alpha;
  }

let evaluate_suite ?max_steps ?jobs workloads =
  Ba_par.Pool.with_pool ?jobs (fun pool ->
      Ba_par.Pool.map pool (evaluate ?max_steps) workloads)

let evaluate_suite_timed ?max_steps ?jobs workloads =
  Ba_par.Pool.with_pool ?jobs (fun pool ->
      Ba_par.Pool.timed_map pool ~label:"evaluate_suite"
        ~task_label:(fun (w : Ba_workloads.Spec.t) -> w.Ba_workloads.Spec.name)
        (evaluate ?max_steps) workloads)

let by_class workload items =
  List.filter_map
    (fun cls ->
      match
        List.filter (fun x -> (workload x).Ba_workloads.Spec.cls = cls) items
      with
      | [] -> None
      | xs -> Some (Ba_workloads.Spec.cls_name cls, xs))
    [ Ba_workloads.Spec.Fp; Ba_workloads.Spec.Int; Ba_workloads.Spec.Other ]
