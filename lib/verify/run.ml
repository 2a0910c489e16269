open Ba_analysis

type t = {
  lint : Run.report;
  bisim : Diagnostic.t list;
  certificates : Certificate.t list;
  cert_diags : Diagnostic.t list;
  audit : Diagnostic.t list;
  verified : bool;
}

let diagnostics t =
  Diagnostic.sort
    (Run.diagnostics t.lint @ t.bisim @ t.cert_diags @ t.audit)

let error_count t =
  let e, _, _ = Diagnostic.count (diagnostics t) in
  e

let verify_image ?pool ?(audit_arch = Ba_core.Cost_model.Btfnt) ?(audit = true)
    ?trace ~workload ~algo ~profile (image : Ba_layout.Image.t) =
  Ba_obs.Span.with_ "verify" @@ fun () ->
  let program = image.Ba_layout.Image.program in
  let n = Ba_ir.Program.n_procs program in
  let visits p b = Ba_cfg.Profile.visits profile p b in
  let cond_counts p b = Ba_cfg.Profile.cond_counts profile p b in
  let witnesses = Array.make n None in
  let bisim_diags = ref [] in
  for pid = 0 to n - 1 do
    match Bisim.verify ~proc_id:pid image.Ba_layout.Image.linears.(pid) with
    | Ok w -> witnesses.(pid) <- Some w
    | Error diags -> bisim_diags := !bisim_diags @ diags
  done;
  if !bisim_diags <> [] then (Diagnostic.sort !bisim_diags, [], [], [])
  else begin
    let witness pid = Option.get witnesses.(pid) in
    (* Certify one architecture: [(certificate option, diagnostics)].
       Reads only the image, profile and witnesses, so the architectures
       certify independently — and in parallel when a pool is given. *)
    let certify_arch arch =
      let per_proc = Array.make n ("", 0.0) in
      let evaluator = ref 0.0 in
      let failures = ref [] in
      for pid = 0 to n - 1 do
        let linear = image.Ba_layout.Image.linears.(pid) in
        evaluator :=
          !evaluator
          +. Ba_core.Layout_cost.branch_cost ~arch ~visits:(visits pid)
               ~cond_counts:(cond_counts pid) linear;
        match
          Cost_cert.certify ~arch ~visits:(visits pid)
            ~cond_counts:(cond_counts pid) ~proc_id:pid linear (witness pid)
        with
        | Ok cycles ->
          per_proc.(pid) <-
            ((Ba_ir.Program.proc program pid).Ba_ir.Proc.name, cycles)
        | Error diags -> failures := !failures @ diags
      done;
      if !failures <> [] then (None, !failures)
      else
        ( Some
            (Certificate.make ~workload ~algo
               ~arch:(Ba_core.Cost_model.arch_name arch)
               ~code_size:image.Ba_layout.Image.total_size
               ~evaluator_cycles:!evaluator ~per_proc),
          [] )
    in
    let arch_results =
      match pool with
      | Some pool -> Ba_par.Pool.map pool certify_arch Ba_core.Cost_model.all_arches
      | None -> List.map certify_arch Ba_core.Cost_model.all_arches
    in
    let certificates = List.filter_map fst arch_results in
    let cert_diags = ref (List.concat_map snd arch_results) in
    let audit_diags =
      if not audit then []
      else begin
        (* With a recorded trace, audit findings also carry simulator-exact
           figures: one Ba_delta.Eval prices, for any candidate decision of
           one procedure, the exact replay penalty of the whole layout. *)
        let sim_for =
          match trace with
          | None -> fun _ -> None
          | Some trace ->
            let base =
              Array.map Audit.canonical_decision image.Ba_layout.Image.linears
            in
            let ev =
              Ba_delta.Eval.create
                ~specs:[| Ba_delta.Eval.spec_of_model audit_arch |]
                profile trace base
            in
            fun pid ->
              Some
                (fun decision ->
                  let ds = Array.copy base in
                  ds.(pid) <- decision;
                  Ba_delta.Eval.cost_arch ev 0 ds)
        in
        List.concat
          (List.init n (fun pid ->
               Audit.check ?sim:(sim_for pid) ~arch:audit_arch
                 ~visits:(visits pid) ~cond_counts:(cond_counts pid)
                 ~proc_id:pid image.Ba_layout.Image.linears.(pid)))
      end
    in
    ([], certificates, Diagnostic.sort !cert_diags, Diagnostic.sort audit_diags)
  end

let has_errors diags = List.exists Diagnostic.is_error diags

let verify_pipeline ?pool ?(arch = Ba_core.Cost_model.Btfnt) ?max_steps
    ?profile ?trace ?audit ?(interproc = false) ~algo
    (program : Ba_ir.Program.t) =
  let unverified lint =
    { lint; bisim = []; certificates = []; cert_diags = []; audit = [];
      verified = false }
  in
  let lint_report stages =
    { Run.program_name = program.Ba_ir.Program.name; algo; arch; stages }
  in
  let ir_diags = Check_ir.check_program program in
  if has_errors ir_diags then unverified (lint_report [ (Run.Ir, ir_diags) ])
  else begin
    let profile =
      match profile with
      | Some p ->
        if Ba_cfg.Profile.program p != program then
          invalid_arg "Ba_verify.Run.verify_pipeline: profile of a different program";
        p
      | None -> Ba_exec.Engine.profile_program ?max_steps program
    in
    let profile_diags = Check_profile.check profile in
    let decisions = Ba_core.Align.align_program algo ~arch profile in
    let layout_stages = Run.check_layout ~profile program decisions in
    let lint =
      lint_report
        ((Run.Ir, ir_diags) :: (Run.Profile, profile_diags) :: layout_stages)
    in
    (* Decision errors mean lowering was skipped (and would raise). *)
    if not (List.mem_assoc Run.Linear lint.Run.stages) then unverified lint
    else begin
      (* In interproc mode the per-procedure bisimulation proves each
         address run; the whole-image address map (stitched procedure
         order, one cold section, no overlaps) is Check_image's job, so
         run it on the stitched image too and fold its findings in. *)
      let image, image_diags =
        if interproc then begin
          let ip = Ba_layout.Image.build_interproc ~profile program decisions in
          ( ip.Ba_layout.Image.image,
            Check_image.check ip.Ba_layout.Image.image )
        end
        else (Ba_layout.Image.build ~profile program decisions, [])
      in
      let bisim, certificates, cert_diags, audit =
        verify_image ?pool ~audit_arch:arch ?trace ?audit
          ~workload:program.Ba_ir.Program.name
          ~algo:(Ba_core.Align.algo_name algo) ~profile image
      in
      let bisim = Diagnostic.sort (image_diags @ bisim) in
      {
        lint; bisim; certificates; cert_diags; audit;
        verified = bisim = [] && cert_diags = [] && certificates <> [];
      }
    end
  end
