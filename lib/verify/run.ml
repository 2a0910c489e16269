open Ba_analysis

type t = {
  lint : Diagnostic.t list;
  bisim : Diagnostic.t list;
  certificates : Certificate.t list;
  cert_diags : Diagnostic.t list;
  audit : Diagnostic.t list;
  verified : bool;
}

let diagnostics t =
  Diagnostic.sort (t.lint @ t.bisim @ t.cert_diags @ t.audit)

let error_count t =
  let e, _, _ = Diagnostic.count (diagnostics t) in
  e

(* The one verdict: every procedure bisimulates (and the address map of an
   image no lint stage checked is sound) and every architecture's
   certificate cross-checked.  With no proof attempted there are no
   certificates, so the verdict is false. *)
let conclude ~lint (bisim, certificates, cert_diags, audit) =
  {
    lint; bisim; certificates; cert_diags; audit;
    verified = bisim = [] && cert_diags = [] && certificates <> [];
  }

(* The optimality audit of every procedure.  With a recorded trace,
   findings also carry simulator-exact figures: one Ba_delta.Eval prices,
   for any candidate decision of one procedure, the exact replay penalty
   of the whole layout.  The evaluator and the base layout's penalty are
   built at the first finding, once per image; a layout with no finding
   builds neither. *)
let audit_image ?trace ~arch ~profile (image : Ba_layout.Image.t) =
  let saving =
    Option.map
      (fun trace ->
        let base =
          Array.map Audit.canonical_decision image.Ba_layout.Image.linears
        in
        let priced =
          lazy
            (let ev =
               Ba_delta.Eval.create ~specs:[| Ba_sim.Bep.of_model arch |]
                 profile trace base
             in
             (ev, Ba_delta.Eval.cost_arch ev 0 base))
        in
        fun pid decision ->
          let ev, base_cycles = Lazy.force priced in
          let ds = Array.copy base in
          ds.(pid) <- decision;
          base_cycles - Ba_delta.Eval.cost_arch ev 0 ds)
      trace
  in
  List.concat
    (List.init (Array.length image.Ba_layout.Image.linears) (fun pid ->
         Audit.check ?sim:(Option.map (fun f -> f pid) saving) ~arch
           ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
           ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
           ~proc_id:pid image.Ba_layout.Image.linears.(pid)))

(* Bisimulation, then — every procedure proved — certification on every
   architecture and, under [audit = Some arch], the optimality audit. *)
let prove ?pool ?trace ~audit ~check_map ~lint ~workload ~algo ~profile
    (image : Ba_layout.Image.t) =
  (* The whole-image address map (procedure order, cold section, no
     overlaps) of an image no lint stage checked; its findings count with
     the per-procedure bisimulation, which proves each address run. *)
  let map_diags = if check_map then Check_image.check image else [] in
  let bisim, certificates, cert_diags, audit =
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
    if !bisim_diags <> [] then (!bisim_diags, [], [], [])
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
      let cert_diags = List.concat_map snd arch_results in
      let audit_diags =
        match audit with
        | Some arch -> audit_image ?trace ~arch ~profile image
        | None -> []
      in
      ([], certificates, Diagnostic.sort cert_diags, Diagnostic.sort audit_diags)
    end
  in
  conclude ~lint
    (Diagnostic.sort (map_diags @ bisim), certificates, cert_diags, audit)

let verify_image ~workload ~algo ~profile image =
  prove ~audit:None ~check_map:true ~lint:[] ~workload ~algo ~profile image

let check ?pool ~arch ~profile algo =
  Run.check_pipeline ~profile
    ~align:(Ba_delta.Algo.decisions ?pool algo ~arch)
    (Ba_cfg.Profile.program profile)

let verify ?pool ?(audit = true) ?(interproc = false) ?trace ~arch ~profile
    algo =
  let report = check ?pool ~arch ~profile algo in
  let lint = Run.diagnostics report in
  match (report.Run.image, report.Run.decisions) with
  | Some image, Some decisions ->
    let program = image.Ba_layout.Image.program in
    let image =
      if interproc then
        (Ba_layout.Image.build_interproc ~profile program decisions)
          .Ba_layout.Image.image
      else image
    in
    prove ?pool ?trace
      ~audit:(if audit then Some arch else None)
      ~check_map:interproc ~lint ~workload:program.Ba_ir.Program.name
      ~algo:(Ba_delta.Algo.name algo) ~profile image
  | _ ->
    (* IR or decision errors: there is no lowered code to prove. *)
    conclude ~lint ([], [], [], [])

let lint ~trace ~arch ~profile algo =
  let report = check ~arch ~profile algo in
  match report.Run.image with
  | Some image when Run.error_count report = 0 ->
    (* The extension stages need the lowered image, so they run only when
       the five built-in stages are error-free. *)
    let conflict = Ba_conflict.Lint.check ~profile image in
    let audit = audit_image ~trace ~arch ~profile image in
    let bound = Ba_bound.Lint.check ~algo ~arch ~profile image in
    {
      report with
      Run.stages =
        report.Run.stages
        @ [ (Run.Conflict, conflict); (Run.Audit, audit); (Run.Bound, bound) ];
    }
  | _ -> report

let verify_pipeline ~arch ~max_steps:_ ~profile ~trace ~audit ~algo program =
  if Ba_cfg.Profile.program profile != program then
    invalid_arg "Run.verify_pipeline: profile of a different program";
  verify ~audit ~trace ~arch ~profile (Ba_delta.Algo.Core algo)
