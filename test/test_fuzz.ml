(* Property-based pipeline fuzz: for arbitrary generated programs (see
   Gen_prog), every alignment algorithm must produce a layout that survives
   the full verification stack — lint, translation validation (Bisim) and
   independent cost certification (Cost_cert) on every architecture — and
   the Cost heuristic must never price worse than Greedy under the model it
   optimizes for.  This is the adversarial counterpart of the curated
   verify-all matrix: the workload suite is hand-built, these programs are
   not. *)

open Ba_core

let fuzz_steps = 3_000

let algos = [ Align.Original; Align.Greedy; Align.Cost; Align.Tryn 5 ]

let pp_diags ppf diags =
  Fmt.list ~sep:Fmt.cut Ba_analysis.Diagnostic.pp ppf
    (List.filter Ba_analysis.Diagnostic.is_error diags)

(* Full verification of every algorithm: bisimulation proves the lowered
   code equivalent to the CFG, certification cross-checks the pricing on
   all five architectures. *)
let test_all_algos_verify =
  QCheck.Test.make ~name:"fuzz: every algorithm bisimulates and certifies"
    ~count:40 Gen_prog.large_program_arb (fun program ->
      let profile = Ba_exec.Engine.profile_program ~max_steps:fuzz_steps program in
      List.for_all
        (fun algo ->
          let r =
            Ba_verify.Run.verify ~arch:Cost_model.Btfnt ~profile
              (Ba_delta.Algo.Core algo)
          in
          let errs = Ba_verify.Run.error_count r in
          if (not r.Ba_verify.Run.verified) || errs > 0 then
            QCheck.Test.fail_reportf
              "%s: %sverified, %d error(s)@\n%a"
              (Align.algo_name algo)
              (if r.Ba_verify.Run.verified then "" else "NOT ")
              errs pp_diags
              (Ba_verify.Run.diagnostics r)
          else true)
        algos)

(* The exact branch cost of a whole program's lowered image under [arch]. *)
let program_branch_cost ~arch ~profile program decisions =
  let image = Ba_layout.Image.build ~profile program decisions in
  let total = ref 0.0 in
  Array.iteri
    (fun pid linear ->
      total :=
        !total
        +. Layout_cost.branch_cost ~arch
             ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
             ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
             linear)
    image.Ba_layout.Image.linears;
  !total

(* §4's qualitative claim, fuzzed: the cost-model-driven heuristic never
   loses to the architecture-oblivious Greedy under the model it optimizes.
   FALLTHROUGH is the model with no direction-guessing noise, so the
   guarantee is exact there. *)
let test_cost_never_worse_than_greedy =
  QCheck.Test.make ~name:"fuzz: Cost prices no worse than Greedy under its model"
    ~count:100 Gen_prog.program_arb (fun program ->
      let arch = Cost_model.Fallthrough in
      let profile = Ba_exec.Engine.profile_program ~max_steps:fuzz_steps program in
      let cost_of algo =
        program_branch_cost ~arch ~profile program
          (Align.align_program algo ~arch profile)
      in
      let greedy = cost_of Align.Greedy in
      let cost = cost_of Align.Cost in
      if cost > greedy +. 1e-6 then
        QCheck.Test.fail_reportf "Cost %.3f > Greedy %.3f" cost greedy
      else true)

(* Same instrument pointed at Tryn: exhaustive-within-group search must not
   lose to Greedy under its own model either. *)
let test_tryn_never_worse_than_greedy =
  QCheck.Test.make ~name:"fuzz: Try5 prices no worse than Greedy under its model"
    ~count:60 Gen_prog.program_arb (fun program ->
      let arch = Cost_model.Fallthrough in
      let profile = Ba_exec.Engine.profile_program ~max_steps:fuzz_steps program in
      let cost_of algo =
        program_branch_cost ~arch ~profile program
          (Align.align_program algo ~arch profile)
      in
      let greedy = cost_of Align.Greedy in
      let tryn = cost_of (Align.Tryn 5) in
      if tryn > greedy +. 1e-6 then
        QCheck.Test.fail_reportf "Try5 %.3f > Greedy %.3f" tryn greedy
      else true)

let suites =
  [
    ( "fuzz.pipeline",
      List.map (QCheck_alcotest.to_alcotest ~long:false)
        [
          test_all_algos_verify;
          test_cost_never_worse_than_greedy;
          test_tryn_never_worse_than_greedy;
        ] );
  ]
