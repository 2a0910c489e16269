(* Tests for Ba_analysis: profile flow conservation on hand-built
   profiles, decision linting, and the corrupted-decision path through
   Run.check_pipeline that backs the CLI's non-zero exit. *)

open Ba_ir
open Ba_analysis

let cond ?(behavior = Behavior.Bias 0.9) t f =
  Term.Cond { on_true = t; on_false = f; behavior }

(* A single-procedure program with a counted loop:
   b0 (entry) -> b1 (loop head, cond) -> b2 (body) -> b1, exit to b3. *)
let loop_program () =
  let p =
    Proc.make ~name:"loop"
      [|
        Block.make (Term.Jump 1);
        Block.make (cond 2 3);
        Block.make (Term.Jump 1);
        Block.make Term.Halt;
      |]
  in
  Program.make ~name:"toy_loop" [| p |]

(* Hand-record a conserved profile: program start enters b0 once, the
   loop runs nine iterations, then exits.  Every counter satisfies the
   Kirchhoff laws exactly. *)
let conserved_profile program =
  let pr = Ba_cfg.Profile.create program in
  let visit b n =
    for _ = 1 to n do
      Ba_cfg.Profile.record_visit pr 0 b
    done
  in
  visit 0 1;
  visit 1 10;
  for _ = 1 to 9 do
    Ba_cfg.Profile.record_cond pr 0 1 true
  done;
  Ba_cfg.Profile.record_cond pr 0 1 false;
  visit 2 9;
  visit 3 1;
  pr

let has_rule rule diags =
  List.exists (fun d -> d.Diagnostic.rule = rule) diags

let errors diags =
  let e, _, _ = Diagnostic.count diags in
  e

let test_profile_conserved () =
  let program = loop_program () in
  let diags = Check_profile.check (conserved_profile program) in
  Alcotest.(check int) "no findings" 0 (List.length diags)

let test_profile_corrupted_visit () =
  let program = loop_program () in
  let pr = conserved_profile program in
  (* One phantom visit on the loop body: no incoming edge explains it. *)
  Ba_cfg.Profile.record_visit pr 0 2;
  let diags = Check_profile.check pr in
  Alcotest.(check bool) "flow conservation violated" true
    (has_rule "profile/flow-conservation" diags);
  Alcotest.(check bool) "reported as error" true (errors diags > 0)

let test_profile_corrupted_cond () =
  let program = loop_program () in
  let pr = conserved_profile program in
  (* One phantom resolution: true + false no longer sums to the visits. *)
  Ba_cfg.Profile.record_cond pr 0 1 true;
  let diags = Check_profile.check pr in
  Alcotest.(check bool) "cond resolution violated" true
    (has_rule "profile/cond-resolution" diags)

let test_profile_tolerates_one_in_flight () =
  (* A run cut off by the step budget leaves exactly one control transfer
     in flight (the loop body resolved its jump but the head was never
     re-entered); the single missing visit must not be an error. *)
  let program = loop_program () in
  let w = Ba_exec.Engine.profile_program ~max_steps:7 program in
  Alcotest.(check int) "truncated run still conserves" 0
    (errors (Check_profile.check w))

let diamond () =
  Proc.make ~name:"diamond"
    [|
      Block.make (cond 1 2);
      Block.make (Term.Jump 3);
      Block.make (Term.Jump 3);
      Block.make (cond 0 4);
      Block.make Term.Ret;
    |]

let test_decision_non_permutation () =
  let p = diamond () in
  let d = Ba_layout.Decision.of_order [| 0; 1; 1; 3; 4 |] in
  let diags = Check_decision.check ~proc_id:0 p d in
  Alcotest.(check bool) "duplicate flagged" true
    (has_rule "decision/duplicate-block" diags);
  Alcotest.(check bool) "missing flagged" true
    (has_rule "decision/missing-block" diags);
  Alcotest.(check bool) "errors" true (errors diags > 0)

let test_decision_entry_not_first () =
  let p = diamond () in
  let d = Ba_layout.Decision.of_order [| 1; 0; 2; 3; 4 |] in
  let diags = Check_decision.check ~proc_id:0 p d in
  Alcotest.(check bool) "entry not first flagged" true
    (has_rule "decision/entry-not-first" diags)

let test_decision_accepts_valid () =
  let p = diamond () in
  let d = Ba_layout.Decision.of_order [| 0; 3; 1; 2; 4 |] in
  Alcotest.(check int) "clean" 0
    (List.length (Check_decision.check ~proc_id:0 p d))

(* The CLI's failure path: an aligner that returns a corrupted decision
   must produce stage-3 errors and skip lowering entirely. *)
let test_corrupted_decision_through_run () =
  let program = loop_program () in
  let report =
    Run.check_pipeline ~profile:(conserved_profile program)
      ~align:(fun _ -> [| Ba_layout.Decision.of_order [| 0; 2; 2; 3 |] |])
      program
  in
  let decision_diags = List.assoc Run.Decision report.Run.stages in
  Alcotest.(check bool) "decision errors" true (errors decision_diags > 0);
  Alcotest.(check bool) "lowering skipped" false (Run.ran report Run.Linear);
  Alcotest.(check bool) "no image" true (report.Run.image = None)

let test_pipeline_clean_on_workload () =
  let w = List.hd Ba_workloads.Spec.all in
  let program = w.Ba_workloads.Spec.build () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:40_000 program in
  let report =
    Run.check_pipeline ~profile
      ~align:(Ba_core.Align.align_program (Ba_core.Align.Tryn 15))
      program
  in
  Alcotest.(check int) "no errors" 0 (Run.error_count report);
  List.iter
    (fun s ->
      Alcotest.(check bool) (Run.stage_name s ^ " ran") true (Run.ran report s))
    Run.core_stages;
  Alcotest.(check bool) "decisions kept" true (report.Run.decisions <> None);
  Alcotest.(check bool) "checked image kept" true (report.Run.image <> None)

(* IR errors stop the pipeline before alignment: only the IR stage runs,
   and the aligner is never called (aligning an invalid program would
   crash rather than lint). *)
let test_ir_error_skips_aligner () =
  let p =
    Proc.make ~name:"stranded"
      [| Block.make (Term.Jump 2); Block.make Term.Halt; Block.make Term.Halt |]
  in
  let program = Program.make ~name:"stranded" [| p |] in
  let report =
    Run.check_pipeline ~profile:(Ba_cfg.Profile.create program)
      ~align:(fun _ -> Alcotest.fail "aligner called on an invalid program")
      program
  in
  Alcotest.(check (list string)) "only the ir stage ran" [ "ir" ]
    (List.map (fun (s, _) -> Run.stage_name s) report.Run.stages);
  Alcotest.(check bool) "unreachable block flagged" true
    (has_rule "ir/unreachable-block" (Run.diagnostics report));
  Alcotest.(check bool) "no decisions" true (report.Run.decisions = None);
  Alcotest.(check bool) "no image" true (report.Run.image = None)

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "profile: conserved hand profile" `Quick
          test_profile_conserved;
        Alcotest.test_case "profile: phantom visit caught" `Quick
          test_profile_corrupted_visit;
        Alcotest.test_case "profile: phantom resolution caught" `Quick
          test_profile_corrupted_cond;
        Alcotest.test_case "profile: truncated run tolerated" `Quick
          test_profile_tolerates_one_in_flight;
        Alcotest.test_case "decision: non-permutation rejected" `Quick
          test_decision_non_permutation;
        Alcotest.test_case "decision: entry must be first" `Quick
          test_decision_entry_not_first;
        Alcotest.test_case "decision: valid layout accepted" `Quick
          test_decision_accepts_valid;
        Alcotest.test_case "run: corrupted decision fails layout check" `Quick
          test_corrupted_decision_through_run;
        Alcotest.test_case "run: full pipeline clean on a workload" `Quick
          test_pipeline_clean_on_workload;
        Alcotest.test_case "run: IR errors skip the aligner" `Quick
          test_ir_error_skips_aligner;
      ] );
  ]
