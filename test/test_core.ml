(* Tests for Ba_core: the cost model (Table 1), exact layout costing, and
   the Greedy / Cost / Try15 alignment algorithms, including the paper's
   Figure 3 loop-alignment cycle counts. *)

open Ba_ir
open Ba_core

let table = Cost_model.default_table

let check_cost = Alcotest.(check (float 1e-9))

(* -- Cost_model (Table 1) -------------------------------------------------- *)

let test_table1_static_costs () =
  (* Unconditional: 2; fall-through: 1; predicted taken: 2; mispredicted: 5. *)
  check_cost "uncond" 2.0 (Cost_model.uncond_cost Cost_model.Fallthrough table);
  (* FALLTHROUGH: taken leg always mispredicted. *)
  check_cost "ft: taken mispredicted" 5.0
    (Cost_model.cond_cost Cost_model.Fallthrough table ~w_taken:1.0 ~w_fall:0.0
       ~taken_backward:true);
  check_cost "ft: fall correct" 1.0
    (Cost_model.cond_cost Cost_model.Fallthrough table ~w_taken:0.0 ~w_fall:1.0
       ~taken_backward:false)

let test_table1_btfnt () =
  (* Backward taken predicted: taken costs 2, fall-through costs 5. *)
  check_cost "backward taken" 2.0
    (Cost_model.cond_cost Cost_model.Btfnt table ~w_taken:1.0 ~w_fall:0.0
       ~taken_backward:true);
  check_cost "backward fall mispredicted" 5.0
    (Cost_model.cond_cost Cost_model.Btfnt table ~w_taken:0.0 ~w_fall:1.0
       ~taken_backward:true);
  check_cost "forward taken mispredicted" 5.0
    (Cost_model.cond_cost Cost_model.Btfnt table ~w_taken:1.0 ~w_fall:0.0
       ~taken_backward:false);
  check_cost "forward fall correct" 1.0
    (Cost_model.cond_cost Cost_model.Btfnt table ~w_taken:0.0 ~w_fall:1.0
       ~taken_backward:false)

let test_table1_likely () =
  (* LIKELY predicts the majority leg regardless of direction. *)
  check_cost "majority taken" (10.0 *. 2.0 +. 1.0 *. 5.0)
    (Cost_model.cond_cost Cost_model.Likely table ~w_taken:10.0 ~w_fall:1.0
       ~taken_backward:false);
  check_cost "majority fall" (10.0 *. 1.0 +. 1.0 *. 5.0)
    (Cost_model.cond_cost Cost_model.Likely table ~w_taken:1.0 ~w_fall:10.0
       ~taken_backward:false)

let test_dynamic_cost_assumptions () =
  (* PHT (§6): conditionals mispredicted 10% of the time.
     taken leg: 0.9*2 + 0.1*5 = 2.3 ; fall leg: 0.9*1 + 0.1*5 = 1.4. *)
  check_cost "pht taken" 2.3
    (Cost_model.cond_cost Cost_model.Pht table ~w_taken:1.0 ~w_fall:0.0
       ~taken_backward:false);
  check_cost "pht fall" 1.4
    (Cost_model.cond_cost Cost_model.Pht table ~w_taken:0.0 ~w_fall:1.0
       ~taken_backward:false);
  (* BTB additionally hits 90% of taken branches, removing their misfetch:
     taken leg: 0.9*(1 + 0.1*1) + 0.1*5 = 1.49. *)
  check_cost "btb taken" 1.49
    (Cost_model.cond_cost Cost_model.Btb table ~w_taken:1.0 ~w_fall:0.0
       ~taken_backward:false);
  check_cost "btb uncond" 1.1 (Cost_model.uncond_cost Cost_model.Btb table)

let test_neither_beats_taken_loop_fallthrough () =
  (* The paper's single-block loop argument (§4, Cost): under FALLTHROUGH a
     taken loop edge costs 5 per iteration, while inverting the sense and
     adding a jump costs 3 (1 + 2). *)
  let aligned_as_taken =
    Cost_model.cond_cost Cost_model.Fallthrough table ~w_taken:8999.0 ~w_fall:1.0
      ~taken_backward:true
  in
  let neither =
    Cost_model.cond_neither_cost Cost_model.Fallthrough table ~w_jump:8999.0
      ~w_taken:1.0 ~taken_backward:false
  in
  check_cost "taken loop" ((8999.0 *. 5.0) +. 1.0) aligned_as_taken;
  check_cost "inverted + jump" ((8999.0 *. 3.0) +. 5.0) neither;
  Alcotest.(check bool) "neither wins" true (neither < aligned_as_taken)

(* -- Figure 3: loop alignment ---------------------------------------------- *)

(* Loop A -> B -> C -> A with 9000 entries of A (8999 continues, 1 exit to
   D), reached from entry block E.  Laid out [E; A; D; B; C] the loop costs
   4 cycles per iteration (taken conditional + unconditional) for LIKELY —
   the paper's 36,002 cycles.  A rotated layout removes both. *)
let figure3_program () =
  let main =
    Proc.make ~name:"fig3"
      [|
        (* E *) Block.make ~insns:1 (Term.Jump 1);
        (* A *)
        Block.make ~insns:1
          (Term.Cond { on_true = 2; on_false = 4; behavior = Behavior.Loop 9000 });
        (* B *) Block.make ~insns:1 (Term.Jump 3);
        (* C *) Block.make ~insns:1 (Term.Jump 1);
        (* D *) Block.make ~insns:1 Term.Halt;
      |]
  in
  Program.make ~name:"figure3" ~seed:42 [| main |]

let figure3_cost ~arch decision =
  let prog = figure3_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:100_000 prog in
  let linear =
    Ba_layout.Lower.lower
      ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
      (Program.proc prog 0) decision
  in
  Layout_cost.branch_cost ~arch
    ~visits:(fun b -> Ba_cfg.Profile.visits profile 0 b)
    ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
    linear

let test_figure3_original_cost () =
  (* Original layout [E; A; D; B; C]:
     A's taken leg (B, 8999 traversals) correctly predicted by LIKELY: 2 ea;
     A's fall-through (exit, 1) mispredicted: 5;
     C's jump back: 2 x 8999; halt: 1.  Total 36,002 — Figure 3(a). *)
  let cost =
    figure3_cost ~arch:Cost_model.Likely
      (Ba_layout.Decision.of_order [| 0; 1; 4; 2; 3 |])
  in
  check_cost "paper figure 3(a)" 36002.0 cost

let test_figure3_paper_transformed_cost () =
  (* The paper's transformed layout keeps the loop in one chain with the
     header first: [E; A; B; C; D].  Continue leg falls through (1 ea), the
     back jump remains: 8999 + 5 + 17998 + 1 = 27,003 (the paper reports
     27,004 for its variant). *)
  let cost =
    figure3_cost ~arch:Cost_model.Likely
      (Ba_layout.Decision.of_order [| 0; 1; 2; 3; 4 |])
  in
  check_cost "paper figure 3(b)" 27003.0 cost

let test_figure3_tryn_improves () =
  let prog = figure3_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:100_000 prog in
  let original = figure3_cost ~arch:Cost_model.Likely (Ba_layout.Decision.identity (Program.proc prog 0)) in
  let decision = Align.align_proc (Align.Tryn 15) ~arch:Cost_model.Likely profile 0 in
  let aligned = figure3_cost ~arch:Cost_model.Likely decision in
  Alcotest.(check bool)
    (Printf.sprintf "Try15 (%.0f) at least matches the paper's transform (original %.0f)"
       aligned original)
    true
    (aligned <= 27003.0)

(* -- Greedy ---------------------------------------------------------------- *)

let diamond_program () =
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1
          (Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Bias 0.9 });
        Block.make ~insns:1 (Term.Jump 3);
        Block.make ~insns:1 (Term.Jump 3);
        Block.make ~insns:1
          (Term.Cond { on_true = 0; on_false = 4; behavior = Behavior.Loop 50 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  Program.make ~name:"diamond" ~seed:3 [| main |]

let test_greedy_links_hot_path () =
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  let ctx = Ctx.of_profile profile 0 in
  let chain = Greedy.build_chains ctx in
  (* The hot path 0 -> 1 -> 3 must be one chain. *)
  Alcotest.(check (option int)) "0 falls to 1" (Some 1) (Ba_layout.Chain.chain_succ chain 0);
  Alcotest.(check (option int)) "1 falls to 3" (Some 3) (Ba_layout.Chain.chain_succ chain 1)

let test_greedy_decision_valid () =
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  let d = Align.align_proc Align.Greedy profile 0 in
  Alcotest.(check bool) "valid decision" true
    (Result.is_ok (Ba_layout.Decision.validate (Program.proc prog 0) d))

(* -- Cost ------------------------------------------------------------------- *)

let self_loop_program () =
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1 (Term.Jump 1);
        Block.make ~insns:11
          (Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Loop 5000 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  Program.make ~name:"selfloop" ~seed:8 [| main |]

let test_cost_forbids_self_loop_fallthrough () =
  (* Under FALLTHROUGH, the Cost algorithm should choose "align neither
     edge" for the hot self-loop conditional (the ALVINN input_hidden case,
     Figure 2): its exit edge must NOT become the fall-through, because the
     inverted-sense-plus-jump lowering is cheaper. *)
  let prog = self_loop_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:100_000 prog in
  let ctx = Ctx.of_profile profile 0 in
  let chain = Cost_align.build_chains ~arch:Cost_model.Fallthrough ctx in
  Alcotest.(check (option int)) "no fall-through out of the loop block" None
    (Ba_layout.Chain.chain_succ chain 1);
  Alcotest.(check bool) "explicitly forbidden" true
    (Ba_layout.Chain.fallthrough_forbidden chain 1)

let test_cost_self_loop_cheaper_than_greedy () =
  let prog = self_loop_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:100_000 prog in
  let arch = Cost_model.Fallthrough in
  let eval algo =
    let d = Align.align_proc algo ~arch profile 0 in
    let linear =
      Ba_layout.Lower.lower
        ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
        (Program.proc prog 0) d
    in
    Layout_cost.branch_cost ~arch
      ~visits:(fun b -> Ba_cfg.Profile.visits profile 0 b)
      ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
      linear
  in
  let greedy = eval Align.Greedy in
  let cost = eval Align.Cost in
  Alcotest.(check bool)
    (Printf.sprintf "cost (%.0f) < greedy (%.0f)" cost greedy)
    true (cost < greedy)

(* -- Tryn -------------------------------------------------------------------- *)

let test_tryn_handles_group_boundaries () =
  (* n = 1 forces every edge into its own group; the algorithm must still
     produce a valid decision. *)
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  let d = Align.align_proc (Align.Tryn 1) ~arch:Cost_model.Fallthrough profile 0 in
  Alcotest.(check bool) "valid" true
    (Result.is_ok (Ba_layout.Decision.validate (Program.proc prog 0) d))

let test_tryn_rejects_bad_n () =
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  Alcotest.check_raises "n = 0" (Invalid_argument "Tryn.build_chains: n must be positive")
    (fun () -> ignore (Align.align_proc (Align.Tryn 0) ~arch:Cost_model.Fallthrough profile 0))

let test_tryn_never_worse_than_greedy_under_model () =
  (* On these deterministic workloads, Try15's exhaustive-within-group
     search should never lose to Greedy under the model it optimizes
     (FALLTHROUGH has no direction-guessing noise). *)
  List.iter
    (fun prog ->
      let profile = Ba_exec.Engine.profile_program ~max_steps:100_000 prog in
      let arch = Cost_model.Fallthrough in
      let eval algo =
        let d = Align.align_proc algo ~arch profile 0 in
        let linear =
          Ba_layout.Lower.lower
            ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
            (Program.proc prog 0) d
        in
        Layout_cost.branch_cost ~arch
          ~visits:(fun b -> Ba_cfg.Profile.visits profile 0 b)
          ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
          linear
      in
      let greedy = eval Align.Greedy in
      let tryn = eval (Align.Tryn 15) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: try15 (%.0f) <= greedy (%.0f)" prog.Program.name tryn greedy)
        true
        (tryn <= greedy +. 1e-6))
    [ diamond_program (); self_loop_program (); figure3_program () ]

(* -- Align front end --------------------------------------------------------- *)

let test_align_original_is_identity () =
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  let d = Align.align_proc Align.Original profile 0 in
  Alcotest.(check (array int)) "identity" [| 0; 1; 2; 3; 4 |] d.Ba_layout.Decision.order

let test_align_image_semantics_preserved () =
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  List.iter
    (fun algo ->
      let image = Align.image algo ~arch:Cost_model.Fallthrough profile in
      Alcotest.(check bool)
        (Align.algo_name algo ^ " image valid")
        true
        (Result.is_ok (Ba_layout.Image.validate image));
      let r = Ba_exec.Engine.run ~max_steps:10_000 image in
      let r0 = Ba_exec.Engine.run ~max_steps:10_000 (Ba_layout.Image.original prog) in
      Alcotest.(check int) (Align.algo_name algo ^ " same steps") r0.Ba_exec.Engine.steps
        r.Ba_exec.Engine.steps)
    [ Align.Original; Align.Greedy; Align.Cost; Align.Tryn 15 ]

let test_algo_names () =
  Alcotest.(check string) "orig" "Orig" (Align.algo_name Align.Original);
  Alcotest.(check string) "greedy" "Greedy" (Align.algo_name Align.Greedy);
  Alcotest.(check string) "cost" "Cost" (Align.algo_name Align.Cost);
  Alcotest.(check string) "try15" "Try15" (Align.algo_name (Align.Tryn 15))

(* -- Exhaustive (optimality reference) --------------------------------------- *)

let test_exhaustive_matches_figure3 () =
  (* On the Figure 3 loop the optimal LIKELY layout is the 18,006-cycle
     rotation Try15 finds (18,005 in branch cost without the halt? the halt
     is included by branch_cost, so both report the same number). *)
  let prog = figure3_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:100_000 prog in
  let opt = Exhaustive.optimal_cost ~arch:Cost_model.Likely profile 0 in
  let try15 =
    figure3_cost ~arch:Cost_model.Likely
      (Align.align_proc (Align.Tryn 15) ~arch:Cost_model.Likely profile 0)
  in
  Alcotest.(check (float 1e-6)) "try15 is optimal here" opt try15;
  Alcotest.(check bool) "strictly better than the paper's transform" true (opt < 27003.0)

let test_exhaustive_lower_bounds_heuristics () =
  (* The exhaustive optimum never exceeds any heuristic's exact cost. *)
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  List.iter
    (fun arch ->
      let opt = Exhaustive.optimal_cost ~arch profile 0 in
      List.iter
        (fun algo ->
          let d = Align.align_proc algo ~arch profile 0 in
          let linear =
            Ba_layout.Lower.lower
              ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
              (Program.proc prog 0) d
          in
          let c =
            Layout_cost.branch_cost ~arch
              ~visits:(fun b -> Ba_cfg.Profile.visits profile 0 b)
              ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile 0 b)
              linear
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: optimal (%.0f) <= heuristic (%.0f)"
               (Cost_model.arch_name arch) (Align.algo_name algo) opt c)
            true
            (opt <= c +. 1e-6))
        [ Align.Original; Align.Greedy; Align.Cost; Align.Tryn 15 ])
    Cost_model.all_arches

let test_exhaustive_rejects_large () =
  let w = Option.get (Ba_workloads.Spec.by_name "gcc") in
  let prog = w.Ba_workloads.Spec.build () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:5_000 prog in
  Alcotest.(check bool) "too many blocks" true
    (try
       ignore (Exhaustive.align_proc ~arch:Cost_model.Fallthrough profile 1);
       false
     with Invalid_argument _ -> true)

let test_tryn_near_optimal_on_small_procs () =
  (* Quantified optimality gap: on every workload procedure small enough to
     enumerate, Try15's exact FALLTHROUGH cost is within 5% of optimal. *)
  let checked = ref 0 in
  List.iter
    (fun name ->
      let w = Option.get (Ba_workloads.Spec.by_name name) in
      let prog = w.Ba_workloads.Spec.build () in
      let profile = Ba_exec.Engine.profile_program ~max_steps:50_000 prog in
      for pid = 0 to Program.n_procs prog - 1 do
        let proc = Program.proc prog pid in
        if Proc.n_blocks proc <= 7 then begin
          incr checked;
          let arch = Cost_model.Fallthrough in
          let opt = Exhaustive.optimal_cost ~arch profile pid in
          let d = Align.align_proc (Align.Tryn 15) ~arch profile pid in
          let c =
            Layout_cost.branch_cost ~arch
              ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
              ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
              (Ba_layout.Lower.lower
                 ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
                 proc d)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s proc %d: try15 (%.0f) within 5%% of optimal (%.0f)"
               name pid c opt)
            true
            (c <= (opt *. 1.05) +. 5.0)
        end
      done)
    [ "alvinn"; "swm256"; "ora"; "compress" ];
  Alcotest.(check bool) "checked at least 4 procedures" true (!checked >= 4)

(* -- iterative refinement ----------------------------------------------------- *)

let test_refinement_never_hurts_btfnt () =
  (* Re-aligning with the previous layout's real directions must not lose to
     the single guess-based pass, measured by the exact evaluator. *)
  let w = Option.get (Ba_workloads.Spec.by_name "compress") in
  let prog = w.Ba_workloads.Spec.build () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:60_000 prog in
  let arch = Cost_model.Btfnt in
  let exact_cost rounds =
    let decisions =
      Align.align_program (Align.Tryn 15) ~arch ~refine_rounds:rounds profile
    in
    let image = Ba_layout.Image.build ~profile prog decisions in
    Array.to_list image.Ba_layout.Image.linears
    |> List.mapi (fun pid linear ->
           Layout_cost.branch_cost ~arch
             ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
             ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
             linear)
    |> List.fold_left ( +. ) 0.0
  in
  let r1 = exact_cost 1 and r2 = exact_cost 2 in
  Alcotest.(check bool)
    (Printf.sprintf "refined (%.0f) <= unrefined (%.0f)" r2 r1)
    true (r2 <= r1 +. 1e-6)

let test_refinement_rejects_bad_rounds () =
  let prog = diamond_program () in
  let profile = Ba_exec.Engine.profile_program ~max_steps:10_000 prog in
  Alcotest.check_raises "rounds 0"
    (Invalid_argument "Align.align_proc: refine_rounds must be >= 1") (fun () ->
      ignore (Align.align_proc Align.Greedy ~refine_rounds:0 profile 0))

(* -- Unroll (§3 extension) --------------------------------------------------- *)

let test_unroll_rewrites_self_loop () =
  let prog = self_loop_program () in
  Alcotest.(check (list (pair int int))) "one site" [ (0, 1) ]
    (Unroll.unrollable_self_loops prog ~factor:2);
  let unrolled = Unroll.unroll_self_loops ~factor:2 prog in
  Alcotest.(check bool) "valid" true (Result.is_ok (Program.validate unrolled));
  Alcotest.(check int) "one copy appended" 4 (Program.total_blocks unrolled);
  (* Copy 0 falls into the appended copy, which carries the halved test. *)
  (match (Proc.block (Program.proc unrolled 0) 1).Block.term with
  | Term.Jump 3 -> ()
  | _ -> Alcotest.fail "original block should fall into its copy");
  match (Proc.block (Program.proc unrolled 0) 3).Block.term with
  | Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Loop 2500 } -> ()
  | _ -> Alcotest.fail "copy should loop back with halved trip count"

let test_unroll_preserves_work () =
  (* Same straight-line instructions per run, strictly fewer branches. *)
  let prog = self_loop_program () in
  let unrolled = Unroll.unroll_self_loops ~factor:4 prog in
  let r0 = Ba_exec.Engine.run ~max_steps:200_000 (Ba_layout.Image.original prog) in
  let r1 = Ba_exec.Engine.run ~max_steps:200_000 (Ba_layout.Image.original unrolled) in
  Alcotest.(check bool) "both complete" true
    (r0.Ba_exec.Engine.completed && r1.Ba_exec.Engine.completed);
  (* Straight-line work: body insns x trips is identical; total instructions
     shrink because 3 of every 4 loop tests disappear. *)
  Alcotest.(check bool) "fewer branches" true
    (r1.Ba_exec.Engine.branches < r0.Ba_exec.Engine.branches);
  Alcotest.(check bool) "fewer instructions" true
    (r1.Ba_exec.Engine.insns < r0.Ba_exec.Engine.insns);
  (* 5000 iterations of an 11-insn body appear in both runs. *)
  let body_work (r : Ba_exec.Engine.result) extra = r.Ba_exec.Engine.insns - extra in
  ignore body_work;
  let profile = Ba_cfg.Profile.create unrolled in
  let _ = Ba_exec.Engine.run ~max_steps:200_000 ~profile (Ba_layout.Image.original unrolled) in
  let body_visits =
    Ba_cfg.Profile.visits profile 0 1 + Ba_cfg.Profile.visits profile 0 3
    + Ba_cfg.Profile.visits profile 0 4
    + Ba_cfg.Profile.visits profile 0 5
  in
  Alcotest.(check int) "body executed 5000 times in total" 5000 body_visits

let test_unroll_skips_indivisible () =
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1 (Term.Jump 1);
        Block.make ~insns:5
          (Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Loop 7 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"odd" ~seed:1 [| main |] in
  Alcotest.(check (list (pair int int))) "7 not divisible by 2" []
    (Unroll.unrollable_self_loops prog ~factor:2);
  let unrolled = Unroll.unroll_self_loops ~factor:2 prog in
  Alcotest.(check int) "unchanged" (Program.total_blocks prog)
    (Program.total_blocks unrolled)

let test_unroll_rejects_bad_factor () =
  Alcotest.check_raises "factor 1"
    (Invalid_argument "Unroll.unroll_self_loops: factor must be >= 2") (fun () ->
      ignore (Unroll.unroll_self_loops ~factor:1 (self_loop_program ())))

let test_unroll_improves_fallthrough_cpi () =
  (* The paper's §3 claim: duplicating ALVINN's loop block reduces the
     misfetch penalty for all architectures and improves FALLTHROUGH
     prediction. *)
  let prog = self_loop_program () in
  let cpi program ~orig_insns =
    let profile = Ba_exec.Engine.profile_program ~max_steps:200_000 program in
    let image =
      Align.image (Align.Tryn 15) ~arch:Cost_model.Fallthrough profile
    in
    let out =
      Ba_sim.Runner.simulate ~max_steps:200_000
        ~archs:[ Ba_sim.Bep.Static_fallthrough ] image
    in
    let _, sim = out.Ba_sim.Runner.sims.(0) in
    Ba_sim.Bep.relative_cpi sim ~insns:out.Ba_sim.Runner.result.Ba_exec.Engine.insns
      ~orig_insns
  in
  let orig_insns =
    (Ba_exec.Engine.run ~max_steps:200_000 (Ba_layout.Image.original prog))
      .Ba_exec.Engine.insns
  in
  let aligned = cpi prog ~orig_insns in
  let unrolled = cpi (Unroll.unroll_self_loops ~factor:4 prog) ~orig_insns in
  Alcotest.(check bool)
    (Printf.sprintf "unrolled (%.3f) < aligned (%.3f)" unrolled aligned)
    true (unrolled < aligned)

(* -- QCheck -------------------------------------------------------------------- *)

let qcheck_cases =
  let open QCheck in
  let algos = [ Align.Greedy; Align.Cost; Align.Tryn 5 ] in
  [
    Test.make ~name:"alignment always yields valid decisions" ~count:60
      Gen_prog.program_arb (fun p ->
        let profile = Ba_exec.Engine.profile_program ~max_steps:3_000 p in
        List.for_all
          (fun algo ->
            let ds = Align.align_program algo ~arch:Cost_model.Btfnt profile in
            Array.for_all2
              (fun d proc -> Result.is_ok (Ba_layout.Decision.validate proc d))
              ds p.Program.procs)
          algos);
    Test.make ~name:"aligned images execute identically (semantics)" ~count:40
      Gen_prog.program_arb (fun p ->
        let profile = Ba_exec.Engine.profile_program ~max_steps:3_000 p in
        let r0 = Ba_exec.Engine.run ~max_steps:3_000 (Ba_layout.Image.original p) in
        List.for_all
          (fun algo ->
            let image = Align.image algo ~arch:Cost_model.Fallthrough profile in
            let r = Ba_exec.Engine.run ~max_steps:3_000 image in
            r.Ba_exec.Engine.steps = r0.Ba_exec.Engine.steps
            && r.Ba_exec.Engine.completed = r0.Ba_exec.Engine.completed)
          algos);
    Test.make ~name:"layout cost is non-negative and finite" ~count:60
      Gen_prog.program_arb (fun p ->
        let profile = Ba_exec.Engine.profile_program ~max_steps:3_000 p in
        List.for_all
          (fun arch ->
            let d = Align.align_program Align.Greedy ~arch profile in
            let image = Ba_layout.Image.build ~profile p d in
            Array.for_all
              (fun (linear : Ba_layout.Linear.t) ->
                let pid =
                  (* recover the procedure id by name lookup *)
                  let rec find i =
                    if Ba_ir.Program.proc p i == linear.Ba_layout.Linear.proc then i
                    else find (i + 1)
                  in
                  find 0
                in
                let c =
                  Layout_cost.branch_cost ~arch
                    ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
                    ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
                    linear
                in
                c >= 0.0 && Float.is_finite c)
              image.Ba_layout.Image.linears)
          Cost_model.all_arches);
  ]

let suites =
  [
    ( "core.cost_model",
      [
        Alcotest.test_case "table 1 static" `Quick test_table1_static_costs;
        Alcotest.test_case "bt/fnt" `Quick test_table1_btfnt;
        Alcotest.test_case "likely" `Quick test_table1_likely;
        Alcotest.test_case "dynamic assumptions" `Quick test_dynamic_cost_assumptions;
        Alcotest.test_case "loop inversion" `Quick test_neither_beats_taken_loop_fallthrough;
      ] );
    ( "core.figure3",
      [
        Alcotest.test_case "original 36,002" `Quick test_figure3_original_cost;
        Alcotest.test_case "transformed 27,003" `Quick test_figure3_paper_transformed_cost;
        Alcotest.test_case "try15 improves" `Quick test_figure3_tryn_improves;
      ] );
    ( "core.greedy",
      [
        Alcotest.test_case "links hot path" `Quick test_greedy_links_hot_path;
        Alcotest.test_case "valid decision" `Quick test_greedy_decision_valid;
      ] );
    ( "core.cost_align",
      [
        Alcotest.test_case "self-loop neither" `Quick test_cost_forbids_self_loop_fallthrough;
        Alcotest.test_case "beats greedy on loop" `Quick test_cost_self_loop_cheaper_than_greedy;
      ] );
    ( "core.tryn",
      [
        Alcotest.test_case "group boundaries" `Quick test_tryn_handles_group_boundaries;
        Alcotest.test_case "rejects bad n" `Quick test_tryn_rejects_bad_n;
        Alcotest.test_case "never worse than greedy" `Quick
          test_tryn_never_worse_than_greedy_under_model;
      ] );
    ( "core.exhaustive",
      [
        Alcotest.test_case "figure 3 optimum" `Quick test_exhaustive_matches_figure3;
        Alcotest.test_case "lower bounds heuristics" `Slow
          test_exhaustive_lower_bounds_heuristics;
        Alcotest.test_case "rejects large procs" `Quick test_exhaustive_rejects_large;
        Alcotest.test_case "try15 near optimal" `Slow test_tryn_near_optimal_on_small_procs;
      ] );
    ( "core.refine",
      [
        Alcotest.test_case "never hurts bt/fnt" `Slow test_refinement_never_hurts_btfnt;
        Alcotest.test_case "rejects bad rounds" `Quick test_refinement_rejects_bad_rounds;
      ] );
    ( "core.unroll",
      [
        Alcotest.test_case "rewrites self-loop" `Quick test_unroll_rewrites_self_loop;
        Alcotest.test_case "preserves work" `Quick test_unroll_preserves_work;
        Alcotest.test_case "skips indivisible" `Quick test_unroll_skips_indivisible;
        Alcotest.test_case "rejects bad factor" `Quick test_unroll_rejects_bad_factor;
        Alcotest.test_case "improves FT CPI" `Quick test_unroll_improves_fallthrough_cpi;
      ] );
    ( "core.align",
      [
        Alcotest.test_case "original identity" `Quick test_align_original_is_identity;
        Alcotest.test_case "semantics preserved" `Quick test_align_image_semantics_preserved;
        Alcotest.test_case "algo names" `Quick test_algo_names;
      ] );
    ("core.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
