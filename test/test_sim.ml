(* Tests for Ba_sim: BEP accounting rules per architecture (§6), relative
   CPI, the multi-architecture runner, and the Alpha 21064 timing model. *)

open Ba_exec
open Ba_sim

let cond_ev ?(pc = 100) ~taken ~taken_target () =
  {
    Event.pc;
    target = (if taken then taken_target else pc + 1);
    kind = Event.Cond { taken; taken_target };
  }

let feed arch events =
  let sim = Bep.create arch in
  List.iter (Bep.on_event sim) events;
  sim

(* -- static/PHT accounting rules ------------------------------------------ *)

let test_fallthrough_rule () =
  (* FALLTHROUGH predicts not-taken: a taken conditional is a mispredict,
     a not-taken one is free. *)
  let sim =
    feed Bep.Static_fallthrough
      [
        cond_ev ~taken:true ~taken_target:50 ();
        cond_ev ~taken:false ~taken_target:50 ();
      ]
  in
  let c = Bep.counts sim in
  Alcotest.(check int) "mispredicts" 1 c.Bep.mispredicts;
  Alcotest.(check int) "misfetches" 0 c.Bep.misfetches;
  Alcotest.(check int) "bep" 4 (Bep.bep sim);
  Alcotest.(check (float 1e-9)) "accuracy" 0.5 (Bep.cond_accuracy sim)

let test_btfnt_rule () =
  (* Backward taken: correctly predicted taken -> misfetch only.
     Forward taken: mispredict.  Backward not-taken: mispredict. *)
  let sim =
    feed Bep.Static_btfnt
      [
        cond_ev ~taken:true ~taken_target:50 ();
        (* backward, taken: misfetch *)
        cond_ev ~taken:true ~taken_target:150 ();
        (* forward, taken: mispredict *)
        cond_ev ~taken:false ~taken_target:50 ();
        (* backward, not taken: mispredict *)
        cond_ev ~taken:false ~taken_target:150 ();
        (* forward, not taken: free *)
      ]
  in
  let c = Bep.counts sim in
  Alcotest.(check int) "misfetches" 1 c.Bep.misfetches;
  Alcotest.(check int) "mispredicts" 2 c.Bep.mispredicts;
  Alcotest.(check int) "bep" 9 (Bep.bep sim)

let test_uncond_call_misfetch () =
  let sim =
    feed Bep.Static_fallthrough
      [
        { Event.pc = 10; target = 50; kind = Event.Uncond };
        { Event.pc = 20; target = 80; kind = Event.Call };
      ]
  in
  let c = Bep.counts sim in
  Alcotest.(check int) "two misfetches" 2 c.Bep.misfetches;
  Alcotest.(check int) "no mispredicts" 0 c.Bep.mispredicts

let test_indirect_mispredict () =
  let sim =
    feed Bep.Static_fallthrough
      [
        { Event.pc = 10; target = 50; kind = Event.Indirect_jump };
        { Event.pc = 20; target = 80; kind = Event.Indirect_call };
      ]
  in
  Alcotest.(check int) "two mispredicts" 2 (Bep.counts sim).Bep.mispredicts

let test_return_stack_predicts () =
  (* A call followed by a return to the call's fall-through is free; a
     return to anywhere else is a mispredict. *)
  let sim =
    feed Bep.Static_fallthrough
      [
        { Event.pc = 20; target = 80; kind = Event.Call };
        { Event.pc = 95; target = 21; kind = Event.Ret };
      ]
  in
  let c = Bep.counts sim in
  Alcotest.(check int) "correct return" 1 c.Bep.rets_correct;
  Alcotest.(check int) "call misfetch only" 1 c.Bep.misfetches;
  Alcotest.(check int) "no mispredict" 0 c.Bep.mispredicts;
  let sim2 =
    feed Bep.Static_fallthrough [ { Event.pc = 95; target = 21; kind = Event.Ret } ]
  in
  Alcotest.(check int) "empty stack mispredicts" 1 (Bep.counts sim2).Bep.mispredicts

let test_pht_learns () =
  (* Ten consecutive taken executions of one conditional: the 2-bit counter
     mispredicts at most the first two, then predicts taken (misfetch). *)
  let events = List.init 10 (fun _ -> cond_ev ~taken:true ~taken_target:50 ()) in
  let sim = feed (Bep.Pht_direct { entries = 64 }) events in
  let c = Bep.counts sim in
  Alcotest.(check int) "early mispredicts" 1 c.Bep.mispredicts;
  Alcotest.(check int) "then misfetches" 9 c.Bep.misfetches

let test_likely_uses_hints () =
  let bits = Hashtbl.create 4 in
  Hashtbl.replace bits 100 true;
  (* Build Likely_bits through its public constructor path: fake it with a
     tiny program instead. *)
  ignore bits;
  let open Ba_ir in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1
          (Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Loop 10 });
        Block.make ~insns:1 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"lk" ~seed:2 [| main |] in
  let profile = Ba_exec.Engine.profile_program prog in
  let image = Ba_layout.Image.original prog in
  let likely = Ba_predict.Likely_bits.build image profile in
  let sim = Bep.create (Bep.Static_likely likely) in
  let result = Engine.run ~on_event:(Bep.on_event sim) image in
  ignore result;
  let c = Bep.counts sim in
  (* Loop 10, on_true adjacent: 9 not-taken (hint says not-taken: correct,
     free) + 1 taken exit (mispredicted); the 9 back jumps each misfetch. *)
  Alcotest.(check int) "correct" 9 c.Bep.cond_correct;
  Alcotest.(check int) "mispredicts" 1 c.Bep.mispredicts;
  Alcotest.(check int) "misfetches" 9 c.Bep.misfetches

(* -- BTB accounting --------------------------------------------------------- *)

let test_btb_taken_hit_free () =
  let arch = Bep.Btb_arch { entries = 64; assoc = 2 } in
  let events = List.init 5 (fun _ -> cond_ev ~taken:true ~taken_target:50 ()) in
  let sim = feed arch events in
  let c = Bep.counts sim in
  (* First execution misses (predicted not-taken): mispredict; later ones
     hit with a strongly-taken counter and the right target: free. *)
  Alcotest.(check int) "one mispredict" 1 c.Bep.mispredicts;
  Alcotest.(check int) "no misfetch" 0 c.Bep.misfetches;
  Alcotest.(check int) "rest correct" 4 c.Bep.cond_correct

let test_btb_uncond_miss_misfetch () =
  let arch = Bep.Btb_arch { entries = 64; assoc = 2 } in
  let ev = { Event.pc = 10; target = 50; kind = Event.Uncond } in
  let sim = feed arch [ ev; ev ] in
  let c = Bep.counts sim in
  Alcotest.(check int) "first miss misfetches" 1 c.Bep.misfetches;
  Alcotest.(check int) "no mispredicts" 0 c.Bep.mispredicts

let test_btb_indirect_target_change () =
  let arch = Bep.Btb_arch { entries = 64; assoc = 2 } in
  let ev target = { Event.pc = 10; target; kind = Event.Indirect_jump } in
  let sim = feed arch [ ev 50; ev 50; ev 70 ] in
  let c = Bep.counts sim in
  (* miss (mispredict), hit with right target (free), hit with stale target
     (mispredict). *)
  Alcotest.(check int) "mispredicts" 2 c.Bep.mispredicts

(* -- relative CPI ------------------------------------------------------------ *)

let test_relative_cpi () =
  let sim = feed Bep.Static_fallthrough [ cond_ev ~taken:true ~taken_target:50 () ] in
  (* bep = 4; aligned program ran 978 instructions, original 1000. *)
  Alcotest.(check (float 1e-9)) "relative cpi" 0.982
    (Bep.relative_cpi sim ~insns:978 ~orig_insns:1000)

(* -- runner ------------------------------------------------------------------- *)

let loop_program () =
  (* An entry block in front of the loop header, so rotation is possible
     (the procedure entry itself can never move). *)
  let open Ba_ir in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:2 (Term.Jump 1);
        Block.make ~insns:4
          (Term.Cond { on_true = 2; on_false = 3; behavior = Behavior.Loop 100 });
        Block.make ~insns:4 (Term.Jump 1);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  Program.make ~name:"runner" ~seed:4 [| main |]

let test_runner_multiple_archs () =
  let prog = loop_program () in
  let image = Ba_layout.Image.original prog in
  let out =
    Runner.simulate
      ~archs:[ Bep.Static_fallthrough; Bep.Static_btfnt; Bep.Pht_direct { entries = 64 } ]
      image
  in
  Alcotest.(check int) "three sims" 3 (Array.length out.Runner.sims);
  (* All sims saw the same conditionals. *)
  Array.iter
    (fun (_, sim) -> Alcotest.(check int) "cond count" 100 (Bep.counts sim).Bep.cond)
    out.Runner.sims;
  let insns = out.Runner.result.Engine.insns in
  Array.iter
    (fun (_, sim) ->
      Alcotest.(check bool) "cpi >= 1" true
        (Bep.relative_cpi sim ~insns ~orig_insns:insns >= 1.0))
    out.Runner.sims

let test_runner_stats_attached () =
  let prog = loop_program () in
  let out = Runner.simulate ~archs:[ Bep.Static_fallthrough ] (Ba_layout.Image.original prog) in
  Alcotest.(check (float 0.01)) "fall-through pct" 99.0
    (Trace_stats.pct_cond_fallthrough out.Runner.stats)

(* -- Alpha model --------------------------------------------------------------- *)

let test_alpha_cycles () =
  let alpha = Alpha.create () in
  (* one misfetch (uncond), one mispredict (indirect) *)
  Alpha.on_event alpha { Event.pc = 10; target = 50; kind = Event.Uncond };
  Alpha.on_event alpha { Event.pc = 20; target = 80; kind = Event.Indirect_jump };
  Alcotest.(check int) "misfetches" 1 (Alpha.misfetches alpha);
  Alcotest.(check int) "mispredicts" 1 (Alpha.mispredicts alpha);
  (* 100 insns dual-issue = 50 cycles + 0.7 * 1 + 5. *)
  Alcotest.(check (float 1e-9)) "cycles" 55.7 (Alpha.cycles alpha ~insns:100)

let test_alpha_learns_loop () =
  (* A backward loop branch is predicted taken from the first sight (BT/FNT
     fill) and stays predicted by its history bit. *)
  let alpha = Alpha.create () in
  for _ = 1 to 50 do
    Alpha.on_event alpha
      { Event.pc = 100; target = 50; kind = Event.Cond { taken = true; taken_target = 50 } }
  done;
  Alcotest.(check int) "no mispredicts" 0 (Alpha.mispredicts alpha);
  Alcotest.(check int) "misfetch per iteration" 50 (Alpha.misfetches alpha)

let test_alpha_alignment_helps_end_to_end () =
  (* The while-loop program: alignment removes the hot back jump, so the
     Alpha model must report fewer cycles. *)
  let prog = loop_program () in
  let profile = Engine.profile_program prog in
  let r_orig, a_orig = Runner.simulate_alpha (Ba_layout.Image.original prog) in
  let aligned =
    Ba_core.Align.image (Ba_core.Align.Tryn 15) ~arch:Ba_core.Cost_model.Btb profile
  in
  let r_al, a_al = Runner.simulate_alpha aligned in
  let c_orig = Alpha.cycles a_orig ~insns:r_orig.Engine.insns in
  let c_al = Alpha.cycles a_al ~insns:r_al.Engine.insns in
  Alcotest.(check bool)
    (Printf.sprintf "aligned (%.0f) < original (%.0f)" c_al c_orig)
    true (c_al < c_orig)

(* -- zero-allocation wall ------------------------------------------------------ *)

(* The simulators allocate nothing per event: replaying a recorded trace
   through one Bep of every architecture, and through the Alpha model with
   its icache and dual-issue table, costs a fixed number of minor words
   per run (the replayer's closures and the metric flushes), however long
   the trace.  A per-event option, tuple, closure or boxed compare result
   costs at least one word per branch and breaks the budget by orders of
   magnitude on these 200k-step traces. *)
let alloc_wall_budget = 1_000

let test_alloc_wall () =
  let runs = ref 0 and steps = ref 0 and worst = ref 0 in
  let measure label run =
    let before = Gc.minor_words () in
    let result : Engine.result = run () in
    let words = int_of_float (Gc.minor_words () -. before) in
    if words >= alloc_wall_budget then
      Alcotest.failf "%s: %d minor words over %d steps (budget %d per run)" label words
        result.Engine.steps alloc_wall_budget;
    incr runs;
    steps := !steps + result.Engine.steps;
    if words > !worst then worst := words
  in
  List.iter
    (fun name ->
      let w = Option.get (Ba_workloads.Spec.by_name name) in
      let _, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps:200_000 w in
      let image =
        Ba_core.Align.image Ba_core.Align.Greedy ~arch:Ba_core.Cost_model.Btb profile
      in
      let flat = Ba_trace.Flat.of_image image in
      List.iter
        (fun arch ->
          let sim = Bep.create arch in
          measure
            (Printf.sprintf "%s %s" name (Bep.arch_label arch))
            (fun () -> Ba_trace.Replay.run ~on_event:(Bep.on_event sim) flat trace))
        (Matrix.archs_for image profile);
      let issue =
        Ba_isa.Pairing.prefix_table (Ba_isa.Codegen.of_image ~fp_fraction:0.08 image)
      in
      let alpha = Alpha.create ~issue () in
      measure (name ^ " Alpha") (fun () ->
          Ba_trace.Replay.run ~on_event:(Alpha.on_event alpha)
            ~on_block:(Alpha.on_block alpha) flat trace))
    [ "gcc"; "compress"; "li" ];
  Printf.printf
    "alloc wall: %d simulator runs over %d steps, at most %d minor words per run (budget %d)\n%!"
    !runs !steps !worst alloc_wall_budget

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"bep is non-negative and bounded" ~count:50 Gen_prog.program_arb
      (fun p ->
        let image = Ba_layout.Image.original p in
        let out =
          Runner.simulate ~max_steps:2_000
            ~archs:
              [
                Bep.Static_fallthrough;
                Bep.Pht_gshare { entries = 256; history_bits = 8 };
                Bep.Btb_arch { entries = 64; assoc = 2 };
              ]
            image
        in
        Array.for_all
          (fun (_, sim) ->
            let b = Bep.bep sim in
            b >= 0 && b <= 5 * out.Runner.result.Engine.branches)
          out.Runner.sims);
    Test.make ~name:"cond counts agree across architectures" ~count:50
      Gen_prog.program_arb (fun p ->
        let image = Ba_layout.Image.original p in
        let out =
          Runner.simulate ~max_steps:2_000
            ~archs:[ Bep.Static_fallthrough; Bep.Static_btfnt ] image
        in
        match out.Runner.sims with
        | [| (_, a); (_, b) |] -> (Bep.counts a).Bep.cond = (Bep.counts b).Bep.cond
        | _ -> false);
  ]

let suites =
  [
    ( "sim.bep.static",
      [
        Alcotest.test_case "fallthrough rule" `Quick test_fallthrough_rule;
        Alcotest.test_case "btfnt rule" `Quick test_btfnt_rule;
        Alcotest.test_case "uncond/call misfetch" `Quick test_uncond_call_misfetch;
        Alcotest.test_case "indirect mispredict" `Quick test_indirect_mispredict;
        Alcotest.test_case "return stack" `Quick test_return_stack_predicts;
        Alcotest.test_case "pht learns" `Quick test_pht_learns;
        Alcotest.test_case "likely hints" `Quick test_likely_uses_hints;
      ] );
    ( "sim.bep.btb",
      [
        Alcotest.test_case "taken hit free" `Quick test_btb_taken_hit_free;
        Alcotest.test_case "uncond miss" `Quick test_btb_uncond_miss_misfetch;
        Alcotest.test_case "indirect target change" `Quick test_btb_indirect_target_change;
      ] );
    ( "sim.metrics",
      [ Alcotest.test_case "relative cpi" `Quick test_relative_cpi ] );
    ( "sim.runner",
      [
        Alcotest.test_case "multiple archs" `Quick test_runner_multiple_archs;
        Alcotest.test_case "stats attached" `Quick test_runner_stats_attached;
      ] );
    ( "sim.alpha",
      [
        Alcotest.test_case "cycles" `Quick test_alpha_cycles;
        Alcotest.test_case "learns loop" `Quick test_alpha_learns_loop;
        Alcotest.test_case "alignment helps" `Quick test_alpha_alignment_helps_end_to_end;
        Alcotest.test_case "alloc wall: every arch and Alpha allocation-free" `Slow
          test_alloc_wall;
      ] );
    ("sim.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
