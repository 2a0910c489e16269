(* Tests for Ba_exec: interpreter semantics, determinism, layout
   equivalence, trace statistics. *)

open Ba_ir
open Ba_layout
open Ba_exec

let cond ?(behavior = Behavior.Bias 0.5) t f =
  Term.Cond { on_true = t; on_false = f; behavior }

let run_events ?max_steps image =
  let events = ref [] in
  let result = Engine.run ?max_steps ~on_event:(fun e -> events := e :: !events) image in
  (result, List.rev !events)

(* A tiny fully deterministic program:
   main: b0 (2 insns, call p1) -> b1 (1 insn, halt)
   p1:   b0 (3 insns, ret) *)
let call_program () =
  let callee = Proc.make ~name:"callee" [| Block.make ~insns:3 Term.Ret |] in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:2 (Term.Call { callee = 1; next = 1 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  Program.make ~name:"call" ~seed:7 [| main; callee |]

let test_call_ret_sequence () =
  let image = Image.original (call_program ()) in
  let result, events = run_events image in
  Alcotest.(check bool) "completed" true result.Engine.completed;
  (* call (1) + callee straight (3) + ret (1) + main straight already counted:
     2 + 1 + 3 + 1 + 1 + 1(halt) = 9 *)
  Alcotest.(check int) "insns" 9 result.Engine.insns;
  Alcotest.(check int) "steps" 3 result.Engine.steps;
  match events with
  | [ call; ret ] ->
    Alcotest.(check bool) "call kind" true (call.Event.kind = Event.Call);
    Alcotest.(check int) "call pc" 2 call.Event.pc;
    Alcotest.(check int) "call target = callee base" 5 call.Event.target;
    Alcotest.(check bool) "ret kind" true (ret.Event.kind = Event.Ret);
    Alcotest.(check int) "ret target = after call" 3 ret.Event.target
  | _ -> Alcotest.failf "expected 2 events, got %d" (List.length events)

let test_loop_program () =
  (* b0: loop header, cond Loop 4 -> self-ish structure:
     b0 (cond true->b1 body, false->b2 exit); b1 jumps back to b0; b2 halts. *)
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1 (cond ~behavior:(Behavior.Loop 4) 1 2);
        Block.make ~insns:2 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"loop" ~seed:1 [| main |] in
  let image = Image.original prog in
  let result, events = run_events image in
  Alcotest.(check bool) "completed" true result.Engine.completed;
  (* Loop 4: T T T N -> 3 iterations of body, then exit.
     steps: b0,b1 three times, then b0,b2 -> 8 *)
  Alcotest.(check int) "steps" 8 result.Engine.steps;
  let conds =
    List.filter (fun e -> match e.Event.kind with Event.Cond _ -> true | _ -> false) events
  in
  Alcotest.(check int) "cond executions" 4 (List.length conds);
  let taken = List.filter Event.is_taken conds in
  (* on_true = b1 is the fall-through in the original layout, so the three
     "continue" outcomes are NOT taken and the final exit IS taken. *)
  Alcotest.(check int) "taken conds" 1 (List.length taken)

let test_determinism () =
  let prog = call_program () in
  let image = Image.original prog in
  let r1, e1 = run_events image in
  let r2, e2 = run_events image in
  Alcotest.(check int) "same insns" r1.Engine.insns r2.Engine.insns;
  Alcotest.(check bool) "same events" true (e1 = e2)

let test_max_steps_budget () =
  (* Infinite loop: b0 jumps to itself... not allowed by validate
     (unreachable b1 if any); use a 2-block spin. *)
  let main =
    Proc.make ~name:"spin"
      [|
        Block.make ~insns:1 (Term.Jump 1);
        Block.make ~insns:1 (Term.Jump 0);
      |]
  in
  let prog = Program.make ~name:"spin" [| main |] in
  let image = Image.original prog in
  let result = Engine.run ~max_steps:100 image in
  Alcotest.(check int) "stops at budget" 100 result.Engine.steps;
  Alcotest.(check bool) "not completed" false result.Engine.completed

let test_ret_from_main_halts () =
  let main = Proc.make ~name:"main" [| Block.make ~insns:1 Term.Ret |] in
  let prog = Program.make ~name:"retmain" [| main |] in
  let result, events = run_events (Image.original prog) in
  Alcotest.(check bool) "completed" true result.Engine.completed;
  Alcotest.(check int) "one event" 1 (List.length events)

let test_profile_collection () =
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1 (cond ~behavior:(Behavior.Loop 5) 1 2);
        Block.make ~insns:2 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"prof" ~seed:3 [| main |] in
  let profile = Engine.profile_program prog in
  Alcotest.(check int) "header visits" 5 (Ba_cfg.Profile.visits profile 0 0);
  Alcotest.(check int) "body visits" 4 (Ba_cfg.Profile.visits profile 0 1);
  Alcotest.(check (pair int int)) "cond counts" (4, 1) (Ba_cfg.Profile.cond_counts profile 0 0)

let test_inserted_jump_event () =
  (* Self-loop in a layout where neither leg is adjacent: check the extra
     Uncond event and instruction accounting. *)
  let main =
    Proc.make ~name:"selfloop"
      [|
        Block.make ~insns:1 (Term.Jump 1);
        Block.make ~insns:2 (cond ~behavior:(Behavior.Loop 3) 1 2);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"self" ~seed:5 [| main |] in
  let profile = Engine.profile_program prog in
  (* Lay the loop block out last so neither leg is adjacent. *)
  let image = Image.build ~profile prog [| Decision.of_order [| 0; 2; 1 |] |] in
  let _, events = run_events image in
  let unconds = List.filter (fun e -> e.Event.kind = Event.Uncond) events in
  (* The entry jump to the loop block, plus the loop exit (Loop 3 -> T T N:
     continues are taken branches under the natural encoding; the final
     not-taken outcome goes through the inserted jump to the exit block). *)
  Alcotest.(check int) "entry jump + exit jump" 2 (List.length unconds);
  let conds =
    List.filter (fun e -> match e.Event.kind with Event.Cond _ -> true | _ -> false) events
  in
  Alcotest.(check int) "loop test executed thrice" 3 (List.length conds);
  Alcotest.(check int) "continues taken" 2 (List.length (List.filter Event.is_taken conds))

let test_vcall_dispatch () =
  let leaf name = Proc.make ~name [| Block.make ~insns:1 Term.Ret |] in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1
          (Term.Vcall { callees = [| (1, 1.0); (2, 1.0) |]; next = 1 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"vc" ~seed:9 [| main; leaf "a"; leaf "b" |] in
  let _, events = run_events (Image.original prog) in
  let icalls = List.filter (fun e -> e.Event.kind = Event.Indirect_call) events in
  Alcotest.(check int) "one indirect call" 1 (List.length icalls)

let test_switch_dispatch () =
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1 (Term.Switch { targets = [| (1, 1.0); (2, 1.0) |] });
        Block.make ~insns:1 (Term.Jump 3);
        Block.make ~insns:1 (Term.Jump 3);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"sw" ~seed:11 [| main |] in
  let profile = Ba_cfg.Profile.create prog in
  let result = Engine.run ~profile (Image.original prog) in
  Alcotest.(check bool) "completed" true result.Engine.completed;
  let c1 = Ba_cfg.Profile.visits profile 0 1 and c2 = Ba_cfg.Profile.visits profile 0 2 in
  Alcotest.(check int) "exactly one case taken" 1 (c1 + c2)

(* The central property: the semantic execution is independent of layout. *)
let semantic_equivalence (p, ds) =
  let max_steps = 3_000 in
  let prof_orig = Ba_cfg.Profile.create p in
  let r_orig = Engine.run ~profile:prof_orig ~max_steps (Image.original p) in
  let prof_alt = Ba_cfg.Profile.create p in
  let r_alt = Engine.run ~profile:prof_alt ~max_steps (Image.build p ds) in
  let same_profiles =
    let ok = ref true in
    Program.iter_blocks p (fun pid b blk ->
        if Ba_cfg.Profile.visits prof_orig pid b <> Ba_cfg.Profile.visits prof_alt pid b
        then ok := false;
        match blk.Block.term with
        | Term.Cond _ ->
          if
            Ba_cfg.Profile.cond_counts prof_orig pid b
            <> Ba_cfg.Profile.cond_counts prof_alt pid b
          then ok := false
        | _ -> ());
    !ok
  in
  r_orig.Engine.steps = r_alt.Engine.steps
  && r_orig.Engine.completed = r_alt.Engine.completed
  && same_profiles

let test_trace_stats () =
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:8 (cond ~behavior:(Behavior.Loop 10) 1 2);
        Block.make ~insns:2 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let prog = Program.make ~name:"stats" ~seed:13 [| main |] in
  let stats = Trace_stats.create () in
  let result =
    Engine.run ~on_event:(Trace_stats.on_event stats) (Image.original prog)
  in
  let s = Trace_stats.summarize stats ~program:prog ~insns:result.Engine.insns in
  Alcotest.(check int) "static sites" 1 s.Trace_stats.static_cond_sites;
  Alcotest.(check int) "q100" 1 s.Trace_stats.q100;
  Alcotest.(check int) "q50" 1 s.Trace_stats.q50;
  (* Loop 10 with on_true adjacent: 9 not-taken continues + 1 taken exit. *)
  Alcotest.(check (float 0.01)) "pct taken" 10.0 s.Trace_stats.pct_taken;
  Alcotest.(check (float 0.01)) "pct fall-through" 90.0
    (Trace_stats.pct_cond_fallthrough stats);
  (* breaks: 10 cond + 9 uncond = 19; insns: 10*9 + 9*3 + 1*2 = 119. *)
  Alcotest.(check (float 0.01)) "pct breaks" (100.0 *. 19.0 /. 119.0) s.Trace_stats.pct_breaks;
  Alcotest.(check (float 0.01)) "pct cbr" (100.0 *. 10.0 /. 19.0) s.Trace_stats.pct_cbr;
  Alcotest.(check (float 0.01)) "pct br" (100.0 *. 9.0 /. 19.0) s.Trace_stats.pct_br

let test_trace_stats_negative_pc () =
  (* The per-pc counts are a flat array indexed without a bounds check, so
     a conditional at a negative pc must be refused, not counted into the
     word in front of the array. *)
  let stats = Trace_stats.create () in
  let cond pc = { Event.pc; target = 0; kind = Event.Cond { taken = true; taken_target = 0 } } in
  Trace_stats.on_event stats (cond 0);
  Alcotest.(check bool) "pc -1 refused" true
    (try
       Trace_stats.on_event stats (cond (-1));
       false
     with Invalid_argument _ -> true);
  let prog =
    Program.make ~name:"empty" ~seed:1
      [| Proc.make ~name:"main" [| Block.make ~insns:1 Term.Halt |] |]
  in
  let s = Trace_stats.summarize stats ~program:prog ~insns:1 in
  Alcotest.(check int) "only pc 0 counted" 1 s.Trace_stats.q100

let qcheck_cases =
  let open QCheck in
  [
    Test.make ~name:"semantic execution is layout independent" ~count:150
      Gen_prog.program_with_decisions_arb semantic_equivalence;
    Test.make ~name:"engine is deterministic" ~count:60 Gen_prog.program_arb (fun p ->
        let image = Image.original p in
        let r1 = Engine.run ~max_steps:2_000 image in
        let r2 = Engine.run ~max_steps:2_000 image in
        r1 = r2);
    Test.make ~name:"branch events never exceed instructions" ~count:60
      Gen_prog.program_arb (fun p ->
        let r = Engine.run ~max_steps:2_000 (Image.original p) in
        r.Engine.branches <= r.Engine.insns);
    Test.make ~name:"trace files round-trip" ~count:30 Gen_prog.program_arb (fun p ->
        let _, trace = Ba_trace.Record.run ~max_steps:1_000 (Image.original p) in
        let path = Filename.temp_file "ba_qc" ".bast" in
        Ba_trace.Trace.save ~path ~seed:p.Program.seed ~max_steps:1_000 trace;
        let f = Ba_trace.Trace.load ~path in
        Sys.remove path;
        f.Ba_trace.Trace.seed = p.Program.seed
        && f.Ba_trace.Trace.max_steps = 1_000
        && Ba_trace.Trace.equal f.Ba_trace.Trace.trace trace);
  ]

let suites =
  [
    ( "exec.engine",
      [
        Alcotest.test_case "call/ret sequence" `Quick test_call_ret_sequence;
        Alcotest.test_case "loop program" `Quick test_loop_program;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "max_steps budget" `Quick test_max_steps_budget;
        Alcotest.test_case "ret from main halts" `Quick test_ret_from_main_halts;
        Alcotest.test_case "profile collection" `Quick test_profile_collection;
        Alcotest.test_case "inserted jump events" `Quick test_inserted_jump_event;
        Alcotest.test_case "vcall dispatch" `Quick test_vcall_dispatch;
        Alcotest.test_case "switch dispatch" `Quick test_switch_dispatch;
      ] );
    ( "exec.trace_stats",
      [
        Alcotest.test_case "loop stats" `Quick test_trace_stats;
        Alcotest.test_case "negative pc refused" `Quick test_trace_stats_negative_pc;
      ] );
    ("exec.properties", List.map QCheck_alcotest.to_alcotest qcheck_cases);
  ]
