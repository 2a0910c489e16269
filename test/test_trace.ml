(* Differential test wall for Ba_trace.

   The contract under test: a trace recorded in ONE interpreter pass over
   the original layout replays through {!Ba_trace.Flat}/{!Ba_trace.Replay}
   on EVERY layout of the same program, reproducing exactly the result,
   event stream, block stream, simulator books and [sim.*] metrics that a
   direct {!Ba_exec.Engine.run} on that layout produces.  Unit tests pin
   the tricky layout legs (inserted jumps, via-jump returns, truncation
   mid-call, switch/vcall varints); QCheck properties extend the claim to
   arbitrary generated programs and all four alignment algorithms; the
   loader tests pin that a malformed file fails with [Failure] alone; and
   the memo gate proves the record-once promise — one full evaluation
   costs exactly one interpreter run. *)

open Ba_ir
open Ba_layout
open Ba_exec

let cond ?(behavior = Behavior.Bias 0.5) t f =
  Term.Cond { on_true = t; on_false = f; behavior }

(* The replayer reuses one mutable scratch event for the whole run; copy
   (payload included) everything we retain past the callback. *)
let copy_event (e : Event.t) =
  {
    e with
    Event.kind =
      (match e.Event.kind with
      | Event.Cond { taken; taken_target } -> Event.Cond { taken; taken_target }
      | k -> k);
  }

type streams = {
  result : Engine.result;
  events : Event.t list;
  blocks : (int * int) list;
}

let direct_streams ?max_steps image =
  let events = ref [] and blocks = ref [] in
  let result =
    Engine.run ?max_steps
      ~on_event:(fun e -> events := copy_event e :: !events)
      ~on_block:(fun ~addr ~size -> blocks := (addr, size) :: !blocks)
      image
  in
  { result; events = List.rev !events; blocks = List.rev !blocks }

let replay_streams image trace =
  let events = ref [] and blocks = ref [] in
  let result =
    Ba_trace.Replay.run
      ~on_event:(fun e -> events := copy_event e :: !events)
      ~on_block:(fun ~addr ~size -> blocks := (addr, size) :: !blocks)
      (Ba_trace.Flat.of_image image) trace
  in
  { result; events = List.rev !events; blocks = List.rev !blocks }

let check_streams name direct replay =
  let r1 = direct.result and r2 = replay.result in
  if r1 <> r2 then
    Alcotest.failf
      "%s: results differ: direct {insns=%d;steps=%d;branches=%d;completed=%b} \
       replay {insns=%d;steps=%d;branches=%d;completed=%b}"
      name r1.Engine.insns r1.Engine.steps r1.Engine.branches r1.Engine.completed
      r2.Engine.insns r2.Engine.steps r2.Engine.branches r2.Engine.completed;
  let n1 = List.length direct.events and n2 = List.length replay.events in
  if n1 <> n2 then Alcotest.failf "%s: %d direct events vs %d replayed" name n1 n2;
  List.iteri
    (fun i (d, r) ->
      if d <> r then
        Alcotest.failf "%s: event %d differs: direct %a, replay %a" name i
          Event.pp d Event.pp r)
    (List.combine direct.events replay.events);
  Alcotest.(check bool) (name ^ ": block streams equal") true
    (direct.blocks = replay.blocks)

let count_kind k events =
  List.length (List.filter (fun e -> e.Event.kind = k) events)

(* -- packed format unit tests ---------------------------------------------- *)

let test_builder_bits () =
  let outcomes = [ true; false; true; true; false; false; true; false; true; true ] in
  let b = Ba_trace.Trace.Builder.create () in
  List.iter (Ba_trace.Trace.Builder.add_outcome b) outcomes;
  let t = Ba_trace.Trace.Builder.finish b ~steps:42 ~completed:true in
  Alcotest.(check int) "n_conds" (List.length outcomes) t.Ba_trace.Trace.n_conds;
  Alcotest.(check int) "steps" 42 t.Ba_trace.Trace.steps;
  Alcotest.(check bool) "completed" true t.Ba_trace.Trace.completed;
  Alcotest.(check int) "n_choices" 0 t.Ba_trace.Trace.n_choices;
  (* 10 bits pack into 2 bytes, LSB-first. *)
  Alcotest.(check int) "byte size" 2 (Ba_trace.Trace.byte_size t);
  List.iteri
    (fun i expect ->
      Alcotest.(check bool)
        (Printf.sprintf "bit %d" i)
        expect (Ba_trace.Trace.cond t i))
    outcomes;
  Alcotest.check_raises "out of range"
    (Invalid_argument "Trace.cond: index out of range") (fun () ->
      ignore (Ba_trace.Trace.cond t (List.length outcomes)));
  Alcotest.check_raises "negative"
    (Invalid_argument "Trace.cond: index out of range") (fun () ->
      ignore (Ba_trace.Trace.cond t (-1)))

let test_builder_varints () =
  (* LEB128 widths: 0, 1, 127 take one byte; 128, 300 take two. *)
  let b = Ba_trace.Trace.Builder.create () in
  List.iter (Ba_trace.Trace.Builder.add_choice b) [ 0; 1; 127; 128; 300 ];
  Ba_trace.Trace.Builder.add_outcome b true;
  let t = Ba_trace.Trace.Builder.finish b ~steps:1 ~completed:false in
  Alcotest.(check int) "n_choices" 5 t.Ba_trace.Trace.n_choices;
  Alcotest.(check int) "choices bytes + 1 cond byte" (7 + 1)
    (Ba_trace.Trace.byte_size t)

(* -- hand-built layout legs ------------------------------------------------ *)

(* main calls p1 and halts; fully deterministic, two events (call, ret). *)
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

let test_replay_call_ret () =
  let program = call_program () in
  let _profile, trace = Ba_trace.Record.profile_and_record program in
  let image = Image.original program in
  let direct = direct_streams image in
  let replay = replay_streams image trace in
  check_streams "call/ret" direct replay;
  Alcotest.(check int) "trace steps" direct.result.Engine.steps
    trace.Ba_trace.Trace.steps;
  Alcotest.(check bool) "trace completed" true trace.Ba_trace.Trace.completed;
  (* no conditionals, no switches: the decision streams are empty *)
  Alcotest.(check int) "no cond bits" 0 trace.Ba_trace.Trace.n_conds;
  Alcotest.(check int) "no choice varints" 0 trace.Ba_trace.Trace.n_choices

(* A loop block laid out so that neither conditional leg is adjacent: the
   not-adjacent false leg goes through an inserted jump (ocond's [c]
   operand), which the replayer must re-derive from the layout — the trace
   records only the semantic outcome bit. *)
let test_replay_inserted_jump () =
  let main =
    Proc.make ~name:"selfloop"
      [|
        Block.make ~insns:1 (Term.Jump 1);
        Block.make ~insns:2 (cond ~behavior:(Behavior.Loop 3) 1 2);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let program = Program.make ~name:"self" ~seed:5 [| main |] in
  let profile, trace = Ba_trace.Record.profile_and_record program in
  let image = Image.build ~profile program [| Decision.of_order [| 0; 2; 1 |] |] in
  let direct = direct_streams image in
  let replay = replay_streams image trace in
  check_streams "inserted jump" direct replay;
  (* entry jump + the loop-exit inserted jump must both appear *)
  Alcotest.(check int) "uncond events" 2 (count_kind Event.Uncond replay.events)

(* A call whose continuation block is NOT laid out after the call block:
   the return resumes through a return jump (ocall's [b]/[c] operands). *)
let test_replay_via_jump_return () =
  let callee = Proc.make ~name:"callee" [| Block.make ~insns:3 Term.Ret |] in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:2 (Term.Call { callee = 1; next = 1 });
        Block.make ~insns:1 (Term.Jump 2);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let program = Program.make ~name:"viajump" ~seed:11 [| main; callee |] in
  let profile, trace = Ba_trace.Record.profile_and_record program in
  let image =
    Image.build ~profile program
      [| Decision.of_order [| 0; 2; 1 |]; Decision.of_order [| 0 |] |]
  in
  let direct = direct_streams image in
  let replay = replay_streams image trace in
  check_streams "via-jump return" direct replay;
  Alcotest.(check int) "one ret" 1 (count_kind Event.Ret replay.events);
  (* the continuation is reached through the inserted return jump *)
  Alcotest.(check bool) "return jump exercised" true
    (count_kind Event.Uncond replay.events >= 1)

(* Budget exhaustion inside a callee: the trace records the truncated run
   (completed = false) and the replay must stop at exactly the same block,
   with the call stack still open. *)
let test_replay_truncation_mid_call () =
  let callee =
    Proc.make ~name:"spin"
      [|
        Block.make ~insns:1 (cond ~behavior:(Behavior.Loop 100) 1 2);
        Block.make ~insns:2 (Term.Jump 0);
        Block.make ~insns:1 Term.Ret;
      |]
  in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:2 (Term.Call { callee = 1; next = 1 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let program = Program.make ~name:"trunc" ~seed:13 [| main; callee |] in
  let max_steps = 10 in
  let profile, trace = Ba_trace.Record.profile_and_record ~max_steps program in
  Alcotest.(check bool) "recorded run truncated" false
    trace.Ba_trace.Trace.completed;
  Alcotest.(check int) "recorded steps = budget" max_steps
    trace.Ba_trace.Trace.steps;
  let image =
    Image.build ~profile program
      [| Decision.of_order [| 0; 1 |]; Decision.of_order [| 0; 2; 1 |] |]
  in
  let direct = direct_streams ~max_steps image in
  let replay = replay_streams image trace in
  check_streams "truncation mid-call" direct replay;
  Alcotest.(check bool) "replay truncated too" false
    replay.result.Engine.completed

(* Switches and vcalls consume one varint each, whatever the layout: replay
   the same trace through two different layouts and check each against its
   own direct run. *)
let test_replay_switch_vcall () =
  let p1 = Proc.make ~name:"p1" [| Block.make ~insns:2 Term.Ret |] in
  let p2 = Proc.make ~name:"p2" [| Block.make ~insns:4 Term.Ret |] in
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1 (cond ~behavior:(Behavior.Loop 20) 1 5);
        Block.make ~insns:1
          (Term.Switch { targets = [| (2, 1.0); (3, 2.0); (4, 0.5) |] });
        Block.make ~insns:2 (Term.Jump 4);
        Block.make ~insns:3 (Term.Jump 4);
        Block.make ~insns:1
          (Term.Vcall { callees = [| (1, 1.0); (2, 3.0) |]; next = 0 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let program = Program.make ~name:"choices" ~seed:23 [| main; p1; p2 |] in
  let profile, trace = Ba_trace.Record.profile_and_record program in
  Alcotest.(check bool) "switch+vcall recorded" true
    (trace.Ba_trace.Trace.n_choices >= 2);
  let layouts =
    [
      ("original", Image.original ~profile program);
      ( "permuted",
        Image.build ~profile program
          [|
            Decision.of_order [| 0; 4; 3; 2; 1; 5 |];
            Decision.of_order [| 0 |];
            Decision.of_order [| 0 |];
          |] );
    ]
  in
  List.iter
    (fun (name, image) ->
      check_streams name (direct_streams image) (replay_streams image trace))
    layouts

(* -- disk round-trip ------------------------------------------------------- *)

let test_disk_roundtrip () =
  let program = call_program () in
  let _profile, trace =
    Ba_trace.Record.profile_and_record ~max_steps:500 program
  in
  let path = Filename.temp_file "ba_trace" ".bast" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ba_trace.Trace.save ~path ~seed:program.Program.seed ~max_steps:500 trace;
      let f = Ba_trace.Trace.load ~path in
      Alcotest.(check int) "seed" program.Program.seed f.Ba_trace.Trace.seed;
      Alcotest.(check int) "max_steps" 500 f.Ba_trace.Trace.max_steps;
      Alcotest.(check bool) "trace round-trips" true
        (f.Ba_trace.Trace.trace = trace))

let test_disk_bad_magic () =
  let path = Filename.temp_file "ba_trace" ".bast" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a trace file";
      close_out oc;
      match Ba_trace.Trace.load ~path with
      | _ -> Alcotest.fail "bad magic accepted"
      | exception Failure _ -> ())

(* -- malformed files ------------------------------------------------------- *)

let leb128 n =
  let b = Buffer.create 10 in
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7F)));
      go (n lsr 7)
    end
  in
  go n;
  Buffer.contents b

(* A BAST1 file built field by field in [Trace.save]'s order: 10 outcomes
   in 2 bytes, 2 indices in 3 bytes.  [conds_len] replaces the encoded
   cond-stream length; [trailer] is appended after the choice stream. *)
let bast_file ?conds_len ?(n_conds = 10) ?(conds = "\xa5\x02")
    ?(n_choices = 2) ?(trailer = "") () =
  let choices = "\x03\x81\x01" in
  String.concat ""
    [
      "BAST1\n"; leb128 0; leb128 500; leb128 40; "\001"; leb128 n_conds;
      Option.value conds_len ~default:(leb128 (String.length conds)); conds;
      leb128 n_choices; leb128 (String.length choices); choices; trailer;
    ]

let load_string contents =
  let path = Filename.temp_file "ba_trace" ".bast" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents);
      Ba_trace.Trace.load ~path)

let check_rejected what contents =
  match load_string contents with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Failure _ -> ()

let test_load_length_past_eof () =
  check_rejected "a 2^50-byte cond stream"
    (bast_file ~conds_len:(leb128 (1 lsl 50)) ())

let test_load_varint_overflow () =
  check_rejected "a 10-byte varint wrapping negative"
    (bast_file ~conds_len:"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" ());
  check_rejected "a varint past 62 bits"
    (bast_file ~conds_len:"\x80\x80\x80\x80\x80\x80\x80\x80\x40" ())

let test_load_cond_count () =
  check_rejected "1000 outcomes over a 1-byte stream"
    (bast_file ~n_conds:1000 ~conds:"\xa5" ());
  check_rejected "10 outcomes over a 3-byte stream"
    (bast_file ~conds:"\xa5\x02\x00" ())

let test_load_choice_count () =
  check_rejected "3 indices over 2 varints" (bast_file ~n_choices:3 ());
  check_rejected "1 index over 2 varints" (bast_file ~n_choices:1 ())

(* The untouched hand-built file loads, so each rejection above is down to
   its one defect. *)
let test_load_trailing_bytes () =
  let t = (load_string (bast_file ())).Ba_trace.Trace.trace in
  Alcotest.(check int) "outcomes" 10 t.Ba_trace.Trace.n_conds;
  Alcotest.(check int) "indices" 2 t.Ba_trace.Trace.n_choices;
  check_rejected "4 bytes after the choice stream"
    (bast_file ~trailer:"\000\000\000\000" ())

(* [save] writes beside its target and renames: the old file is replaced
   whole and no temporary is left behind. *)
let test_save_replaces_atomically () =
  let program = call_program () in
  let _profile, trace =
    Ba_trace.Record.profile_and_record ~max_steps:500 program
  in
  let dir = Filename.temp_dir "ba_trace" "" in
  let path = Filename.concat dir "t.bast" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "stale");
  Ba_trace.Trace.save ~path ~seed:program.Program.seed ~max_steps:500 trace;
  Alcotest.(check (array string)) "only the target remains" [| "t.bast" |]
    (Sys.readdir dir);
  Alcotest.(check bool) "the new trace replaced the old file" true
    (Ba_trace.Trace.equal trace (Ba_trace.Trace.load ~path).Ba_trace.Trace.trace);
  Sys.remove path;
  Sys.rmdir dir

(* -- record-once memo gate ------------------------------------------------- *)

(* The tentpole promise, asserted on the real harness: one full workload
   evaluation (7 architectures x 4 algorithm families, Alpha model
   included) costs exactly ONE interpreter pass; every other image replays
   the recorded trace. *)
let test_record_once_memo_gate () =
  let w = Option.get (Ba_workloads.Spec.by_name "compress") in
  Ba_workloads.Profiled.clear ();
  let registry = Ba_obs.Registry.create () in
  ignore
    (Ba_obs.Registry.with_registry registry (fun () ->
         Ba_report.Harness.evaluate ~max_steps:2_000 w));
  Alcotest.(check int) "exactly one interpreter run" 1
    (Ba_obs.Registry.counter_value registry "exec.engine.runs");
  (* The unit of work, pinned exactly: 7 Runner.simulate replays of the
     images scored on a dynamic predictor (orig, Greedy and ExtTsp on all
     seven architectures; Try15 and Anneal under PHT and under BTB) plus 3
     simulate_alpha replays (orig, Greedy, Try15), since compress is a SPEC
     C program.  The other 7 images are scored on static architectures
     only, which the closed form prices without a replay.  An evaluation
     that gains or drops a replay fails here. *)
  Alcotest.(check int) "only the dynamic images replayed" 10
    (Ba_obs.Registry.counter_value registry "exec.trace.replays");
  (* And the predictor work those replays do, pinned exactly: 10 replays
     of the 2,000-step trace, and the lookups, evictions and aliases of
     the BTB and PHT books.  A change that adds or drops predictor work
     per event fails here; a deliberate one re-pins these figures. *)
  List.iter
    (fun (name, expected) ->
      Alcotest.(check int) name expected (Ba_obs.Registry.counter_value registry name))
    [
      ("exec.trace.steps", 20_000);
      ("predict.btb.lookup", 14_144);
      ("predict.btb.evict", 0);
      ("predict.pht.lookup", 10_910);
      ("predict.pht.alias", 45);
    ];
  let _, misses = Ba_workloads.Profiled.stats () in
  Alcotest.(check int) "single memo miss" 1 misses;
  ignore (Ba_workloads.Profiled.get_traced ~max_steps:2_000 w);
  let hits, misses = Ba_workloads.Profiled.stats () in
  Alcotest.(check int) "still a single miss" 1 misses;
  Alcotest.(check bool) "subsequent lookups hit" true (hits > 0)

(* -- QCheck properties ----------------------------------------------------- *)

let fuzz_steps = 1_500

let algos = Ba_core.Align.[ Original; Greedy; Cost; Tryn 5 ]

let archs =
  Ba_sim.Bep.
    [
      Static_fallthrough;
      Static_btfnt;
      Pht_direct { entries = 512 };
      Pht_gshare { entries = 512; history_bits = 8 };
      Btb_arch { entries = 64; assoc = 2 };
    ]

let image_of ~profile program algo =
  Image.build ~profile program
    (Ba_core.Align.align_program algo ~arch:Ba_core.Cost_model.Fallthrough
       profile)

(* Replay produces the exact event/block/result streams of a direct run,
   on every algorithm's layout of an arbitrary program. *)
let test_qcheck_replay_streams =
  QCheck.Test.make ~name:"replay = direct: events, blocks, result" ~count:30
    Gen_prog.program_arb (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:fuzz_steps program
      in
      List.iter
        (fun algo ->
          let image = image_of ~profile program algo in
          let direct = direct_streams ~max_steps:fuzz_steps image in
          let replay = replay_streams image trace in
          check_streams (Ba_core.Align.algo_name algo) direct replay)
        algos;
      true)

(* The full simulation substrate agrees too: simulator books, penalty
   totals, trace statistics and the [sim.*] metric counters are identical
   between the interpret and replay paths. *)
let test_qcheck_replay_sims =
  QCheck.Test.make ~name:"replay = direct: Bep books and sim.* counters"
    ~count:20 Gen_prog.program_arb (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:fuzz_steps program
      in
      let run_sims image trace =
        let registry = Ba_obs.Registry.create () in
        let out =
          Ba_obs.Registry.with_registry registry (fun () ->
              Ba_sim.Runner.simulate ~max_steps:fuzz_steps ?trace ~archs image)
        in
        let counters =
          List.filter
            (fun (name, _) ->
              String.length name >= 4 && String.sub name 0 4 = "sim.")
            (Ba_obs.Registry.counters registry)
        in
        (out, counters)
      in
      List.iter
        (fun algo ->
          let image = image_of ~profile program algo in
          let direct, direct_counters = run_sims image None in
          let replay, replay_counters = run_sims image (Some trace) in
          let label = Ba_core.Align.algo_name algo in
          if direct.Ba_sim.Runner.result <> replay.Ba_sim.Runner.result then
            QCheck.Test.fail_reportf "%s: results differ" label;
          Array.iter2
            (fun (a1, s1) (a2, s2) ->
              if a1 <> a2 then
                QCheck.Test.fail_reportf "%s: arch order differs" label;
              if Ba_sim.Bep.counts s1 <> Ba_sim.Bep.counts s2 then
                QCheck.Test.fail_reportf "%s/%s: Bep books differ" label
                  (Ba_sim.Bep.arch_label a1);
              if Ba_sim.Bep.bep s1 <> Ba_sim.Bep.bep s2 then
                QCheck.Test.fail_reportf "%s/%s: penalty cycles differ" label
                  (Ba_sim.Bep.arch_label a1))
            direct.Ba_sim.Runner.sims replay.Ba_sim.Runner.sims;
          let summarize out =
            Ba_exec.Trace_stats.summarize out.Ba_sim.Runner.stats ~program
              ~insns:out.Ba_sim.Runner.result.Engine.insns
          in
          if summarize direct <> summarize replay then
            QCheck.Test.fail_reportf "%s: trace statistics differ" label;
          if direct_counters <> replay_counters then
            QCheck.Test.fail_reportf "%s: sim.* counters differ" label)
        algos;
      true)

(* Satellite: the binary-searched [Engine.weighted_index] must be
   draw-for-draw identical to the historical linear scan, zero-weight
   entries included. *)
let linear_weighted_index rng weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  let x = Ba_util.Rng.float rng total in
  let n = Array.length weights in
  let rec go i acc =
    let acc = acc +. weights.(i) in
    if x < acc || i = n - 1 then i else go (i + 1) acc
  in
  go 0 0.0

let test_qcheck_weighted_index =
  QCheck.Test.make ~name:"weighted_index = historical linear scan" ~count:500
    QCheck.(
      pair (int_bound 1_000_000)
        (array_of_size Gen.(int_range 1 8) (int_bound 100)))
    (fun (seed, raw) ->
      let weights = Array.map (fun w -> float_of_int w /. 10.0) raw in
      if Array.for_all (fun w -> w = 0.0) weights then weights.(0) <- 1.0;
      (* same seed, two independent generators: both sides consume exactly
         one draw, so the streams stay aligned *)
      let r1 = Ba_util.Rng.create seed and r2 = Ba_util.Rng.create seed in
      let fast = Engine.weighted_index r1 weights in
      let slow = linear_weighted_index r2 weights in
      if fast <> slow then
        QCheck.Test.fail_reportf "index %d <> linear %d on [|%s|]" fast slow
          (String.concat "; "
             (Array.to_list (Array.map string_of_float weights)))
      else true)

let suites =
  [
    ( "trace.format",
      [
        Alcotest.test_case "builder packs outcome bits" `Quick test_builder_bits;
        Alcotest.test_case "builder packs choice varints" `Quick
          test_builder_varints;
        Alcotest.test_case "disk round-trip" `Quick test_disk_roundtrip;
        Alcotest.test_case "bad magic rejected" `Quick test_disk_bad_magic;
        Alcotest.test_case "length past end of file rejected" `Quick
          test_load_length_past_eof;
        Alcotest.test_case "varint overflow rejected" `Quick
          test_load_varint_overflow;
        Alcotest.test_case "cond stream/count mismatch rejected" `Quick
          test_load_cond_count;
        Alcotest.test_case "choice stream/count mismatch rejected" `Quick
          test_load_choice_count;
        Alcotest.test_case "trailing bytes rejected" `Quick
          test_load_trailing_bytes;
        Alcotest.test_case "save replaces atomically" `Quick
          test_save_replaces_atomically;
      ] );
    ( "trace.replay",
      [
        Alcotest.test_case "call/ret" `Quick test_replay_call_ret;
        Alcotest.test_case "inserted-jump legs" `Quick test_replay_inserted_jump;
        Alcotest.test_case "via-jump returns" `Quick test_replay_via_jump_return;
        Alcotest.test_case "truncation mid-call" `Quick
          test_replay_truncation_mid_call;
        Alcotest.test_case "switch/vcall varints across layouts" `Quick
          test_replay_switch_vcall;
      ] );
    ( "trace.harness",
      [
        Alcotest.test_case "record-once memo gate" `Slow
          test_record_once_memo_gate;
      ] );
    ( "trace.fuzz",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [
          test_qcheck_replay_streams;
          test_qcheck_replay_sims;
          test_qcheck_weighted_index;
        ] );
  ]
