(* The ExtTSP / inter-procedural differential test wall.

   The load-bearing property is bit-equality of the incremental chain
   evaluator: after every single merge, across every built-in workload's
   every procedure (and again on QCheck-random programs),
   {!Ba_core.Exttsp.Eval.total} must equal {!Eval.scratch_total} — the
   same objective recomputed from first principles — as raw floats, not
   within a tolerance.  Around that wall sit the guard property (ExtTsp
   never loses to Greedy under the ExtTSP objective), the verification
   wall (every ExtTsp layout and every stitched inter-procedural image
   bisimulation-proved and cost-certified), the stitching invariants
   (inter-procedural address assignment changes no per-procedure
   [Layout_cost.branch_cost] and no static-predictor penalty total), and
   hand-built adversarial programs gen_prog cannot produce: recursive
   call chains, single-block procedures, an all-cold procedure. *)

open Ba_core

let wall_steps = Matrix.wall_steps
let qcheck_steps = 2_000

(* Deterministic QCheck stream; override with QCHECK_SEED.  The seed is
   part of every property's name, so a failure always names the stream
   that produced it. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0x5eed)
  | None -> 0x5eed

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~long:false
    ~rand:(Random.State.make [| qcheck_seed |])
    test

(* Bit-equality: Alcotest's float testable with a zero epsilon. *)
let exact = Alcotest.float 0.0

let exttsp_decisions ~profile =
  Matrix.decisions_for ~profile Align.ExtTsp
    ~arch:(Matrix.arch_for Align.ExtTsp)

(* ------------------------------------------------------------------ *)
(* The incremental-evaluator wall: drive the merge loop one step at a
   time; after every merge the cached total must be bit-equal to the
   from-scratch recomputation, the reported best gain must price like
   [merge_gain], and applying it must move the total by that gain. *)

let drive_eval ~what profile pid =
  let ev = Exttsp.Eval.create profile pid in
  let check_bit_equal tag =
    Alcotest.check exact
      (Printf.sprintf "%s: total = scratch_total %s" what tag)
      (Exttsp.Eval.scratch_total ev)
      (Exttsp.Eval.total ev)
  in
  check_bit_equal "initially";
  let merges = ref 0 in
  let rec loop () =
    match Exttsp.Eval.best_merge ev with
    | None -> ()
    | Some (a, b, gain) ->
      let before = Exttsp.Eval.total ev in
      Alcotest.check (Alcotest.float 1e-6)
        (Printf.sprintf "%s: best_merge gain prices like merge_gain" what)
        (Exttsp.Eval.merge_gain ev a b)
        gain;
      Exttsp.Eval.merge ev a b;
      incr merges;
      check_bit_equal (Printf.sprintf "after merge %d" !merges);
      Alcotest.check (Alcotest.float 1e-6)
        (Printf.sprintf "%s: merge %d moved the total by its gain" what !merges)
        (before +. gain)
        (Exttsp.Eval.total ev);
      loop ()
  in
  loop ();
  (* The final concatenated order can only add cross-chain credit the
     chain-set total did not count. *)
  let edges = Exttsp.edges_of profile pid in
  let sizes =
    Exttsp.sizes_of (Ba_ir.Program.proc (Ba_cfg.Profile.program profile) pid)
  in
  let final = Exttsp.score_order ~sizes ~edges (Exttsp.Eval.order ev) in
  if final < Exttsp.Eval.total ev -. 1e-9 then
    Alcotest.failf "%s: concatenated order scores %.9f < chain total %.9f" what
      final (Exttsp.Eval.total ev);
  !merges

let test_incremental_wall () =
  let merges = ref 0 and procs = ref 0 in
  Matrix.iter_traced (fun w program profile _trace ->
      for pid = 0 to Ba_ir.Program.n_procs program - 1 do
        incr procs;
        merges :=
          !merges
          + drive_eval
              ~what:(Printf.sprintf "%s/p%d" w.Ba_workloads.Spec.name pid)
              profile pid
      done);
  (* The CI step summary greps this line out of the test log. *)
  Printf.printf
    "exttsp wall: %d merges bit-exact across %d procs, %d workloads\n%!"
    !merges !procs
    (List.length Ba_workloads.Spec.all)

(* ------------------------------------------------------------------ *)
(* The guard property: align_proc scores Pettis-Hansen's layout too and
   keeps the better, so under the ExtTSP objective it can never lose. *)

let test_never_worse_than_greedy () =
  Matrix.iter_traced (fun w program profile _trace ->
      let ext = exttsp_decisions ~profile in
      let greedy =
        Matrix.decisions_for ~profile Align.Greedy
          ~arch:(Matrix.arch_for Align.Greedy)
      in
      for pid = 0 to Ba_ir.Program.n_procs program - 1 do
        let se = Exttsp.score_decision profile pid ext.(pid) in
        let sg = Exttsp.score_decision profile pid greedy.(pid) in
        if se < sg -. 1e-9 then
          Alcotest.failf "%s/p%d: exttsp scores %.9f < greedy %.9f"
            w.Ba_workloads.Spec.name pid se sg
      done)

(* ------------------------------------------------------------------ *)
(* The verification wall: every workload's ExtTsp layout, plain and
   stitched, bisimulation-proved and cost-certified on every
   architecture; the stitched image additionally passes the image-level
   structural checks (cross-procedure overlap, cold-section gaps). *)

let test_verify_wall () =
  let images = ref 0 and certs = ref 0 in
  Matrix.iter_traced (fun w program profile _trace ->
      let decisions = exttsp_decisions ~profile in
      let plain = Ba_layout.Image.build ~profile program decisions in
      let ip = Ba_layout.Image.build_interproc ~profile program decisions in
      List.iter
        (fun (tag, image) ->
          incr images;
          let { Ba_verify.Run.bisim; certificates; cert_diags; _ } =
            Ba_verify.Run.verify_image
              ~workload:w.Ba_workloads.Spec.name
              ~algo:(Align.algo_name Align.ExtTsp) ~profile image
          in
          let fail_on_errors pass diags =
            List.iter
              (fun d ->
                if Ba_analysis.Diagnostic.is_error d then
                  Alcotest.failf "%s/%s %s: %a" w.Ba_workloads.Spec.name tag
                    pass Ba_analysis.Diagnostic.pp d)
              diags
          in
          fail_on_errors "bisim" bisim;
          fail_on_errors "certification" cert_diags;
          if certificates = [] then
            Alcotest.failf "%s/%s: no cost certificates issued"
              w.Ba_workloads.Spec.name tag;
          certs := !certs + List.length certificates)
        [ ("plain", plain); ("interproc", ip.Ba_layout.Image.image) ];
      List.iter
        (fun d ->
          if Ba_analysis.Diagnostic.is_error d then
            Alcotest.failf "%s/interproc image check: %a"
              w.Ba_workloads.Spec.name Ba_analysis.Diagnostic.pp d)
        (Ba_analysis.Check_image.check ip.Ba_layout.Image.image));
  Printf.printf "exttsp verify wall: %d images proved, %d certificates\n%!"
    !images !certs

(* ------------------------------------------------------------------ *)
(* Stitching invariants.  build_interproc keeps every decision, so each
   procedure's lowered code is identical and the exact cost model must
   price it identically under every architecture; and because addresses
   stay strictly increasing with layout position inside each procedure,
   branch direction — all a static predictor sees — is preserved, so
   the static-architecture penalty totals of a full replay are equal. *)

let check_branch_costs ~what program profile plain stitched =
  for pid = 0 to Ba_ir.Program.n_procs program - 1 do
    List.iter
      (fun arch ->
        let cost (image : Ba_layout.Image.t) =
          Layout_cost.branch_cost ~arch
            ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
            ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
            image.Ba_layout.Image.linears.(pid)
        in
        Alcotest.check exact
          (Printf.sprintf "%s: p%d %s branch cost unchanged by stitching"
             what pid (Cost_model.arch_name arch))
          (cost plain) (cost stitched))
      Cost_model.all_arches
  done

let static_penalties ~max_steps ~trace ~profile image =
  (* The likely-bit table is indexed by branch address, so each image
     gets its own build; the per-site hints are identical because both
     images lower the same decisions, so equality still isolates
     address-independence. *)
  let archs =
    [
      Ba_sim.Bep.Static_fallthrough;
      Ba_sim.Bep.Static_btfnt;
      Ba_sim.Bep.Static_likely (Ba_predict.Likely_bits.build image profile);
    ]
  in
  let out = Ba_sim.Runner.simulate ~max_steps ~trace ~archs image in
  Array.map (fun (_, sim) -> Ba_sim.Bep.bep sim) out.Ba_sim.Runner.sims

let check_static_penalties ~what ~max_steps ~trace ~profile plain stitched =
  let before = static_penalties ~max_steps ~trace ~profile plain in
  let after = static_penalties ~max_steps ~trace ~profile stitched in
  Array.iteri
    (fun i want ->
      Alcotest.(check int)
        (Printf.sprintf "%s: static arch %d penalty unchanged by stitching"
           what i)
        want after.(i))
    before

let test_stitching_invariants () =
  Matrix.iter_traced (fun w program profile trace ->
      let decisions = exttsp_decisions ~profile in
      let plain = Ba_layout.Image.build ~profile program decisions in
      let ip = Ba_layout.Image.build_interproc ~profile program decisions in
      let stitched = ip.Ba_layout.Image.image in
      let what = w.Ba_workloads.Spec.name in
      check_branch_costs ~what program profile plain stitched;
      check_static_penalties ~what ~max_steps:wall_steps ~trace ~profile plain
        stitched)

(* ------------------------------------------------------------------ *)
(* Adversarial programs the random generators cannot produce: gen_prog
   only ever calls higher procedure ids, so recursion — and with it the
   call-graph cycles Pettis-Hansen chaining has to break — needs
   hand-built cases.  Each case must survive the full treatment: ExtTsp
   alignment, stitching, per-procedure bisimulation, the image checks,
   and both stitching invariants. *)

(* The stitcher's address contract: inside every procedure the hot
   prefix (layout positions below the split) sits below [hot_size] and
   the cold suffix at or above it. *)
let check_split_addresses name (ip : Ba_layout.Image.interproc) =
  Array.iteri
    (fun pid (linear : Ba_layout.Linear.t) ->
      Array.iteri
        (fun pos (lb : Ba_layout.Linear.lblock) ->
          let hot = pos < ip.Ba_layout.Image.splits.(pid) in
          if hot <> (lb.Ba_layout.Linear.addr < ip.Ba_layout.Image.hot_size)
          then
            Alcotest.failf
              "%s: p%d layout position %d (%s) at address %d, cold section \
               starts at %d"
              name pid pos
              (if hot then "hot" else "cold")
              lb.Ba_layout.Linear.addr ip.Ba_layout.Image.hot_size)
        linear.Ba_layout.Linear.blocks)
    ip.Ba_layout.Image.image.Ba_layout.Image.linears

let check_program name program =
  let profile, trace =
    Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
  in
  let decisions = exttsp_decisions ~profile in
  let plain = Ba_layout.Image.build ~profile program decisions in
  let ip = Ba_layout.Image.build_interproc ~profile program decisions in
  let stitched = ip.Ba_layout.Image.image in
  check_split_addresses name ip;
  Array.iteri
    (fun pid linear ->
      match Ba_verify.Bisim.verify ~proc_id:pid linear with
      | Ok _ -> ()
      | Error diags ->
        Alcotest.failf "%s: p%d stitched bisim: %a" name pid
          Ba_analysis.Diagnostic.pp (List.hd diags))
    stitched.Ba_layout.Image.linears;
  List.iter
    (fun d ->
      if Ba_analysis.Diagnostic.is_error d then
        Alcotest.failf "%s: image check: %a" name Ba_analysis.Diagnostic.pp d)
    (Ba_analysis.Check_image.check stitched);
  check_branch_costs ~what:name program profile plain stitched;
  check_static_penalties ~what:name ~max_steps:qcheck_steps ~trace ~profile
    plain stitched;
  ip

let recursive_program () =
  let open Ba_ir in
  (* main calls p1; p1 and p2 call each other, bounded by the Loop
     behavior (true three times, then false) — a call-graph cycle. *)
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:2 (Term.Call { callee = 1; next = 1 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let p1 =
    Proc.make ~name:"ping"
      [|
        Block.make ~insns:3
          (Term.Cond { on_true = 1; on_false = 2; behavior = Behavior.Loop 4 });
        Block.make ~insns:2 (Term.Call { callee = 2; next = 2 });
        Block.make ~insns:1 Term.Ret;
      |]
  in
  let p2 =
    Proc.make ~name:"pong"
      [|
        Block.make ~insns:2 (Term.Call { callee = 1; next = 1 });
        Block.make ~insns:1 Term.Ret;
      |]
  in
  Program.make ~name:"recursive" ~seed:0 [| main; p1; p2 |]

let single_block_program () =
  let open Ba_ir in
  (* Leaf procedures that are nothing but a Ret: one-chain, one-block
     layouts that the chain merger and the stitcher must both leave
     alone. *)
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:1 (Term.Call { callee = 1; next = 1 });
        Block.make ~insns:2 (Term.Call { callee = 2; next = 2 });
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let leaf name insns = Proc.make ~name [| Block.make ~insns Term.Ret |] in
  Program.make ~name:"single_block" ~seed:0
    [| main; leaf "tiny" 1; leaf "small" 5 |]

let all_cold_program () =
  let open Ba_ir in
  (* A statically-reachable but never-executed block in main, and a whole
     procedure that is never called: every block cold, so the stitcher's
     cold section swallows the entire procedure. *)
  let main =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:2
          (Term.Cond
             { on_true = 1; on_false = 2; behavior = Behavior.Always false });
        Block.make ~insns:3 (Term.Jump 2);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  let dead =
    Proc.make ~name:"dead"
      [|
        Block.make ~insns:4
          (Term.Cond
             { on_true = 2; on_false = 1; behavior = Behavior.Always true });
        Block.make ~insns:2 Term.Ret;
        Block.make ~insns:1 (Term.Jump 1);
      |]
  in
  Program.make ~name:"all_cold" ~seed:0 [| main; dead |]

let test_adversarial_recursion () =
  ignore (check_program "recursive" (recursive_program ()))

let test_adversarial_single_block () =
  let ip = check_program "single_block" (single_block_program ()) in
  (* A one-block procedure has nothing to split. *)
  Alcotest.(check int) "single-block leaf p1 unsplit" 1
    ip.Ba_layout.Image.splits.(1)

let test_adversarial_all_cold () =
  let ip = check_program "all_cold" (all_cold_program ()) in
  (* The never-called procedure must actually be split: the entry stays
     hot by the stitcher's contract, but its cold suffix (everything its
     Ret does not fall through to) moves to the trailing cold section. *)
  let n_blocks =
    Array.length
      ip.Ba_layout.Image.image.Ba_layout.Image.linears.(1)
        .Ba_layout.Linear.blocks
  in
  if ip.Ba_layout.Image.splits.(1) >= n_blocks then
    Alcotest.failf "all_cold: dead procedure not split (split %d of %d blocks)"
      ip.Ba_layout.Image.splits.(1) n_blocks

(* ------------------------------------------------------------------ *)
(* QCheck: random programs.  The seven-configuration property reuses
   Ba_delta's incremental evaluator as a second independent pricing of the
   ExtTsp layout — the same configuration list test_delta's wall sweeps. *)

let configs = Array.of_list Ba_report.Harness.full_archs

let prop_incremental_random =
  QCheck.Test.make ~count:30
    ~name:
      (Printf.sprintf
         "exttsp: incremental total bit-equal to scratch on random programs \
          (seed %d)"
         qcheck_seed)
    Gen_prog.program_arb
    (fun program ->
      let profile = Ba_exec.Engine.profile_program ~max_steps:qcheck_steps program in
      for pid = 0 to Ba_ir.Program.n_procs program - 1 do
        let ev = Exttsp.Eval.create profile pid in
        let check tag =
          let t = Exttsp.Eval.total ev
          and s = Exttsp.Eval.scratch_total ev in
          if t <> s then
            QCheck.Test.fail_reportf "p%d %s: total %.17g <> scratch %.17g" pid
              tag t s
        in
        check "initially";
        let rec loop n =
          match Exttsp.Eval.best_merge ev with
          | None -> ()
          | Some (a, b, _) ->
            Exttsp.Eval.merge ev a b;
            check (Printf.sprintf "after merge %d" n);
            loop (n + 1)
        in
        loop 1
      done;
      true)

let prop_seven_config_differential =
  QCheck.Test.make ~count:15
    ~name:
      (Printf.sprintf
         "exttsp: layout priced exactly on the 7 configurations (seed %d)"
         qcheck_seed)
    Gen_prog.program_arb
    (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      let decisions = exttsp_decisions ~profile in
      let ev = Ba_delta.Eval.create ~specs:configs profile trace decisions in
      let got = Ba_delta.Eval.cost ev decisions in
      let image = Ba_layout.Image.build ~profile program decisions in
      let archs = Matrix.archs_for image profile in
      let out =
        Ba_sim.Runner.simulate ~max_steps:qcheck_steps ~trace ~archs image
      in
      Array.iteri
        (fun i (_, sim) ->
          let want = Ba_sim.Bep.bep sim in
          if want <> got.(i) then
            QCheck.Test.fail_reportf "[%s] replay %d <> incremental %d"
              (Ba_delta.Eval.spec_label configs.(i))
              want got.(i))
        out.Ba_sim.Runner.sims;
      true)

let prop_interproc_random =
  QCheck.Test.make ~count:15
    ~name:
      (Printf.sprintf
         "interproc: stitching proved and static penalties preserved on \
          random programs (seed %d)"
         qcheck_seed)
    Gen_prog.program_arb
    (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      let decisions = exttsp_decisions ~profile in
      let plain = Ba_layout.Image.build ~profile program decisions in
      let ip = Ba_layout.Image.build_interproc ~profile program decisions in
      let stitched = ip.Ba_layout.Image.image in
      Array.iteri
        (fun pid linear ->
          match Ba_verify.Bisim.verify ~proc_id:pid linear with
          | Ok _ -> ()
          | Error diags ->
            QCheck.Test.fail_reportf "p%d stitched bisim: %s" pid
              (Format.asprintf "%a" Ba_analysis.Diagnostic.pp (List.hd diags)))
        stitched.Ba_layout.Image.linears;
      List.iter
        (fun d ->
          if Ba_analysis.Diagnostic.is_error d then
            QCheck.Test.fail_reportf "image check: %s"
              (Format.asprintf "%a" Ba_analysis.Diagnostic.pp d))
        (Ba_analysis.Check_image.check stitched);
      let before =
        static_penalties ~max_steps:qcheck_steps ~trace ~profile plain
      in
      let after =
        static_penalties ~max_steps:qcheck_steps ~trace ~profile stitched
      in
      Array.iteri
        (fun i want ->
          if want <> after.(i) then
            QCheck.Test.fail_reportf
              "static arch %d: plain penalty %d <> stitched %d" i want
              after.(i))
        before;
      true)

let suites =
  [
    ( "exttsp",
      [
        Alcotest.test_case "incremental wall: 24 workloads bit-exact" `Slow
          test_incremental_wall;
        Alcotest.test_case "never worse than Greedy on the objective" `Slow
          test_never_worse_than_greedy;
        Alcotest.test_case "verify wall: plain + interproc proved" `Slow
          test_verify_wall;
        Alcotest.test_case "stitching preserves costs and static penalties"
          `Slow test_stitching_invariants;
        Alcotest.test_case "adversarial: recursive call chain" `Quick
          test_adversarial_recursion;
        Alcotest.test_case "adversarial: single-block procedures" `Quick
          test_adversarial_single_block;
        Alcotest.test_case "adversarial: all-cold procedure" `Quick
          test_adversarial_all_cold;
        to_alcotest prop_incremental_random;
        to_alcotest prop_seven_config_differential;
        to_alcotest prop_interproc_random;
      ] );
  ]
