(* Tests for Ba_bound: the abstract-interpretation cost bounds and the
   branch-and-bound optimality audit.

   The load-bearing suite is the soundness wall: for every workload x
   algorithm x simulated architecture cell, the static interval must
   bracket the exact penalty cycles of the simulator replaying the same
   recorded trace the profile came from.  The counter-domain suite
   re-derives the 2-bit-counter transfer function's envelope by dynamic
   programming over ALL interleavings of a site's taken/not-taken batch
   and checks the closed forms against it: the lower bound must be exactly
   the true minimum (it prices real layouts, so slack there is pure
   pessimism) and the upper bound must dominate the true maximum. *)

open Ba_sim

let wall_steps = Matrix.wall_steps
let qcheck_steps = 2_000
let workload = Matrix.workload
let archs_for = Matrix.archs_for

let check_brackets ~what ~arch ~iv bep =
  if not (iv.Ba_bound.Domain.lo <= bep && bep <= iv.Ba_bound.Domain.hi) then
    Alcotest.failf "%s, %s: simulated %d outside bound [%d, %d]" what
      (Bep.arch_label arch) bep iv.Ba_bound.Domain.lo iv.Ba_bound.Domain.hi

(* ------------------------------------------------------------------ *)
(* Counter domain vs exhaustive interleavings of the real Counter2. *)

(* Exact (min, max) mispredict counts over every order in which [taken]
   taken and [not_taken] not-taken outcomes can reach one 2-bit counter
   starting at [state], by DP on (state, left_t, left_f). *)
let true_minmax ~state ~taken ~not_taken =
  let memo = Hashtbl.create 97 in
  let rec go state t f =
    if t = 0 && f = 0 then (0, 0)
    else
      let key = ((state : Ba_predict.Counter2.t :> int), t, f) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let step ~outcome t' f' =
          let mis = if Ba_predict.Counter2.predict state = outcome then 0 else 1 in
          let mn, mx = go (Ba_predict.Counter2.update state ~taken:outcome) t' f' in
          (mis + mn, mis + mx)
        in
        let options =
          (if t > 0 then [ step ~outcome:true (t - 1) f ] else [])
          @ if f > 0 then [ step ~outcome:false t (f - 1) ] else []
        in
        let mn = List.fold_left (fun acc (m, _) -> min acc m) max_int options in
        let mx = List.fold_left (fun acc (_, m) -> max acc m) 0 options in
        Hashtbl.add memo key (mn, mx);
        (mn, mx)
  in
  go state taken not_taken

let test_counter_domain () =
  for s = 0 to 3 do
    for t = 0 to 6 do
      for f = 0 to 6 do
        let iv =
          Ba_bound.Domain.Counter.mispredicts ~state:s ~taken:t ~not_taken:f
        in
        let mn, mx =
          true_minmax ~state:(Ba_predict.Counter2.of_int s) ~taken:t ~not_taken:f
        in
        if iv.Ba_bound.Domain.lo <> mn then
          Alcotest.failf "s=%d t=%d f=%d: lower %d, true min %d" s t f
            iv.Ba_bound.Domain.lo mn;
        if iv.Ba_bound.Domain.hi < mx then
          Alcotest.failf "s=%d t=%d f=%d: upper %d below true max %d" s t f
            iv.Ba_bound.Domain.hi mx;
        if iv.Ba_bound.Domain.hi > t + f then
          Alcotest.failf "s=%d t=%d f=%d: upper %d exceeds weight %d" s t f
            iv.Ba_bound.Domain.hi (t + f)
      done
    done
  done

let test_counter_serves () =
  (* The serve_* state intervals used inside the batching argument stay
     within the saturating range and are monotone in the batch size. *)
  for s = 0 to 3 do
    for w = 0 to 8 do
      let mt, st = Ba_bound.Domain.Counter.serve_taken ~state:s w in
      let mf, sf = Ba_bound.Domain.Counter.serve_not_taken ~state:s w in
      Alcotest.(check bool) "taken end state in range" true (st >= 0 && st <= 3);
      Alcotest.(check bool) "fall end state in range" true (sf >= 0 && sf <= 3);
      Alcotest.(check bool) "taken mispredicts bounded" true (mt >= 0 && mt <= w);
      Alcotest.(check bool) "fall mispredicts bounded" true (mf >= 0 && mf <= w)
    done
  done

(* ------------------------------------------------------------------ *)
(* The soundness wall: 24 workloads x 4 algorithms x 7 architectures. *)

let test_soundness_wall () =
  Matrix.iter_wall (fun ~w ~algo ~arch:_ ~program:_ ~profile ~trace image ->
      let archs = archs_for image profile in
      let out = Runner.simulate ~max_steps:wall_steps ~trace ~archs image in
      Array.iter
        (fun (arch, sim) ->
          let iv = Ba_bound.Analyze.bounds ~arch ~profile image in
          check_brackets
            ~what:
              (Printf.sprintf "%s/%s" w.Ba_workloads.Spec.name
                 (Ba_core.Align.algo_name algo))
            ~arch ~iv (Bep.bep sim))
        out.Runner.sims)

(* ------------------------------------------------------------------ *)
(* Random programs: soundness on shapes the workloads don't cover, and
   on the two extra dynamic predictors outside the harness seven. *)

let test_qcheck_soundness =
  QCheck.Test.make ~name:"bounds bracket the simulator on random programs"
    ~count:40 Gen_prog.program_arb (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      let images =
        [
          ("orig", Ba_layout.Image.original ~profile program);
          ( "greedy",
            Ba_core.Align.image Ba_core.Align.Greedy
              ~arch:Ba_core.Cost_model.Btfnt profile );
        ]
      in
      List.for_all
        (fun (label, image) ->
          let archs = archs_for image profile in
          let out = Runner.simulate ~max_steps:qcheck_steps ~trace ~archs image in
          Array.for_all
            (fun (arch, sim) ->
              let iv = Ba_bound.Analyze.bounds ~arch ~profile image in
              let bep = Bep.bep sim in
              if iv.Ba_bound.Domain.lo <= bep && bep <= iv.Ba_bound.Domain.hi
              then true
              else
                QCheck.Test.fail_reportf "%s, %s: simulated %d outside [%d, %d]"
                  label (Bep.arch_label arch) bep iv.Ba_bound.Domain.lo
                  iv.Ba_bound.Domain.hi)
            out.Runner.sims)
        images)

(* ------------------------------------------------------------------ *)
(* Static-rule exactness: a call-free loop program prices exactly. *)

let test_exact_loop () =
  let open Ba_ir in
  let blocks =
    [|
      Block.make ~insns:3
        (Term.Cond { on_true = 0; on_false = 1; behavior = Behavior.Loop 7 });
      Block.make ~insns:2 Term.Halt;
    |]
  in
  let program =
    Program.make ~name:"tight-loop" ~seed:11 [| Proc.make ~name:"main" blocks |]
  in
  let profile, trace =
    Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
  in
  let image = Ba_layout.Image.original ~profile program in
  let out =
    Runner.simulate ~max_steps:qcheck_steps ~trace
      ~archs:[ Bep.Static_fallthrough; Bep.Static_btfnt ] image
  in
  Array.iter
    (fun (arch, sim) ->
      let iv = Ba_bound.Analyze.bounds ~arch ~profile image in
      Alcotest.(check int)
        (Bep.arch_label arch ^ ": width zero")
        0
        (Ba_bound.Domain.width iv);
      Alcotest.(check int)
        (Bep.arch_label arch ^ ": exactly the simulated cycles")
        (Bep.bep sim) iv.Ba_bound.Domain.lo)
    out.Runner.sims

(* A profile with zero recorded weight prices every site at exactly zero. *)
let test_zero_profile () =
  let program = (workload "compress").Ba_workloads.Spec.build () in
  let profile = Ba_cfg.Profile.create program in
  let image = Ba_layout.Image.original ~profile program in
  List.iter
    (fun arch ->
      let iv = Ba_bound.Analyze.bounds ~arch ~profile image in
      Alcotest.(check int)
        (Bep.arch_label arch ^ ": zero lower")
        0 iv.Ba_bound.Domain.lo;
      Alcotest.(check int)
        (Bep.arch_label arch ^ ": zero upper")
        0 iv.Ba_bound.Domain.hi)
    (archs_for image profile)

(* ------------------------------------------------------------------ *)
(* Optimal-k audit invariants, via the gap report. *)

let test_gap_invariants () =
  List.iter
    (fun name ->
      let row = Ba_report.Gap.evaluate ~max_steps:wall_steps ~k:3 (workload name) in
      List.iter
        (fun (c : Ba_report.Gap.cell) ->
          let label what =
            Printf.sprintf "%s/%s: %s" name
              (Ba_core.Cost_model.arch_name c.Ba_report.Gap.model)
              what
          in
          Alcotest.(check bool)
            (label "winner never beats its own lower bound")
            true
            (c.Ba_report.Gap.opt_lower <= c.Ba_report.Gap.optimal);
          Alcotest.(check bool)
            (label "gap(try15) >= 0")
            true
            (c.Ba_report.Gap.optimal <= c.Ba_report.Gap.tryn);
          Alcotest.(check int)
            (label "candidates = simulated + pruned")
            c.Ba_report.Gap.candidates
            (c.Ba_report.Gap.simulated + c.Ba_report.Gap.pruned);
          Alcotest.(check bool)
            (label "identity candidate explored")
            true
            (c.Ba_report.Gap.candidates >= 1))
        row.Ba_report.Gap.cells)
    [ "wave5"; "li" ]

let test_optimal_direct () =
  let w = workload "compress" in
  let program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps:wall_steps w
  in
  let bep decisions =
    let image = Ba_layout.Image.build ~profile program decisions in
    let arch = Bep.Static_btfnt in
    let out = Runner.simulate ~max_steps:wall_steps ~trace ~archs:[ arch ] image in
    Bep.bep (snd out.Runner.sims.(0))
  in
  let bounds decisions =
    let image = Ba_layout.Image.build ~profile program decisions in
    let arch = Bep.Static_btfnt in
    let iv = Ba_bound.Analyze.bounds ~arch ~profile image in
    (iv.Ba_bound.Domain.lo, iv.Ba_bound.Domain.hi)
  in
  let base =
    Ba_core.Align.align_program (Ba_core.Align.Tryn 15)
      ~arch:Ba_core.Cost_model.Btfnt profile
  in
  let r = Ba_core.Optimal.search ~k:4 ~bounds ~cost:bep ~profile base in
  Alcotest.(check bool) "never worse than the base layout" true
    (r.Ba_core.Optimal.best_cost <= r.Ba_core.Optimal.base_cost);
  Alcotest.(check bool) "winner respects its lower bound" true
    (r.Ba_core.Optimal.best_lower <= r.Ba_core.Optimal.best_cost);
  Alcotest.(check int) "all candidates accounted for"
    r.Ba_core.Optimal.candidates
    (r.Ba_core.Optimal.simulated + r.Ba_core.Optimal.pruned);
  (* Determinism: the search is a pure fold over a deterministic
     candidate list. *)
  let r2 = Ba_core.Optimal.search ~k:4 ~bounds ~cost:bep ~profile base in
  Alcotest.(check int) "search is deterministic" r.Ba_core.Optimal.best_cost
    r2.Ba_core.Optimal.best_cost

(* ------------------------------------------------------------------ *)
(* The bound/* lint rules. *)

let rule_fires rule diags =
  List.exists (fun d -> d.Ba_analysis.Diagnostic.rule = rule) diags

let test_lint_rules () =
  let w = workload "wave5" in
  let program, profile = Ba_workloads.Profiled.get ~max_steps:wall_steps w in
  (* wave5's Try15/BT-FNT layout is certified worse than orig by the
     static bounds alone (also pinned in the golden wall). *)
  let t15 =
    Ba_core.Align.image (Ba_core.Align.Tryn 15) ~arch:Ba_core.Cost_model.Btfnt
      profile
  in
  let diags =
    Ba_bound.Lint.check ~algo:(Ba_delta.Algo.Core (Ba_core.Align.Tryn 15))
      ~arch:Ba_core.Cost_model.Btfnt ~profile t15
  in
  Alcotest.(check bool) "provably-suboptimal fires" true
    (rule_fires "bound/provably-suboptimal" diags);
  (* The dynamic-history domain is nearly vacuous, so the original layout
     under PHT must report a too-wide interval. *)
  let orig = Ba_layout.Image.original ~profile program in
  let diags2 =
    Ba_bound.Lint.check ~algo:(Ba_delta.Algo.Core Ba_core.Align.Original)
      ~arch:Ba_core.Cost_model.Pht ~profile orig
  in
  Alcotest.(check bool) "gap-too-wide fires" true
    (rule_fires "bound/gap-too-wide" diags2);
  List.iter
    (fun d ->
      Alcotest.(check bool) "bound findings are Info-severity" true
        (d.Ba_analysis.Diagnostic.severity = Ba_analysis.Diagnostic.Info))
    (diags @ diags2)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "bound.domain",
      [
        Alcotest.test_case "counter envelope vs exhaustive interleavings" `Quick
          test_counter_domain;
        Alcotest.test_case "serve state intervals stay in range" `Quick
          test_counter_serves;
      ] );
    ( "bound.soundness",
      [
        Alcotest.test_case "24 workloads x 4 algos x 7 archs bracket" `Slow
          test_soundness_wall;
        QCheck_alcotest.to_alcotest ~long:false test_qcheck_soundness;
        Alcotest.test_case "call-free loop prices exactly" `Quick test_exact_loop;
        Alcotest.test_case "zero-weight profile prices zero" `Quick
          test_zero_profile;
      ] );
    ( "bound.optimal",
      [
        Alcotest.test_case "gap table invariants" `Slow test_gap_invariants;
        Alcotest.test_case "branch-and-bound invariants" `Slow test_optimal_direct;
      ] );
    ( "bound.lint",
      [ Alcotest.test_case "bound/* rules fire" `Slow test_lint_rules ] );
  ]
