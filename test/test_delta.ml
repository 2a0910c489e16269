(* Tests for Ba_delta: the incremental cost evaluators and the annealing
   search built on them.

   The load-bearing suite is the differential wall: across the standard
   workload x algorithm matrix and the harness's seven simulated
   architectures, {!Ba_delta.Eval.cost} of a moved layout must equal —
   exactly, as integers — the penalty cycles a full trace replay of that
   layout reports.  The move-algebra suite pins the static model's
   exactness contract through the public API alone: totals bit-equal to a
   fresh lowering, move+inverse restoring the total bit-for-bit, disjoint
   moves composing additively, and deltas agreeing with the certified
   totals of two fully-certified layouts.  The oracles re-price what the
   placement guard and the gap table compute incrementally with fresh
   lowerings and full trace replays. *)

open Ba_delta

let wall_steps = Matrix.wall_steps
let qcheck_steps = 2_000

(* Deterministic QCheck stream; override with QCHECK_SEED.  The seed is
   part of every property's name, so a failure always names the stream
   that produced it (the generated program additionally prints its own
   construction seed). *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0x5eed)
  | None -> 0x5eed

let to_alcotest test =
  QCheck_alcotest.to_alcotest ~long:false
    ~rand:(Random.State.make [| qcheck_seed |])
    test

(* The harness seven, the configurations [Matrix.archs_for] simulates. *)
let configs = Array.of_list Ba_report.Harness.full_archs

(* Reference side: a full trace replay of the candidate layout, one Bep
   simulator per configuration ([Bep.arch_of] builds each configuration's
   architecture from the candidate image, likely bits included). *)
let simulate_costs ~specs ~trace ~max_steps ~profile program decisions =
  let image = Ba_layout.Image.build ~profile program decisions in
  let archs =
    Array.to_list (Array.map (Ba_sim.Bep.arch_of ~image ~profile) specs)
  in
  let out = Ba_sim.Runner.simulate ~max_steps ~trace ~archs image in
  Array.map (fun (_, sim) -> Ba_sim.Bep.bep sim) out.Ba_sim.Runner.sims

(* Deterministic spread of at most [k] elements across the list. *)
let sample k xs =
  let n = List.length xs in
  if n <= k then xs
  else
    let stride = n / k in
    List.filteri (fun i _ -> i mod stride = 0 && i / stride < k) xs

let check_costs ~what ~specs expected actual =
  Array.iteri
    (fun i want ->
      Alcotest.(check int)
        (Printf.sprintf "%s [%s]" what (Eval.spec_label specs.(i)))
        want actual.(i))
    expected

(* One differential cell: create the evaluator over the base layout, then
   cross-check it against full replays on the base and on a sample of its
   one-move neighbours.  Returns how many moves were checked. *)
let check_cell ~specs ~max_steps ~moves_per_cell ~what program profile trace
    decisions =
  let ev = Eval.create ~specs profile trace decisions in
  let reference =
    simulate_costs ~specs ~trace ~max_steps ~profile program decisions
  in
  check_costs ~what:(what ^ " base") ~specs reference (Eval.cost ev decisions);
  let moves =
    sample moves_per_cell
      (Move.enumerate
         ~cond_counts:(fun p b -> Ba_cfg.Profile.cond_counts profile p b)
         program decisions)
  in
  List.iter
    (fun mv ->
      let moved = Move.apply decisions mv in
      let got = Eval.cost ev moved in
      let want =
        simulate_costs ~specs ~trace ~max_steps ~profile program moved
      in
      check_costs
        ~what:(Format.asprintf "%s %a" what Move.pp mv)
        ~specs want got)
    moves;
  List.length moves

(* ------------------------------------------------------------------ *)
(* The differential wall: 24 workloads x 5 algorithms x 7 architectures,
   every sampled move priced incrementally and by full replay. *)

let test_differential_wall () =
  let moves = ref 0 and cells = ref 0 in
  Matrix.iter_traced (fun w program profile trace ->
      List.iter
        (fun (algo, arch) ->
          let decisions = Matrix.decisions_for ~profile algo ~arch in
          let what =
            Printf.sprintf "%s/%s" w.Ba_workloads.Spec.name
              (Ba_core.Align.algo_name algo)
          in
          incr cells;
          moves :=
            !moves
            + check_cell ~specs:configs ~max_steps:wall_steps ~moves_per_cell:5
                ~what program profile trace decisions)
        Matrix.wall_cells);
  (* The CI step summary greps this line out of the test log. *)
  Printf.printf "delta wall: checked %d moves across %d cells, all exact\n%!"
    !moves !cells

(* ------------------------------------------------------------------ *)
(* Adversarial fallback: a swap that shifts later branch addresses across
   a tiny direct-PHT's set boundary, so the cached base is unusable and
   the entry-scoped dual replay must run — and still be exact. *)

let boundary_program () =
  let open Ba_ir in
  let blocks =
    [|
      Block.make ~insns:2
        (Term.Cond
           { on_true = 1; on_false = 2; behavior = Behavior.Pattern [| true; false; true |] });
      Block.make ~insns:3 (Term.Jump 3);
      Block.make ~insns:4 (Term.Jump 3);
      Block.make ~insns:2
        (Term.Cond { on_true = 0; on_false = 4; behavior = Behavior.Loop 7 });
      Block.make ~insns:1 Term.Halt;
    |]
  in
  Program.make ~name:"set-boundary" ~seed:3
    [| Proc.make ~name:"main" blocks |]

let test_scoped_fallback () =
  let program = boundary_program () in
  let profile, trace =
    Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
  in
  let decisions =
    Array.init (Ba_ir.Program.n_procs program) (fun p ->
        Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
  in
  (* A 2-entry direct PHT: every branch pc indexes by its lowest address
     bit.  Swapping positions 1 and 2 exchanges blocks of different sizes
     (3 vs 4 insns), shifting the loop conditional's address parity — the
     moved layout maps it to the other counter, which the cached base
     pricing cannot express. *)
  let specs = [| `Arch (Ba_sim.Bep.Pht_direct { entries = 2 }) |] in
  let ev = Eval.create ~specs profile trace decisions in
  let before = (Eval.stats ev).Eval.cond_scoped in
  let moved = Move.apply decisions (Move.swap ~proc:0 1) in
  let got = Eval.cost ev moved in
  let want =
    simulate_costs ~specs ~trace ~max_steps:qcheck_steps ~profile program moved
  in
  check_costs ~what:"set-boundary swap" ~specs want got;
  Alcotest.(check bool)
    "the swap forced the entry-scoped replay" true
    ((Eval.stats ev).Eval.cond_scoped > before)

(* Fixed hint bits cannot follow a candidate's branch senses: the one
   configuration the evaluator cannot price is LIKELY with its bits
   already built, which it refuses rather than misprice. *)
let test_fixed_likely_refused () =
  let program = boundary_program () in
  let profile, trace =
    Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
  in
  let image = Ba_layout.Image.original ~profile program in
  let decisions =
    Array.init (Ba_ir.Program.n_procs program) (fun p ->
        Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
  in
  let fixed = Ba_sim.Bep.arch_of ~image ~profile `Likely in
  Alcotest.(check bool) "Invalid_argument" true
    (match Eval.create ~specs:[| `Arch fixed |] profile trace decisions with
     | _ -> false
     | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Random programs: the differential property on shapes the workloads do
   not cover, all seven configurations at once. *)

let test_qcheck_differential =
  QCheck.Test.make
    ~name:
      (Printf.sprintf
         "delta equals full replay on random programs (qcheck seed %d)"
         qcheck_seed)
    ~count:30 Gen_prog.program_arb (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      let decisions =
        Ba_core.Align.align_program Ba_core.Align.Greedy
          ~arch:Ba_core.Cost_model.Btfnt profile
      in
      let ev = Eval.create ~specs:configs profile trace decisions in
      let moves =
        sample 4
          (Move.enumerate
             ~cond_counts:(fun p b -> Ba_cfg.Profile.cond_counts profile p b)
             program decisions)
      in
      List.for_all
        (fun mv ->
          let moved = Move.apply decisions mv in
          let got = Eval.cost ev moved in
          let want =
            simulate_costs ~specs:configs ~trace ~max_steps:qcheck_steps
              ~profile program moved
          in
          Array.for_all Fun.id
            (Array.mapi
               (fun i w ->
                 if w = got.(i) then true
                 else
                   QCheck.Test.fail_reportf
                     "%a [%s]: delta %d, full replay %d (qcheck seed %d)"
                     Move.pp mv
                     (Eval.spec_label configs.(i))
                     got.(i) w qcheck_seed)
               want))
        moves)

(* ------------------------------------------------------------------ *)
(* Move algebra over the static model, public API only. *)

let model_fixture name =
  let w = Matrix.workload name in
  let program, profile = Ba_workloads.Profiled.get ~max_steps:wall_steps w in
  let decisions =
    Ba_core.Align.align_program Ba_core.Align.Greedy
      ~arch:Ba_core.Cost_model.Btfnt profile
  in
  (* The first procedure with enough blocks to have interior swaps. *)
  let pid =
    let rec find p =
      if p >= Ba_ir.Program.n_procs program then
        Alcotest.failf "%s: no procedure with >= 4 blocks" name
      else if Ba_ir.Proc.n_blocks (Ba_ir.Program.proc program p) >= 4 then p
      else find (p + 1)
    in
    find 0
  in
  let proc = Ba_ir.Program.proc program pid in
  let model =
    Model.create ~arch:Ba_core.Cost_model.Btfnt
      ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
      ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
      proc decisions.(pid)
  in
  (program, profile, pid, proc, decisions, model)

let moves_of proc model =
  let n = Model.n_positions model in
  let swaps = List.init (max 0 (n - 2)) (fun i -> Move.Swap (i + 1)) in
  let forces =
    List.concat_map
      (fun b ->
        match (Ba_ir.Proc.block proc b).Ba_ir.Block.term with
        | Ba_ir.Term.Cond _ ->
          [
            Move.Force (b, None);
            Move.Force (b, Some Ba_layout.Decision.Jump_on_true);
            Move.Force (b, Some Ba_layout.Decision.Jump_on_false);
          ]
        | _ -> [])
      (List.init (Ba_ir.Proc.n_blocks proc) Fun.id)
  in
  swaps @ forces

let exact_float = Alcotest.float 0.0

(* total/preview bit-equal to a fresh lowering of the same decision. *)
let test_model_exactness () =
  let _, profile, pid, proc, decisions, model = model_fixture "espresso" in
  let decision = decisions.(pid) in
  let cond_counts b = Ba_cfg.Profile.cond_counts profile pid b in
  let visits b = Ba_cfg.Profile.visits profile pid b in
  let fresh d =
    Ba_core.Layout_cost.branch_cost ~arch:Ba_core.Cost_model.Btfnt ~visits
      ~cond_counts
      (Ba_layout.Lower.lower ~cond_counts proc d)
  in
  Alcotest.check exact_float "total = fresh lowering" (fresh decision)
    (Model.total model);
  List.iter
    (fun mv ->
      Alcotest.(check exact_float)
        (Format.asprintf "preview %a = fresh lowering" Move.pp
           { Move.proc = pid; m = mv })
        (fresh (Move.apply_local decision mv))
        (Model.preview model mv))
    (sample 10 (moves_of proc model))

(* Committing a move and its inverse restores the total bit-for-bit. *)
let test_move_inverse () =
  let _, _, pid, proc, _, model = model_fixture "espresso" in
  List.iter
    (fun mv ->
      let t0 = Model.total model in
      let inverse =
        match mv with
        | Move.Swap _ -> mv
        | Move.Force (b, _) ->
          Move.Force (b, (Model.decision model).Ba_layout.Decision.neither.(b))
      in
      Model.commit model mv;
      Model.commit model inverse;
      Alcotest.check exact_float
        (Format.asprintf "%a + inverse = identity" Move.pp
           { Move.proc = pid; m = mv })
        t0 (Model.total model))
    (sample 10 (moves_of proc model))

(* Deltas of window-disjoint moves compose additively. *)
let test_disjoint_additive () =
  let _, _, _, _, _, model = model_fixture "gcc" in
  let n = Model.n_positions model in
  if n < 7 then Alcotest.fail "fixture too small for disjoint swaps";
  let m1 = Move.Swap 1 and m2 = Move.Swap (n - 2) in
  let t0 = Model.total model in
  let d1 = Model.delta model m1 and d2 = Model.delta model m2 in
  Model.commit model m1;
  Model.commit model m2;
  Alcotest.check (Alcotest.float 1e-6) "disjoint deltas sum"
    (t0 +. d1 +. d2) (Model.total model)

(* The model's delta equals the difference of two independently certified
   totals: lower both layouts, validate each against the CFG, and price
   the witnesses with the certifier (which shares no traversal code with
   Layout_cost, let alone with the model). *)
let test_delta_vs_certificates () =
  let program, profile, pid, proc, decisions, model = model_fixture "espresso" in
  let decision = decisions.(pid) in
  let cond_counts b = Ba_cfg.Profile.cond_counts profile pid b in
  let visits b = Ba_cfg.Profile.visits profile pid b in
  let certified d =
    let ds = Array.copy decisions in
    ds.(pid) <- d;
    let image = Ba_layout.Image.build ~profile program ds in
    let linear = image.Ba_layout.Image.linears.(pid) in
    match Ba_verify.Bisim.verify ~proc_id:pid linear with
    | Error _ -> Alcotest.fail "certified layout failed bisimulation"
    | Ok witness -> (
      match
        Ba_verify.Cost_cert.certify ~arch:Ba_core.Cost_model.Btfnt ~visits
          ~cond_counts ~proc_id:pid linear witness
      with
      | Ok total -> total
      | Error _ -> Alcotest.fail "certified layout failed certification")
  in
  let base = certified decision in
  List.iter
    (fun mv ->
      Alcotest.check
        (Alcotest.float 1e-6)
        (Format.asprintf "delta %a = certified difference" Move.pp
           { Move.proc = pid; m = mv })
        (certified (Move.apply_local decision mv) -. base)
        (Model.delta model mv))
    (sample 8 (moves_of proc model))

(* ------------------------------------------------------------------ *)
(* Oracles for the production paths that price through Ba_delta: the
   placement swap guard against fresh lowerings, and the gap table against
   full trace replays. *)

let check_same_decisions what (a : Ba_layout.Decision.t array)
    (b : Ba_layout.Decision.t array) =
  Alcotest.(check int) (what ^ ": same procedure count") (Array.length a)
    (Array.length b);
  Array.iteri
    (fun p (da : Ba_layout.Decision.t) ->
      let db : Ba_layout.Decision.t = b.(p) in
      Alcotest.(check (array int))
        (Printf.sprintf "%s: proc %d order" what p)
        da.Ba_layout.Decision.order db.Ba_layout.Decision.order;
      Array.iteri
        (fun i leg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: proc %d neither %d" what p i)
            true
            (leg = db.Ba_layout.Decision.neither.(i)))
        da.Ba_layout.Decision.neither)
    a

(* Place's swap guard, replayed on original layouts (an aligned layout
   leaves the guard nothing to accept): walk every procedure's adjacent
   swaps and commit each one that does not raise the cost, as the guard
   does.  Every preview and every post-commit total must equal a fresh
   lowering priced by Layout_cost. *)
let test_place_guard_oracle () =
  let arch = Ba_core.Cost_model.Btb in
  let previews = ref 0 and commits = ref 0 in
  List.iter
    (fun name ->
      let program, profile =
        Ba_workloads.Profiled.get ~max_steps:wall_steps (Matrix.workload name)
      in
      for pid = 0 to Ba_ir.Program.n_procs program - 1 do
        let proc = Ba_ir.Program.proc program pid in
        let cond_counts b = Ba_cfg.Profile.cond_counts profile pid b in
        let visits b = Ba_cfg.Profile.visits profile pid b in
        let fresh d =
          Ba_core.Layout_cost.branch_cost ~arch ~visits ~cond_counts
            (Ba_layout.Lower.lower ~cond_counts proc d)
        in
        let len = Ba_ir.Proc.n_blocks proc in
        if len > 2 then begin
          let decision = ref (Ba_layout.Decision.identity proc) in
          let model = Model.create ~arch ~visits ~cond_counts proc !decision in
          for pos = 1 to len - 2 do
            let what = Printf.sprintf "%s proc %d swap %d" name pid pos in
            let swapped =
              Ba_layout.Decision.swap_positions !decision pos (pos + 1)
            in
            let preview = Model.preview model (Move.Swap pos) in
            incr previews;
            Alcotest.check exact_float (what ^ ": preview") (fresh swapped)
              preview;
            if preview <= Model.total model +. 1e-6 then begin
              Model.commit model (Move.Swap pos);
              decision := swapped;
              incr commits;
              Alcotest.check exact_float (what ^ ": committed total")
                (fresh swapped) (Model.total model)
            end
          done
        end
      done)
    [ "eqntott"; "espresso"; "gcc"; "wave5" ];
  Printf.printf "place guard oracle: %d previews, %d commits, all exact\n"
    !previews !commits;
  Alcotest.(check bool) "the walk commits at least one swap" true (!commits > 0)

(* Re-price eqntott's k = 2 gap cells by full trace replay: every
   algorithm's layout, and the Optimal-k search handed a replaying cost
   function.  Every column must match what Gap prices incrementally. *)
let test_gap_replay_oracle () =
  let w = Matrix.workload "eqntott" in
  let row = Ba_report.Gap.evaluate ~max_steps:wall_steps ~k:2 w in
  let program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps:wall_steps w
  in
  List.iter2
    (fun model (c : Ba_report.Gap.cell) ->
      let replay decisions =
        let image = Ba_layout.Image.build ~profile program decisions in
        let arch = Ba_sim.Bep.(arch_of ~image ~profile (of_model model)) in
        let out =
          Ba_sim.Runner.simulate ~max_steps:wall_steps ~trace ~archs:[ arch ]
            image
        in
        Ba_sim.Bep.bep (snd out.Ba_sim.Runner.sims.(0))
      in
      let bounds decisions =
        let image = Ba_layout.Image.build ~profile program decisions in
        let arch = Ba_sim.Bep.(arch_of ~image ~profile (of_model model)) in
        let i = Ba_bound.Analyze.bounds ~arch ~profile image in
        (i.Ba_bound.Domain.lo, i.Ba_bound.Domain.hi)
      in
      let layout algo = Ba_core.Align.align_program algo ~arch:model profile in
      let base = layout (Ba_core.Align.Tryn 15) in
      let r = Ba_core.Optimal.search ~k:2 ~bounds ~cost:replay ~profile base in
      let check what want got =
        Alcotest.(check int)
          (Printf.sprintf "gap/%s: %s" (Ba_core.Cost_model.arch_name model) what)
          want got
      in
      check "greedy" (replay (layout Ba_core.Align.Greedy)) c.Ba_report.Gap.greedy;
      check "cost" (replay (layout Ba_core.Align.Cost)) c.Ba_report.Gap.cost;
      check "exttsp" (replay (layout Ba_core.Align.ExtTsp)) c.Ba_report.Gap.exttsp;
      check "try15" (replay base) c.Ba_report.Gap.tryn;
      check "anneal"
        (replay (Anneal.align_program ~arch:model profile))
        c.Ba_report.Gap.anneal;
      check "optimal" r.Ba_core.Optimal.best_cost c.Ba_report.Gap.optimal;
      check "optimal lower" r.Ba_core.Optimal.best_lower c.Ba_report.Gap.opt_lower;
      check "candidates" r.Ba_core.Optimal.candidates c.Ba_report.Gap.candidates;
      check "simulated" r.Ba_core.Optimal.simulated c.Ba_report.Gap.simulated;
      check "pruned" r.Ba_core.Optimal.pruned c.Ba_report.Gap.pruned)
    Ba_report.Gap.models row.Ba_report.Gap.cells

(* ------------------------------------------------------------------ *)
(* The annealing search: deterministic, and never worse than Greedy
   under the model it optimises. *)

let test_anneal_deterministic () =
  let w = Matrix.workload "eqntott" in
  let _, profile = Ba_workloads.Profiled.get ~max_steps:wall_steps w in
  let a =
    Anneal.align_program ~seed:7 ~arch:Ba_core.Cost_model.Btfnt profile
  in
  let b =
    Anneal.align_program ~seed:7 ~arch:Ba_core.Cost_model.Btfnt profile
  in
  check_same_decisions "anneal seed 7" a b

let test_anneal_never_worse () =
  List.iter
    (fun name ->
      let w = Matrix.workload name in
      let program, profile =
        Ba_workloads.Profiled.get ~max_steps:wall_steps w
      in
      let greedy =
        Ba_core.Align.align_program Ba_core.Align.Greedy
          ~arch:Ba_core.Cost_model.Btfnt profile
      in
      let annealed =
        Anneal.align_program ~arch:Ba_core.Cost_model.Btfnt profile
      in
      let cost decisions pid =
        Model.total
          (Model.create ~arch:Ba_core.Cost_model.Btfnt
             ~visits:(fun b -> Ba_cfg.Profile.visits profile pid b)
             ~cond_counts:(fun b -> Ba_cfg.Profile.cond_counts profile pid b)
             (Ba_ir.Program.proc program pid) decisions.(pid))
      in
      for pid = 0 to Ba_ir.Program.n_procs program - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%s proc %d: anneal <= greedy" name pid)
          true
          (cost annealed pid <= cost greedy pid)
      done)
    [ "eqntott"; "wave5"; "li" ]

(* ------------------------------------------------------------------ *)
(* The one algorithm type: every spelling, every name read back, the
   identity image, and pool-independent annealing. *)

let algo_t = Alcotest.testable (fun ppf a -> Fmt.string ppf (Algo.name a)) ( = )

let test_algo_names () =
  let open Ba_core.Align in
  List.iter
    (fun (spellings, algo) ->
      List.iter
        (fun s ->
          Alcotest.(check (result algo_t string)) s (Ok algo) (Algo.of_name s))
        spellings)
    [
      ([ "orig"; "original"; "Orig"; "ORIGINAL" ], Algo.Core Original);
      ([ "greedy"; "pettis-hansen"; "Greedy"; "Pettis-Hansen" ], Algo.Core Greedy);
      ([ "cost"; "Cost"; "COST" ], Algo.Core Cost);
      ([ "exttsp"; "ExtTsp"; "EXTTSP" ], Algo.Core ExtTsp);
      ([ "try15"; "Try15"; "TRY15" ], Algo.Core (Tryn 15));
      ([ "try1"; "Try1" ], Algo.Core (Tryn 1));
      ([ "anneal"; "Anneal"; "ANNEAL" ], Algo.Anneal);
    ];
  List.iter
    (fun algo ->
      Alcotest.(check (result algo_t string))
        ("name read back: " ^ Algo.name algo)
        (Ok algo)
        (Algo.of_name (Algo.name algo)))
    [
      Algo.Core Original; Algo.Core Greedy; Algo.Core Cost; Algo.Core ExtTsp;
      Algo.Core (Tryn 5); Algo.Core (Tryn 15); Algo.Anneal;
    ];
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " refused") true
        (Result.is_error (Algo.of_name bad)))
    [ "try0"; "try-1"; "try"; "tryx"; "nosuch"; "" ]

let rec span_names (s : Ba_obs.Registry.span) =
  s.Ba_obs.Registry.name :: List.concat_map span_names s.Ba_obs.Registry.children

let test_algo_original_image () =
  let program, profile =
    Ba_workloads.Profiled.get ~max_steps:wall_steps (Matrix.workload "gcc")
  in
  let r = Ba_obs.Registry.create () in
  let image =
    Ba_obs.Registry.with_registry r (fun () ->
        Algo.image (Algo.Core Ba_core.Align.Original)
          ~arch:Ba_core.Cost_model.Btb profile)
  in
  let shape (i : Ba_layout.Image.t) =
    ( i.Ba_layout.Image.bases,
      i.Ba_layout.Image.total_size,
      Array.map
        (fun (l : Ba_layout.Linear.t) ->
          (l.Ba_layout.Linear.decision, l.Ba_layout.Linear.blocks))
        i.Ba_layout.Image.linears )
  in
  Alcotest.(check bool) "equals Image.original ~profile" true
    (shape image = shape (Ba_layout.Image.original ~profile program));
  Alcotest.(check (list string)) "no align span, only the lowering"
    [ "lower" ]
    (List.concat_map span_names (Ba_obs.Registry.spans r))

let test_algo_anneal_pool () =
  let _, profile =
    Ba_workloads.Profiled.get ~max_steps:wall_steps (Matrix.workload "eqntott")
  in
  let anneal ?pool () =
    Algo.decisions ?pool ~seed:7 Algo.Anneal ~arch:Ba_core.Cost_model.Btfnt
      profile
  in
  let inline = anneal () in
  check_same_decisions "pool of 2 = inline" inline
    (Ba_par.Pool.with_pool ~jobs:2 (fun pool -> anneal ~pool ()));
  check_same_decisions "= Anneal.align_program" inline
    (Anneal.align_program ~seed:7 ~arch:Ba_core.Cost_model.Btfnt profile)

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "delta.wall",
      [
        Alcotest.test_case "24 workloads x 5 algos x 7 archs, exact" `Slow
          test_differential_wall;
        Alcotest.test_case "set-boundary swap forces scoped replay" `Quick
          test_scoped_fallback;
        Alcotest.test_case "fixed LIKELY bits refused" `Quick
          test_fixed_likely_refused;
        to_alcotest test_qcheck_differential;
      ] );
    ( "delta.algebra",
      [
        Alcotest.test_case "total/preview bit-equal to fresh lowering" `Slow
          test_model_exactness;
        Alcotest.test_case "move + inverse = identity" `Slow test_move_inverse;
        Alcotest.test_case "disjoint deltas compose additively" `Slow
          test_disjoint_additive;
        Alcotest.test_case "delta = certified layout difference" `Slow
          test_delta_vs_certificates;
      ] );
    ( "delta.oracles",
      [
        Alcotest.test_case "place guard = fresh lowering" `Slow
          test_place_guard_oracle;
        Alcotest.test_case "gap cells = full replays" `Slow
          test_gap_replay_oracle;
      ] );
    ( "delta.anneal",
      [
        Alcotest.test_case "same seed, same layout" `Slow
          test_anneal_deterministic;
        Alcotest.test_case "never worse than Greedy under the model" `Slow
          test_anneal_never_worse;
      ] );
    ( "delta.algo",
      [
        Alcotest.test_case "every spelling and name round-trips" `Quick
          test_algo_names;
        Alcotest.test_case "Core Original is Image.original" `Quick
          test_algo_original_image;
        Alcotest.test_case "anneal decisions ignore the pool" `Quick
          test_algo_anneal_pool;
      ] );
  ]
