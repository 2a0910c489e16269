(* Tests for Ba_conflict: hand-built interference summaries with exact
   expected counts, a colliding hand program cross-checked against the
   live simulators, QCheck cross-validation of the static conflict maps
   against the Ba_obs aliasing counters, a full-workload agreement wall,
   and the conflict-aware placement invariants (never-worse objective,
   valid padded images, bisimulation + cost certification).

   The cross-validation invariants, and why they hold:

   - direct PHT: static items are exactly the executed conditionals
     (weights come from cond counts, so truncation cannot desynchronise
     them), and the simulator's alias counter fires iff two distinct pcs
     update one counter.  So [alias > 0 <-> conflicts <> []], and alias
     events are bounded by the conflicting occupants' total weight.
   - BTB: the simulator allocates only on taken branches and fills
     invalid ways first, so dynamic allocating pcs are a subset of the
     static taken-weighted sites; no static set over [assoc] items means
     no eviction, ever.
   - RAS: without recursion the dynamic call depth never exceeds the
     static longest-chain bound, so a bound within the stack depth means
     zero overflows.
   - Alpha history lines: a refill fires on every tag mismatch including
     the cold first touch, so refills >= distinct executed conditional
     lines, with equality exactly when no two lines share an index.
   - icache: fetched lines are a subset of the statically weighted lines,
     so a conflict-free map bounds misses by the line count.

   Gshare (dynamic history, projected to zero statically) and the
   two-level table (no alias counter) are deliberately not cross-validated. *)

open Ba_ir
open Ba_conflict

(* ------------------------------------------------------------------ *)
(* Helpers *)

let map_of structure reports =
  match
    List.find_opt (fun r -> r.Analyze.structure = structure) reports
  with
  | Some { Analyze.body = Analyze.Map m; _ } -> m
  | Some _ -> Alcotest.failf "%s: expected a map report" (Structure.name structure)
  | None -> Alcotest.failf "%s: no report" (Structure.name structure)

let ras_of reports =
  match
    List.find_opt
      (fun r ->
        match r.Analyze.body with Analyze.Stack _ -> true | _ -> false)
      reports
  with
  | Some { Analyze.body = Analyze.Stack s; _ } -> s
  | _ -> Alcotest.fail "no RAS report"

(* Run one Bep architecture over [image] in a fresh registry and read the
   named counter.  One architecture per registry — concurrent simulators
   would sum their counters. *)
let sim_counter ?return_stack_depth ?trace ~max_steps ~arch image name =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      ignore
        (Ba_sim.Runner.simulate ?return_stack_depth ?trace ~max_steps
           ~archs:[ arch ] image));
  Ba_obs.Registry.counter_value r name

let alpha_counters ?trace ~max_steps ~config image =
  let r = Ba_obs.Registry.create () in
  Ba_obs.Registry.with_registry r (fun () ->
      ignore (Ba_sim.Runner.simulate_alpha ?trace ~max_steps ~config image));
  ( Ba_obs.Registry.counter_value r "predict.alpha.refill",
    Ba_obs.Registry.counter_value r "predict.icache.miss" )

let conflict_occupant_weight m =
  List.fold_left
    (fun acc c ->
      List.fold_left
        (fun acc o -> acc + o.Analyze.o_weight)
        acc c.Analyze.occupants)
    0 m.Analyze.conflicts

let workload = Matrix.workload

let errors diags =
  let e, _, _ = Ba_analysis.Diagnostic.count diags in
  e

(* ------------------------------------------------------------------ *)
(* Synthetic summaries: of_summary over hand-built sites with counts
   computable on paper. *)

let csite ~block ~offset ~w_true ~w_false =
  {
    Site.proc = 0;
    block;
    offset;
    kind = Site.Cond { taken_on = true; w_true; w_false; taken_off = 0 };
    weight = w_true + w_false;
    taken_weight = w_true;
  }

let jsite ~block ~offset ~weight =
  { Site.proc = 0; block; offset; kind = Site.Jump { cont = false }; weight;
    taken_weight = weight }

let summary ?(sites = []) ?(regions = []) ?(ras_bound = Some 0)
    ?(call_blocks = 0) () =
  { Site.sites; regions; ras_bound; call_blocks }

(* Two conditionals at pcs 3 and 19: a 16-entry direct PHT folds both onto
   index 3 (3 land 15 = 19 land 15); one is taken-biased (6/4), the other
   fall-biased (1/4).  Expected: one conflict, excess = the lighter site's
   full weight (assoc 1), opposing, destructive weight = lighter side. *)
let test_pht_synthetic () =
  let s =
    summary
      ~sites:
        [
          csite ~block:0 ~offset:3 ~w_true:6 ~w_false:4;
          csite ~block:1 ~offset:19 ~w_true:1 ~w_false:4;
        ]
      ()
  in
  let hit = Structure.Pht_direct { entries = 16 } in
  let m = map_of hit (Analyze.of_summary ~suite:[ hit ] ~bases:[| 0 |] s) in
  Alcotest.(check int) "items" 2 m.Analyze.items;
  Alcotest.(check int) "total weight" 15 m.Analyze.total_weight;
  Alcotest.(check int) "used" 1 m.Analyze.used;
  (match m.Analyze.conflicts with
  | [ c ] ->
    Alcotest.(check int) "index" 3 c.Analyze.index;
    Alcotest.(check int) "excess" 5 c.Analyze.excess_weight;
    Alcotest.(check bool) "opposing" true c.Analyze.opposing;
    Alcotest.(check int) "opposing weight" 5 c.Analyze.opposing_weight
  | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs));
  Alcotest.(check int) "conflict weight" 5 m.Analyze.conflict_weight;
  Alcotest.(check int) "destructive pairs" 1 m.Analyze.destructive_pairs;
  Alcotest.(check int) "destructive weight" 5 m.Analyze.destructive_weight;
  (* 32 entries separate indices 3 and 19 *)
  let miss = Structure.Pht_direct { entries = 32 } in
  let m = map_of miss (Analyze.of_summary ~suite:[ miss ] ~bases:[| 0 |] s) in
  Alcotest.(check int) "no conflicts" 0 (List.length m.Analyze.conflicts);
  Alcotest.(check int) "used (wide)" 2 m.Analyze.used

(* Three taken sites at odd pcs all land in set 1 of a 4-entry 2-way BTB;
   the two heaviest fit the ways, the lightest (weight 2) is excess. *)
let test_btb_synthetic () =
  let s =
    summary
      ~sites:
        [
          jsite ~block:0 ~offset:1 ~weight:10;
          jsite ~block:1 ~offset:3 ~weight:6;
          jsite ~block:2 ~offset:5 ~weight:2;
        ]
      ()
  in
  let btb = Structure.Btb { entries = 4; assoc = 2 } in
  let m = map_of btb (Analyze.of_summary ~suite:[ btb ] ~bases:[| 0 |] s) in
  Alcotest.(check int) "items" 3 m.Analyze.items;
  Alcotest.(check int) "used" 1 m.Analyze.used;
  match m.Analyze.conflicts with
  | [ c ] ->
    Alcotest.(check int) "set" 1 c.Analyze.index;
    Alcotest.(check int) "occupants" 3 (List.length c.Analyze.occupants);
    Alcotest.(check int) "excess" 2 c.Analyze.excess_weight
  | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs)

(* Two fetch regions on cache lines 0 and 4 of a 4-line direct-mapped
   icache (4 insns/line): both map to set 0, the lighter line is excess. *)
let test_icache_synthetic () =
  let s =
    summary
      ~regions:
        [
          { Site.r_proc = 0; r_offset = 0; r_size = 4; r_weight = 5 };
          { Site.r_proc = 0; r_offset = 16; r_size = 4; r_weight = 7 };
        ]
      ()
  in
  let ic = Structure.Icache { lines = 4; insns_per_line = 4; assoc = 1 } in
  let m = map_of ic (Analyze.of_summary ~suite:[ ic ] ~bases:[| 0 |] s) in
  Alcotest.(check int) "items" 2 m.Analyze.items;
  match m.Analyze.conflicts with
  | [ c ] ->
    Alcotest.(check int) "set" 0 c.Analyze.index;
    Alcotest.(check int) "excess" 5 c.Analyze.excess_weight
  | cs -> Alcotest.failf "expected 1 conflict, got %d" (List.length cs)

let test_ras_synthetic () =
  let check_ras bound depth expect_overflow =
    let s = summary ~ras_bound:bound ~call_blocks:1 () in
    let r =
      ras_of (Analyze.of_summary ~suite:[ Structure.Ras { depth } ] ~bases:[| 0 |] s)
    in
    Alcotest.(check bool) "overflow possible" expect_overflow
      r.Analyze.overflow_possible;
    Alcotest.(check (option int)) "bound echoed" bound r.Analyze.static_bound
  in
  check_ras (Some 40) 32 true;
  check_ras (Some 3) 32 false;
  check_ras None 32 true

(* ------------------------------------------------------------------ *)
(* A hand program whose collisions are computable from the address map:
   b0 (3 insns, conditional at pc 3, alternating) and b1 (15 insns,
   conditional at pc 19, never taken) collide in a 16-entry PHT with
   opposing majority directions; the back-jump of b2 lands at pc 21, so
   pcs 3 and 21 share the odd set of a 2-entry BTB. *)

let cond ~behavior t f = Term.Cond { on_true = t; on_false = f; behavior }

let colliding_program () =
  let p =
    Proc.make ~name:"main"
      [|
        Block.make ~insns:3
          (cond ~behavior:(Behavior.Pattern [| true; false |]) 1 2);
        Block.make ~insns:15 (cond ~behavior:(Behavior.Always false) 3 2);
        Block.make ~insns:1 (Term.Jump 0);
        Block.make ~insns:1 Term.Halt;
      |]
  in
  Program.make ~name:"colliding" [| p |]

let test_hand_program_static () =
  let program = colliding_program () in
  let profile, _ = Ba_trace.Record.profile_and_record ~max_steps:2_000 program in
  let image = Ba_layout.Image.original ~profile program in
  let hit = Structure.Pht_direct { entries = 16 } in
  let m = map_of hit (Analyze.analyze ~suite:[ hit ] ~profile image) in
  (match m.Analyze.conflicts with
  | [ c ] ->
    Alcotest.(check int) "pht index" 3 c.Analyze.index;
    Alcotest.(check bool) "opposing directions" true c.Analyze.opposing
  | cs -> Alcotest.failf "expected 1 PHT conflict, got %d" (List.length cs));
  let miss = Structure.Pht_direct { entries = 32 } in
  let m = map_of miss (Analyze.analyze ~suite:[ miss ] ~profile image) in
  Alcotest.(check int) "32 entries separate the pair" 0
    (List.length m.Analyze.conflicts);
  let btb = Structure.Btb { entries = 2; assoc = 1 } in
  let m = map_of btb (Analyze.analyze ~suite:[ btb ] ~profile image) in
  match m.Analyze.conflicts with
  | [ c ] -> Alcotest.(check int) "btb set" 1 c.Analyze.index
  | cs -> Alcotest.failf "expected 1 BTB conflict, got %d" (List.length cs)

let test_hand_program_dynamic () =
  let program = colliding_program () in
  let profile, trace =
    Ba_trace.Record.profile_and_record ~max_steps:2_000 program
  in
  let image = Ba_layout.Image.original ~profile program in
  let alias16 =
    sim_counter ~trace ~max_steps:2_000
      ~arch:(Ba_sim.Bep.Pht_direct { entries = 16 })
      image "predict.pht.alias"
  in
  Alcotest.(check bool) "16-entry PHT aliases" true (alias16 > 0);
  let alias32 =
    sim_counter ~trace ~max_steps:2_000
      ~arch:(Ba_sim.Bep.Pht_direct { entries = 32 })
      image "predict.pht.alias"
  in
  Alcotest.(check int) "32-entry PHT alias-free" 0 alias32

(* ------------------------------------------------------------------ *)
(* Static call-depth bounds *)

let call_chain_program () =
  let main =
    Proc.make ~name:"main"
      [| Block.make (Term.Call { callee = 1; next = 1 }); Block.make Term.Halt |]
  in
  let mid =
    Proc.make ~name:"mid"
      [| Block.make (Term.Call { callee = 2; next = 1 }); Block.make Term.Ret |]
  in
  let leaf = Proc.make ~name:"leaf" [| Block.make Term.Ret |] in
  Program.make ~name:"chain" [| main; mid; leaf |]

let recursive_program () =
  let main =
    Proc.make ~name:"main"
      [| Block.make (Term.Call { callee = 1; next = 1 }); Block.make Term.Halt |]
  in
  let back =
    Proc.make ~name:"back"
      [| Block.make (Term.Call { callee = 0; next = 1 }); Block.make Term.Ret |]
  in
  Program.make ~name:"mutual" [| main; back |]

let test_ras_bounds () =
  let chain = call_chain_program () in
  let profile, _ = Ba_trace.Record.profile_and_record ~max_steps:100 chain in
  let image = Ba_layout.Image.original ~profile chain in
  let s = Site.extract ~profile image in
  Alcotest.(check (option int)) "main->mid->leaf bounds at 2" (Some 2)
    s.Site.ras_bound;
  let deep = ras_of (Analyze.analyze ~suite:[ Structure.Ras { depth = 1 } ] ~profile image) in
  Alcotest.(check bool) "1-deep stack overflows" true deep.Analyze.overflow_possible;
  let wide = ras_of (Analyze.analyze ~suite:[ Structure.Ras { depth = 4 } ] ~profile image) in
  Alcotest.(check bool) "4-deep stack fits" false wide.Analyze.overflow_possible;
  let rec_p = recursive_program () in
  let profile, _ = Ba_trace.Record.profile_and_record ~max_steps:100 rec_p in
  let image = Ba_layout.Image.original ~profile rec_p in
  let s = Site.extract ~profile image in
  Alcotest.(check (option int)) "mutual recursion is unbounded" None
    s.Site.ras_bound

(* ------------------------------------------------------------------ *)
(* Lint rules: stable ids, Info-only severity. *)

let test_lint_rules () =
  let program = colliding_program () in
  let profile, _ = Ba_trace.Record.profile_and_record ~max_steps:2_000 program in
  let image = Ba_layout.Image.original ~profile program in
  let diags =
    Lint.check ~suite:[ Structure.Pht_direct { entries = 16 } ] ~profile image
  in
  Alcotest.(check bool) "conflict/pht-hot-pair fires" true
    (List.exists
       (fun d -> d.Ba_analysis.Diagnostic.rule = "conflict/pht-hot-pair")
       diags);
  List.iter
    (fun d ->
      Alcotest.(check bool) "conflict findings are Info" false
        (Ba_analysis.Diagnostic.is_error d))
    diags;
  let rec_p = recursive_program () in
  let profile, _ = Ba_trace.Record.profile_and_record ~max_steps:100 rec_p in
  let image = Ba_layout.Image.original ~profile rec_p in
  let diags = Lint.check ~suite:[ Structure.Ras { depth = 32 } ] ~profile image in
  Alcotest.(check bool) "conflict/ras-depth fires on recursion" true
    (List.exists
       (fun d -> d.Ba_analysis.Diagnostic.rule = "conflict/ras-depth")
       diags)

(* ------------------------------------------------------------------ *)
(* Pad re-scoring: scoring extracted sites under shifted bases (the pure
   arithmetic the placement search runs in its inner loop) must agree
   exactly with re-analyzing an image rebuilt with those pads. *)

let test_pad_rescore () =
  let w = workload "tex" in
  let program, profile = Ba_workloads.Profiled.get ~max_steps:20_000 w in
  let decisions =
    Ba_core.Align.align_program Ba_core.Align.Cost ~arch:Ba_core.Cost_model.Btb
      profile
  in
  let image = Ba_layout.Image.build ~profile program decisions in
  let s = Site.extract ~profile image in
  let n = Array.length image.Ba_layout.Image.bases in
  let pads = Array.init n (fun p -> p * 3 mod 7) in
  let padded = Ba_layout.Image.build ~profile ~pads program decisions in
  let suite = Structure.placement_suite in
  let via_bases =
    Analyze.of_summary ~suite ~bases:padded.Ba_layout.Image.bases s
  in
  let via_image = Analyze.analyze ~suite ~profile padded in
  Alcotest.(check string) "re-scoring equals re-analysis"
    (Ba_util.Json.to_string (Analyze.to_json via_image))
    (Ba_util.Json.to_string (Analyze.to_json via_bases))

(* ------------------------------------------------------------------ *)
(* QCheck cross-validation on generated programs. *)

let qcheck_steps = 2_000

let images_of program profile =
  [
    Ba_layout.Image.original ~profile program;
    Ba_core.Align.image (Ba_core.Align.Tryn 5) ~arch:Ba_core.Cost_model.Btfnt
      profile;
  ]

let test_bep_cross =
  QCheck.Test.make
    ~name:"static maps agree with Bep counters (PHT / BTB / RAS)" ~count:30
    Gen_prog.program_arb (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      List.for_all
        (fun image ->
          let pht = Structure.Pht_direct { entries = 64 } in
          let m = map_of pht (Analyze.analyze ~suite:[ pht ] ~profile image) in
          let alias =
            sim_counter ~trace ~max_steps:qcheck_steps
              ~arch:(Ba_sim.Bep.Pht_direct { entries = 64 })
              image "predict.pht.alias"
          in
          if alias > 0 && m.Analyze.conflicts = [] then
            QCheck.Test.fail_reportf "%d aliases but no static PHT conflict"
              alias
          else if alias = 0 && m.Analyze.conflicts <> [] then
            QCheck.Test.fail_reportf "static PHT conflict but no aliases"
          else if alias > conflict_occupant_weight m then
            QCheck.Test.fail_reportf "aliases %d exceed occupant weight %d"
              alias (conflict_occupant_weight m)
          else begin
            let btb = Structure.Btb { entries = 16; assoc = 2 } in
            let mb =
              map_of btb (Analyze.analyze ~suite:[ btb ] ~profile image)
            in
            let evict =
              sim_counter ~trace ~max_steps:qcheck_steps
                ~arch:(Ba_sim.Bep.Btb_arch { entries = 16; assoc = 2 })
                image "predict.btb.evict"
            in
            if mb.Analyze.conflicts = [] && evict > 0 then
              QCheck.Test.fail_reportf
                "conflict-free static BTB map but %d evictions" evict
            else begin
              let r =
                ras_of
                  (Analyze.analyze ~suite:[ Structure.Ras { depth = 8 } ]
                     ~profile image)
              in
              match r.Analyze.static_bound with
              | Some b when b <= 8 ->
                let overflow =
                  sim_counter ~return_stack_depth:8 ~trace
                    ~max_steps:qcheck_steps ~arch:Ba_sim.Bep.Static_btfnt image
                    "predict.ras.overflow"
                in
                if overflow > 0 then
                  QCheck.Test.fail_reportf
                    "static depth bound %d fits 8 but %d overflows" b overflow
                else true
              | _ -> true
            end
          end)
        (images_of program profile))

let test_alpha_cross =
  QCheck.Test.make
    ~name:"static line maps agree with Alpha refill / icache miss counters"
    ~count:30 Gen_prog.program_arb (fun program ->
      let profile, trace =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      let alpha = Structure.Alpha { lines = 8; insns_per_line = 8 } in
      let icache = Structure.Icache { lines = 16; insns_per_line = 8; assoc = 1 } in
      let config =
        { Ba_sim.Alpha.default_config with lines = 8; icache_lines = 16 }
      in
      List.for_all
        (fun image ->
          let reports =
            Analyze.analyze ~suite:[ alpha; icache ] ~profile image
          in
          let am = map_of alpha reports in
          let im = map_of icache reports in
          let refill, miss =
            alpha_counters ~trace ~max_steps:qcheck_steps ~config image
          in
          if refill < am.Analyze.items then
            QCheck.Test.fail_reportf "refills %d below %d conditional lines"
              refill am.Analyze.items
          else if am.Analyze.conflicts = [] && refill <> am.Analyze.items then
            QCheck.Test.fail_reportf
              "conflict-free history lines but %d refills for %d lines" refill
              am.Analyze.items
          else if im.Analyze.conflicts = [] && miss > im.Analyze.items then
            QCheck.Test.fail_reportf
              "conflict-free icache map but %d misses for %d lines" miss
              im.Analyze.items
          else true)
        (images_of program profile))

(* ------------------------------------------------------------------ *)
(* The agreement wall: every built-in workload, original and Try15/BTB
   images, static maps vs dynamic counters under matching geometries. *)

let wall_steps = Matrix.wall_steps

let test_workload_agreement () =
  Matrix.iter_traced (fun w program profile trace ->
      let images =
        [
          ("orig", Ba_layout.Image.original ~profile program);
          ( "try15",
            Ba_core.Align.image (Ba_core.Align.Tryn 15)
              ~arch:Ba_core.Cost_model.Btb profile );
        ]
      in
      List.iter
        (fun (label, image) ->
          let ctx msg = w.Ba_workloads.Spec.name ^ "/" ^ label ^ ": " ^ msg in
          let pht = Structure.Pht_direct { entries = 256 } in
          let m = map_of pht (Analyze.analyze ~suite:[ pht ] ~profile image) in
          let alias =
            sim_counter ~trace ~max_steps:wall_steps
              ~arch:(Ba_sim.Bep.Pht_direct { entries = 256 })
              image "predict.pht.alias"
          in
          Alcotest.(check bool)
            (ctx "pht aliases iff static conflicts")
            (m.Analyze.conflicts <> [])
            (alias > 0);
          Alcotest.(check bool)
            (ctx "pht aliases bounded by occupant weight")
            true
            (alias <= conflict_occupant_weight m);
          let btb = Structure.Btb { entries = 64; assoc = 2 } in
          let mb = map_of btb (Analyze.analyze ~suite:[ btb ] ~profile image) in
          let evict =
            sim_counter ~trace ~max_steps:wall_steps
              ~arch:(Ba_sim.Bep.Btb_arch { entries = 64; assoc = 2 })
              image "predict.btb.evict"
          in
          if mb.Analyze.conflicts = [] then
            Alcotest.(check int) (ctx "btb conflict-free means no evictions") 0
              evict;
          let r =
            ras_of
              (Analyze.analyze ~suite:[ Structure.Ras { depth = 32 } ] ~profile
                 image)
          in
          (match r.Analyze.static_bound with
          | Some b when b <= 32 ->
            let overflow =
              sim_counter ~return_stack_depth:32 ~trace ~max_steps:wall_steps
                ~arch:Ba_sim.Bep.Static_btfnt image "predict.ras.overflow"
            in
            Alcotest.(check int) (ctx "ras bound means no overflow") 0 overflow
          | _ -> ());
          let alpha = Structure.Alpha { lines = 32; insns_per_line = 8 } in
          let icache =
            Structure.Icache { lines = 64; insns_per_line = 8; assoc = 1 }
          in
          let reports =
            Analyze.analyze ~suite:[ alpha; icache ] ~profile image
          in
          let am = map_of alpha reports in
          let im = map_of icache reports in
          let config = { Ba_sim.Alpha.default_config with lines = 32 } in
          let refill, miss =
            alpha_counters ~trace ~max_steps:wall_steps ~config image
          in
          Alcotest.(check bool)
            (ctx "alpha refills cover conditional lines")
            true
            (refill >= am.Analyze.items);
          if am.Analyze.conflicts = [] then
            Alcotest.(check int)
              (ctx "conflict-free history lines refill once")
              am.Analyze.items refill;
          if im.Analyze.conflicts = [] then
            Alcotest.(check bool)
              (ctx "conflict-free icache bounds misses")
              true
              (miss <= im.Analyze.items))
        images)

(* ------------------------------------------------------------------ *)
(* Placement invariants. *)

let test_placement_workloads () =
  List.iter
    (fun name ->
      let w = workload name in
      let program, profile = Ba_workloads.Profiled.get ~max_steps:wall_steps w in
      let decisions =
        Ba_core.Align.align_program (Ba_core.Align.Tryn 15)
          ~arch:Ba_core.Cost_model.Btb profile
      in
      let place =
        Place.improve ~arch:Ba_core.Cost_model.Btb ~profile program decisions
      in
      Alcotest.(check bool) (name ^ ": objective never worse") true
        (place.Place.after <= place.Place.before);
      Alcotest.(check int)
        (name ^ ": padded image lints clean")
        0
        (errors (Ba_analysis.Check_image.check place.Place.image));
      let { Ba_verify.Run.bisim; cert_diags; _ } =
        Ba_verify.Run.verify_image ~workload:name ~algo:"try15"
          ~profile place.Place.image
      in
      Alcotest.(check int)
        (name ^ ": placed image bisimulates and certifies")
        0
        (errors (bisim @ cert_diags)))
    [ "compress"; "espresso"; "tomcatv" ]

let test_placement_report () =
  let row = Ba_report.Placement.evaluate ~max_steps:wall_steps (workload "eqntott") in
  let total = Array.fold_left ( + ) 0 in
  Alcotest.(check bool) "objective never worse" true
    (row.Ba_report.Placement.after <= row.Ba_report.Placement.before);
  Alcotest.(check bool) "effective cycles never worse than base" true
    (total row.Ba_report.Placement.effective <= total row.Ba_report.Placement.base);
  if row.Ba_report.Placement.applied then
    Alcotest.(check bool) "applied rows ship a non-regressing image" true
      (total row.Ba_report.Placement.placed <= total row.Ba_report.Placement.base)

let test_place_qcheck =
  QCheck.Test.make ~name:"placement never raises the objective, images stay valid"
    ~count:25 Gen_prog.program_arb (fun program ->
      let profile, _ =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      let decisions =
        Ba_core.Align.align_program Ba_core.Align.Greedy
          ~arch:Ba_core.Cost_model.Btfnt profile
      in
      let place = Place.improve ~profile program decisions in
      if place.Place.after > place.Place.before then
        QCheck.Test.fail_reportf "objective rose: %d -> %d" place.Place.before
          place.Place.after
      else begin
        let e = errors (Ba_analysis.Check_image.check place.Place.image) in
        if e > 0 then
          QCheck.Test.fail_reportf "padded image has %d lint errors" e
        else true
      end)

(* ------------------------------------------------------------------ *)
(* Placement edge cases: degenerate inputs the improver must survive
   without perturbing anything it should not. *)

(* Single-block procedures: main's callee has no non-entry position, so
   the swap search has nothing to move and padding is the only lever. *)
let test_place_single_block () =
  let open Ba_ir in
  let lone =
    Program.make ~name:"lone" ~seed:1
      [| Proc.make ~name:"main" [| Block.make ~insns:4 Term.Halt |] |]
  in
  let with_leaf =
    Program.make ~name:"with-leaf" ~seed:2
      [|
        Proc.make ~name:"main"
          [|
            Block.make ~insns:2 (Term.Call { callee = 1; next = 1 });
            Block.make ~insns:2 Term.Halt;
          |];
        Proc.make ~name:"leaf" [| Block.make ~insns:3 Term.Ret |];
      |]
  in
  List.iter
    (fun program ->
      let profile, _ =
        Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
      in
      let decisions =
        Array.init (Ba_ir.Program.n_procs program) (fun p ->
            Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
      in
      let place = Place.improve ~profile program decisions in
      Alcotest.(check bool) "objective never worse" true
        (place.Place.after <= place.Place.before);
      Alcotest.(check int) "nothing to swap" 0 place.Place.swaps;
      Alcotest.(check int) "image lints clean" 0
        (errors (Ba_analysis.Check_image.check place.Place.image)))
    [ lone; with_leaf ]

(* A created-but-never-run profile weighs every site at zero: no move can
   strictly improve, so the improver must reproduce the input exactly. *)
let test_place_zero_profile () =
  let program = (workload "compress").Ba_workloads.Spec.build () in
  let profile = Ba_cfg.Profile.create program in
  let decisions =
    Array.init (Ba_ir.Program.n_procs program) (fun p ->
        Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
  in
  let place = Place.improve ~profile program decisions in
  Alcotest.(check int) "zero objective in" 0 place.Place.before;
  Alcotest.(check int) "zero objective out" 0 place.Place.after;
  Alcotest.(check int) "no swaps" 0 place.Place.swaps;
  Alcotest.(check int) "no pads" 0 (Array.fold_left ( + ) 0 place.Place.pads);
  Alcotest.(check int) "image lints clean" 0
    (errors (Ba_analysis.Check_image.check place.Place.image))

(* Padding landing exactly on a structure boundary: two hot self-loop
   conditionals in different procedures share the only set their parity
   allows in a 2-set direct-mapped BTB; no swap can separate them (each
   branch terminates its procedure's pinned entry block, and reordering
   the remaining blocks inserts a jump the cost guard rejects), so the
   improver must shift a whole procedure across the set boundary with
   inter-procedure padding. *)
let test_place_pad_boundary () =
  let open Ba_ir in
  let hot = Behavior.Loop 9 in
  let program =
    Program.make ~name:"collide" ~seed:3
      [|
        Proc.make ~name:"main"
          [|
            Block.make ~insns:2
              (Term.Cond { on_true = 0; on_false = 1; behavior = hot });
            Block.make ~insns:2 (Term.Call { callee = 1; next = 2 });
            Block.make ~insns:2 Term.Halt;
          |];
        Proc.make ~name:"spin"
          [|
            (* 3 slots, not 2: lands spin's branch on main's hot set. *)
            Block.make ~insns:3
              (Term.Cond { on_true = 0; on_false = 1; behavior = hot });
            Block.make ~insns:2 Term.Ret;
          |];
      |]
  in
  let suite = [ Structure.Btb { entries = 2; assoc = 1 } ] in
  let profile, _ =
    Ba_trace.Record.profile_and_record ~max_steps:qcheck_steps program
  in
  let decisions =
    Array.init (Ba_ir.Program.n_procs program) (fun p ->
        Ba_layout.Decision.identity (Ba_ir.Program.proc program p))
  in
  let place = Place.improve ~suite ~profile program decisions in
  Alcotest.(check bool) "the identity layout collides" true
    (place.Place.before > 0);
  Alcotest.(check bool) "padding separates the sets" true
    (place.Place.after < place.Place.before);
  Alcotest.(check bool) "a pad was placed" true
    (Array.fold_left ( + ) 0 place.Place.pads > 0);
  Alcotest.(check int) "no swaps" 0 place.Place.swaps;
  Alcotest.(check int) "padded image lints clean" 0
    (errors (Ba_analysis.Check_image.check place.Place.image))

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "conflict.analyze",
      [
        Alcotest.test_case "pht synthetic counts" `Quick test_pht_synthetic;
        Alcotest.test_case "btb synthetic counts" `Quick test_btb_synthetic;
        Alcotest.test_case "icache synthetic counts" `Quick test_icache_synthetic;
        Alcotest.test_case "ras synthetic bounds" `Quick test_ras_synthetic;
        Alcotest.test_case "hand program static map" `Quick test_hand_program_static;
        Alcotest.test_case "hand program dynamic counters" `Quick
          test_hand_program_dynamic;
        Alcotest.test_case "call-depth bounds" `Quick test_ras_bounds;
        Alcotest.test_case "lint rules" `Quick test_lint_rules;
        Alcotest.test_case "pad re-scoring" `Quick test_pad_rescore;
      ] );
    ( "conflict.cross",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ test_bep_cross; test_alpha_cross ] );
    ( "conflict.wall",
      [
        Alcotest.test_case "all workloads, static maps vs counters" `Slow
          test_workload_agreement;
      ] );
    ( "conflict.place",
      [
        Alcotest.test_case "curated placement verifies" `Slow
          test_placement_workloads;
        Alcotest.test_case "placement report row" `Slow test_placement_report;
        QCheck_alcotest.to_alcotest ~long:false test_place_qcheck;
        Alcotest.test_case "single-block procedures" `Quick
          test_place_single_block;
        Alcotest.test_case "zero-weight profile is a no-op" `Quick
          test_place_zero_profile;
        Alcotest.test_case "padding crosses a structure boundary" `Quick
          test_place_pad_boundary;
      ] );
  ]
