(* Experiment driver: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md.

     experiments table1 | table2 | table3 | table4 | fig4 | all
     experiments placement | interproc | gap
     experiments ablation-order | ablation-tryn | ablation-penalty
     experiments ablation-unroll | ablation-refine | ablation-cross-input
     experiments ablation-algos | calibrate

   All commands accept --max-steps to trade fidelity for speed, and
   --only PROG[,PROG...] to restrict the workload set.  The table/figure
   commands additionally take -j JOBS (default: BA_JOBS or the domain
   count) to evaluate workloads on a deterministic Ba_par pool; output is
   byte-identical whatever the job count. *)

open Cmdliner

let named = List.map (fun n -> Option.get (Ba_workloads.Spec.by_name n))

(* --only parses the whole list, so an unknown name is a one-line usage
   error (exit 124) naming just that workload. *)
let only_conv =
  let parse s =
    let names = String.split_on_char ',' s in
    match List.find_opt (fun n -> Ba_workloads.Spec.by_name n = None) names with
    | Some bad -> Error (`Msg (Printf.sprintf "unknown workload %S" bad))
    | None -> Ok (named names)
  in
  let print ppf ws =
    Fmt.string ppf
      (String.concat "," (List.map (fun (w : Ba_workloads.Spec.t) -> w.name) ws))
  in
  Arg.conv (parse, print)

(* The --only workloads, or [defaults] when none were given. *)
let select ?(defaults = Ba_workloads.Spec.all) = function
  | [] -> defaults
  | only -> only

let max_steps_arg =
  let doc = "Execution budget in semantic block visits per run." in
  Arg.(
    value
    & opt Cli.positive Ba_workloads.Spec.default_max_steps
    & info [ "max-steps" ] ~doc)

let only_arg =
  let doc = "Comma-separated workload names to evaluate (default: all 24)." in
  Arg.(value & opt only_conv [] & info [ "only" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the evaluation pool (default: \\$(b,BA_JOBS) or the \
     machine's domain count; 1 forces the sequential path).  Output is \
     byte-identical for every value."
  in
  Arg.(value & opt (some Cli.jobs) None & info [ "j"; "jobs" ] ~doc)

let timings_arg =
  let doc = "After the figures, print per-workload evaluation wall times." in
  Arg.(value & flag & info [ "timings" ] ~doc)

let metrics_arg =
  let doc =
    "Collect pipeline metrics (counters, histograms, stage spans) while \
     evaluating and print them after the figures.  $(b,--metrics) prints \
     ASCII tables; $(b,--metrics=json) prints a deterministic JSON document \
     (byte-identical for every $(b,-j); wall times and scheduling-dependent \
     metrics are elided)."
  in
  let fmt =
    Arg.enum [ ("ascii", Ba_obs.Sink.Ascii); ("json", Ba_obs.Sink.Json) ]
  in
  Arg.(value & opt ~vopt:(Some Ba_obs.Sink.Ascii) (some fmt) None & info [ "metrics" ] ~doc)

let print_table1 () = print_string (Ba_report.Tables.table1 ())

let run_table which max_steps only jobs =
  let evals = Ba_report.Harness.evaluate_suite ~max_steps ?jobs (select only) in
  let render =
    match which with
    | `Table2 -> Ba_report.Tables.table2
    | `Table3 -> Ba_report.Tables.table3
    | `Table4 -> Ba_report.Tables.table4
    | `Fig4 -> Ba_report.Tables.fig4
  in
  print_string (render evals)

let run_all max_steps only jobs timings metrics =
  let registry =
    match metrics with None -> None | Some _ -> Some (Ba_obs.Registry.create ())
  in
  let collected f =
    match registry with None -> f () | Some r -> Ba_obs.Registry.with_registry r f
  in
  let evals, stats =
    collected (fun () ->
        Ba_report.Harness.evaluate_suite_timed ~max_steps ?jobs (select only))
  in
  print_endline "== Table 1: branch cost model (cycles) ==";
  print_string (Ba_report.Tables.table1 ());
  print_endline "\n== Table 2: measured attributes of the traced programs ==";
  print_string (Ba_report.Tables.table2 evals);
  print_endline "\n== Table 3: relative CPI, static prediction architectures ==";
  print_string (Ba_report.Tables.table3 evals);
  print_endline "\n== Table 4: relative CPI, dynamic prediction architectures ==";
  print_string (Ba_report.Tables.table4 evals);
  print_endline "\n== Figure 4: relative execution time, Alpha 21064 model ==";
  print_string (Ba_report.Tables.fig4 evals);
  print_endline
    "\n== Inter-procedural layout: penalty cycles, plain>stitched (ExtTsp) ==";
  let ip_rows =
    collected (fun () ->
        Ba_report.Interproc.evaluate_suite ~max_steps ?jobs (select only))
  in
  print_string (Ba_report.Interproc.render ip_rows);
  if timings then begin
    print_endline "\n== Per-workload evaluation wall times ==";
    print_string (Ba_par.Stats.render stats)
  end;
  match (metrics, registry) with
  | Some format, Some r ->
    print_endline "\n== Pipeline metrics ==";
    print_string (Ba_obs.Sink.emit format r)
  | _ -> ()

let placement_format_arg =
  let doc = "Output format: the default ASCII table, or json." in
  let fmt = Arg.enum [ ("ascii", `Ascii); ("table", `Ascii); ("json", `Json) ] in
  Arg.(value & opt fmt `Ascii & info [ "format" ] ~doc)

(* The conflict-aware placement table: penalty cycles with and without the
   placement post-pass, across the seven simulated architectures. *)
let run_placement max_steps only jobs format =
  let rows = Ba_report.Placement.evaluate_suite ~max_steps ?jobs (select only) in
  match format with
  | `Ascii -> print_string (Ba_report.Placement.render rows)
  | `Json ->
    print_endline (Ba_util.Json.to_string (Ba_report.Placement.to_json rows))

(* The inter-procedural layout table: ExtTsp-aligned decisions scored
   through both the classic per-procedure image and the stitched one, the
   stitched layout proved before being trusted. *)
let run_interproc max_steps only jobs format =
  let rows =
    Ba_report.Interproc.evaluate_suite ~max_steps ?jobs (select only)
  in
  (match format with
  | `Ascii -> print_string (Ba_report.Interproc.render rows)
  | `Json ->
    print_endline (Ba_util.Json.to_string (Ba_report.Interproc.to_json rows)));
  if List.exists (fun r -> not r.Ba_report.Interproc.verified) rows then exit 1

(* The measured optimality-gap table: exact simulated penalty cycles of
   each algorithm's layout against the Optimal-k branch-and-bound winner,
   whose search is pruned by the static Ba_bound lower bounds. *)
let run_gap max_steps only jobs k format =
  let rows = Ba_report.Gap.evaluate_suite ~max_steps ~k ?jobs (select only) in
  match format with
  | `Ascii -> print_string (Ba_report.Gap.render rows)
  | `Json -> print_endline (Ba_util.Json.to_string (Ba_report.Gap.to_json rows))

let calibrate max_steps only =
  let columns =
    Ba_util.Ascii_table.
      [
        column ~align:Left "workload"; column "steps"; column "insns"; column "branches";
        column ~align:Left "completed"; column "blocks"; column "procs";
      ]
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let image = Ba_layout.Image.original program in
        let r = Ba_exec.Engine.run ~max_steps image in
        [
          w.name;
          Ba_util.Ascii_table.int_cell r.Ba_exec.Engine.steps;
          Ba_util.Ascii_table.int_cell r.Ba_exec.Engine.insns;
          Ba_util.Ascii_table.int_cell r.Ba_exec.Engine.branches;
          string_of_bool r.Ba_exec.Engine.completed;
          string_of_int (Ba_ir.Program.total_blocks program);
          string_of_int (Ba_ir.Program.n_procs program);
        ])
      (select only)
  in
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* -- ablations ------------------------------------------------------------- *)

(* Ablations A, B, C, E and G share one shape: per workload, record the
   profile and trace once, then score the original layout and each
   variant's image on one architecture, as relative CPI against the
   original's instruction count. *)
type ablation = {
  title : string;
  defaults : string list;  (* workloads when --only is not given *)
  arch : [ `Arch of Ba_sim.Bep.arch | `Likely ];
  orig_column : bool;
  variants : (string * (Ba_cfg.Profile.t -> Ba_layout.Image.t)) list;
}

let run_ablation a max_steps only =
  let open Ba_util.Ascii_table in
  let columns =
    column ~align:Left "workload"
    :: (if a.orig_column then [ column "Orig" ] else [])
    @ List.map (fun (label, _) -> column label) a.variants
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let profile, trace =
          Ba_trace.Record.profile_and_record ~max_steps program
        in
        let run =
          Ba_report.Harness.run_image ~profile ~trace ~archs:[ a.arch ]
        in
        let orig = run (Ba_layout.Image.original ~profile program) in
        let orig_insns = orig.Ba_report.Harness.result.Ba_exec.Engine.insns in
        let cell out = float_cell (Ba_report.Harness.cpi out ~orig_insns 0) in
        w.name
        :: (if a.orig_column then [ cell orig ] else [])
        @ List.map (fun (_, image) -> cell (run (image profile))) a.variants)
      (select ~defaults:(named a.defaults) only)
  in
  print_endline a.title;
  print_string (render ~columns ~rows)

let try15 = Ba_core.Align.Tryn 15

(* A variant's image: [algo] aligned under cost model [arch]. *)
let aligned ?strategy ?table ?refine_rounds algo arch profile =
  Ba_core.Align.image algo ?strategy ?table ?refine_rounds ~arch profile

(* Ablation A (§6.1): chain ordering strategy, weight-descending vs the
   Pettis & Hansen BT/FNT precedence, measured on the BT/FNT architecture. *)
let ablation_order =
  run_ablation
    {
      title = "Ablation A: chain ordering strategy (BT/FNT relative CPI, Try15)";
      defaults = [ "compress"; "eqntott"; "espresso"; "gcc"; "li"; "sc" ];
      arch = `Arch Ba_sim.Bep.Static_btfnt;
      orig_column = true;
      variants =
        List.map
          (fun (label, strategy) ->
            (label, aligned ~strategy try15 Ba_core.Cost_model.Btfnt))
          [
            ("weight-desc", Ba_layout.Chain_order.Weight_desc);
            ("btfnt-prec", Ba_layout.Chain_order.Btfnt_precedence);
          ];
    }

(* Ablation B (§4): TryN group size.  Joint placement of a whole loop's
   edges (the paper's Figure 3) matters on architectures that predict taken
   branches, so this ablation measures on LIKELY over the loop-heavy
   workloads. *)
let ablation_tryn =
  run_ablation
    {
      title = "Ablation B: TryN group size (LIKELY relative CPI)";
      defaults = [ "wave5"; "hydro2d"; "compress"; "tomcatv"; "espresso"; "gcc" ];
      arch = `Likely;
      orig_column = false;
      variants =
        List.map
          (fun n ->
            ( Printf.sprintf "Try%d" n,
              aligned (Ba_core.Align.Tryn n) Ba_core.Cost_model.Likely ))
          [ 1; 5; 10; 15 ];
    }

(* Ablation C: cost-model sensitivity — sweep the mispredict penalty used by
   the optimizer and measure on the unchanged simulator. *)
let ablation_penalty =
  run_ablation
    {
      title =
        "Ablation C: optimizer mispredict-penalty sweep (FALLTHROUGH relative \
         CPI, Try15)";
      defaults = [ "espresso" ];
      arch = `Arch Ba_sim.Bep.Static_fallthrough;
      orig_column = false;
      variants =
        List.map
          (fun mispredict ->
            ( Printf.sprintf "mp=%.0f" mispredict,
              aligned
                ~table:{ Ba_core.Cost_model.default_table with mispredict }
                try15 Ba_core.Cost_model.Fallthrough ))
          [ 1.0; 2.0; 4.0; 8.0; 16.0 ];
    }

(* Ablation E: iterative direction refinement for BT/FNT -- rounds after
   the first re-run Try15 with branch directions read off the previous
   layout instead of DFS guesses. *)
let ablation_refine =
  run_ablation
    {
      title = "Ablation E: direction-refinement rounds (BT/FNT relative CPI, Try15)";
      defaults = [ "compress"; "li"; "eqntott"; "wave5"; "hydro2d"; "gcc" ];
      arch = `Arch Ba_sim.Bep.Static_btfnt;
      orig_column = true;
      variants =
        List.map
          (fun refine_rounds ->
            ( Printf.sprintf "rounds=%d" refine_rounds,
              aligned ~strategy:Ba_layout.Chain_order.Btfnt_precedence
                ~refine_rounds try15 Ba_core.Cost_model.Btfnt ))
          [ 1; 2; 3 ];
    }

(* Ablation G: all four algorithms side by side on one architecture --
   the paper's qualitative claim that the cost-model algorithms beat Greedy
   (§4), including the cheap Cost heuristic it describes but does not
   tabulate. *)
let ablation_algos =
  run_ablation
    {
      title = "Ablation G: algorithm comparison (FALLTHROUGH relative CPI)";
      defaults = [ "alvinn"; "hydro2d"; "espresso"; "gcc"; "sc"; "groff" ];
      arch = `Arch Ba_sim.Bep.Static_fallthrough;
      orig_column = true;
      variants =
        List.map
          (fun algo ->
            ( Ba_core.Align.algo_name algo,
              aligned algo Ba_core.Cost_model.Fallthrough ))
          [ Ba_core.Align.Greedy; Ba_core.Align.Cost; Ba_core.Align.Tryn 5; try15 ];
    }

let fallthrough = [ `Arch Ba_sim.Bep.Static_fallthrough ]

(* Ablation D (§3): the ALVINN suggestion — duplicate single-block loop
   bodies so the copies need no branch at all; combined with alignment. *)
let ablation_unroll max_steps only =
  let factors = [ 2; 4 ] in
  let columns =
    Ba_util.Ascii_table.column ~align:Ba_util.Ascii_table.Left "workload"
    :: Ba_util.Ascii_table.column "sites"
    :: Ba_util.Ascii_table.column "Orig"
    :: Ba_util.Ascii_table.column "Try15"
    :: List.map
         (fun f -> Ba_util.Ascii_table.column (Printf.sprintf "unroll%d+Try15" f))
         factors
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        (* One recording pass and one walk per distinct program (the
           unrolled variants are different programs with their own decision
           streams). *)
        let scorer program =
          let profile, trace = Ba_trace.Record.profile_and_record ~max_steps program in
          (profile, Ba_report.Harness.run_image ~profile ~trace ~archs:fallthrough)
        in
        let base_profile, base_run = scorer program in
        let orig = base_run (Ba_layout.Image.original program) in
        let orig_insns = orig.Ba_report.Harness.result.Ba_exec.Engine.insns in
        let try15_cpi (profile, run) =
          Ba_report.Harness.cpi ~orig_insns
            (run (aligned try15 Ba_core.Cost_model.Fallthrough profile))
            0
        in
        let sites = List.length (Ba_core.Unroll.unrollable_self_loops program ~factor:2) in
        [
          w.name;
          string_of_int sites;
          Ba_util.Ascii_table.float_cell (Ba_report.Harness.cpi orig ~orig_insns 0);
          Ba_util.Ascii_table.float_cell (try15_cpi (base_profile, base_run));
        ]
        @ List.map
            (fun factor ->
              Ba_util.Ascii_table.float_cell
                (try15_cpi (scorer (Ba_core.Unroll.unroll_self_loops ~factor program))))
            factors)
      (select ~defaults:(named [ "alvinn"; "ear" ]) only)
  in
  print_endline
    "Ablation D: self-loop unrolling + Try15 (FALLTHROUGH relative CPI vs the\n\
     un-unrolled original program's instruction count)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Ablation F: profile robustness -- align with a profile gathered on one
   input (seed), evaluate on another.  The paper profiles and evaluates on
   the same input; this quantifies how much that flatters the results. *)
let ablation_cross_input max_steps only =
  let columns =
    Ba_util.Ascii_table.
      [
        column ~align:Left "workload"; column "Orig";
        column "same-input"; column "cross-input"; column "merged-2";
      ]
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let alt = Ba_ir.Program.with_seed program (program.Ba_ir.Program.seed + 1) in
        let alt2 = Ba_ir.Program.with_seed program (program.Ba_ir.Program.seed + 2) in
        (* Evaluation always runs the alternate input, so one recording of
           [alt] replays through every candidate layout below. *)
        let alt_profile, alt_trace =
          Ba_trace.Record.profile_and_record ~max_steps alt
        in
        let run =
          Ba_report.Harness.run_image ~profile:alt_profile ~trace:alt_trace
            ~archs:fallthrough
        in
        let orig = run (Ba_layout.Image.original alt) in
        let orig_insns = orig.Ba_report.Harness.result.Ba_exec.Engine.insns in
        let cell out =
          Ba_util.Ascii_table.float_cell (Ba_report.Harness.cpi out ~orig_insns 0)
        in
        let aligned_with profile =
          cell
            (run
               (Ba_layout.Image.build alt
                  (Ba_core.Align.align_program try15
                     ~arch:Ba_core.Cost_model.Fallthrough profile)))
        in
        let profile_of prog = Ba_exec.Engine.profile_program ~max_steps prog in
        let same = aligned_with alt_profile in
        let cross = aligned_with (profile_of program) in
        let merged =
          (* Two training inputs, neither the evaluation input. *)
          let p1 = profile_of program in
          let prog2 = Ba_ir.Program.with_seed program alt2.Ba_ir.Program.seed in
          let p2 = Ba_cfg.Profile.create program in
          let (_ : Ba_exec.Engine.result) =
            Ba_exec.Engine.run ~max_steps ~profile:p2 (Ba_layout.Image.original prog2)
          in
          aligned_with (Ba_cfg.Profile.merge [ p1; p2 ])
        in
        [ w.name; cell orig; same; cross; merged ])
      (select
         ~defaults:(named [ "espresso"; "gcc"; "li"; "sc"; "compress"; "spice" ])
         only)
  in
  print_endline
    "Ablation F: profile robustness (FALLTHROUGH relative CPI on a held-out\n\
     input; aligned with the same input, a different one, or two merged)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* -- command wiring ----------------------------------------------------------- *)

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const f $ max_steps_arg $ only_arg $ jobs_arg)

let cmd2 name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ max_steps_arg $ only_arg)

let () =
  (match Ba_par.Pool.check_env () with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("experiments: " ^ msg);
    exit 2);
  let table1_cmd =
    Cmd.v (Cmd.info "table1" ~doc:"Print the Table 1 cost model.")
      Term.(const print_table1 $ const ())
  in
  let group =
    Cmd.group (Cmd.info "experiments" ~doc:"Reproduce the paper's evaluation.")
      [
        table1_cmd;
        cmd "table2" "Reproduce Table 2 (traced program attributes)."
          (run_table `Table2);
        cmd "table3" "Reproduce Table 3 (static architectures)."
          (run_table `Table3);
        cmd "table4" "Reproduce Table 4 (dynamic architectures)."
          (run_table `Table4);
        cmd "fig4" "Reproduce Figure 4 (Alpha 21064 execution time)."
          (run_table `Fig4);
        Cmd.v
          (Cmd.info "placement"
             ~doc:
               "Penalty cycles with and without the conflict-aware placement \
                post-pass (Try15/BTB baseline, seven architectures).")
          Term.(
            const run_placement $ max_steps_arg $ only_arg $ jobs_arg
            $ placement_format_arg);
        Cmd.v
          (Cmd.info "interproc"
             ~doc:
               "Inter-procedural layout: ExtTsp-aligned decisions scored \
                through the classic per-procedure image and the \
                call-graph-stitched, hot/cold-split one, across the seven \
                simulated architectures.  Every stitched layout is \
                bisimulation-proved and cost-certified; exits non-zero if \
                any fails.")
          Term.(
            const run_interproc $ max_steps_arg $ only_arg $ jobs_arg
            $ placement_format_arg);
        Cmd.v
          (Cmd.info "gap"
             ~doc:
               "Measured optimality gaps: simulated penalty cycles of \
                Greedy, Cost, ExtTsp and Try15 against the Optimal-k \
                branch-and-bound winner (pruned by static lower bounds), \
                per workload and cost-model architecture.")
          Term.(
            const run_gap $ max_steps_arg $ only_arg $ jobs_arg
            $ Arg.(
                value & opt int 4
                & info [ "k" ]
                    ~doc:"How many of the hottest chains Optimal-k reorders.")
            $ placement_format_arg);
        Cmd.v
          (Cmd.info "all" ~doc:"Reproduce every table and figure.")
          Term.(
            const run_all $ max_steps_arg $ only_arg $ jobs_arg
            $ timings_arg $ metrics_arg);
        cmd2 "calibrate" "Print run lengths of each workload." calibrate;
        cmd2 "ablation-order" "Chain-ordering ablation (§6.1)." ablation_order;
        cmd2 "ablation-tryn" "TryN group-size ablation." ablation_tryn;
        cmd2 "ablation-penalty" "Cost-model penalty sweep." ablation_penalty;
        cmd2 "ablation-unroll" "Self-loop unrolling (§3 ALVINN suggestion)."
          ablation_unroll;
        cmd2 "ablation-refine" "Iterative BT/FNT direction refinement."
          ablation_refine;
        cmd2 "ablation-cross-input" "Profile robustness across inputs."
          ablation_cross_input;
        cmd2 "ablation-algos" "Greedy vs Cost vs TryN comparison."
          ablation_algos;
      ]
  in
  exit (Cmd.eval group)
