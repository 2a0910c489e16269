(* Experiment driver: regenerates every table and figure of the paper's
   evaluation, plus the ablations called out in DESIGN.md.

     experiments table1 | table2 | table3 | table4 | fig4 | all
     experiments ablation-order | ablation-tryn | ablation-penalty
     experiments calibrate

   All commands accept --max-steps to trade fidelity for speed, and
   --only PROG[,PROG...] to restrict the workload set.  The table/figure
   commands additionally take -j JOBS (default: BA_JOBS or the domain
   count) to evaluate workloads on a deterministic Ba_par pool; output is
   byte-identical whatever the job count. *)

open Cmdliner

let select only =
  match only with
  | [] -> Ba_workloads.Spec.all
  | names ->
    List.map
      (fun n ->
        match Ba_workloads.Spec.by_name n with
        | Some w -> w
        | None -> failwith (Printf.sprintf "unknown workload %S" n))
      names

let max_steps_arg =
  let doc = "Execution budget in semantic block visits per run." in
  Arg.(value & opt int Ba_workloads.Spec.default_max_steps & info [ "max-steps" ] ~doc)

let only_arg =
  let doc = "Comma-separated workload names to evaluate (default: all 24)." in
  Arg.(value & opt (list string) [] & info [ "only" ] ~doc)

let tryn_arg =
  let doc = "Group size for the TryN algorithm (the paper uses 15)." in
  Arg.(value & opt int 15 & info [ "tryn" ] ~doc)

(* Strict job-count parsing, shared with BA_JOBS: zero, negative and
   garbage values are command-line errors, never silent defaults. *)
let jobs_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Ba_par.Pool.jobs_of_string s)
  in
  Arg.conv (parse, Fmt.int)

let jobs_arg =
  let doc =
    "Worker domains for the evaluation pool (default: \\$(b,BA_JOBS) or the \
     machine's domain count; 1 forces the sequential path).  Output is \
     byte-identical for every value."
  in
  Arg.(value & opt (some jobs_conv) None & info [ "j"; "jobs" ] ~doc)

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

let evaluate ~max_steps ~tryn ~only ?jobs () =
  Ba_report.Harness.evaluate_suite ~max_steps ~tryn ?jobs (select only)

let print_table1 () = print_string (Ba_report.Tables.table1 ())

let run_table which max_steps only tryn jobs =
  let evals = evaluate ~max_steps ~tryn ~only ?jobs () in
  let render =
    match which with
    | `Table2 -> Ba_report.Tables.table2
    | `Table3 -> Ba_report.Tables.table3
    | `Table4 -> Ba_report.Tables.table4
    | `Fig4 -> Ba_report.Tables.fig4
  in
  print_string (render evals)

let run_all max_steps only tryn jobs timings metrics =
  let registry =
    match metrics with None -> None | Some _ -> Some (Ba_obs.Registry.create ())
  in
  let collected f =
    match registry with None -> f () | Some r -> Ba_obs.Registry.with_registry r f
  in
  let evals, stats =
    collected (fun () ->
        Ba_report.Harness.evaluate_suite_timed ~max_steps ~tryn ?jobs (select only))
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
let run_placement max_steps only tryn jobs format =
  let rows =
    Ba_report.Placement.evaluate_suite ~max_steps ~tryn ?jobs (select only)
  in
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
let run_gap max_steps only tryn jobs k format =
  let rows = Ba_report.Gap.evaluate_suite ~max_steps ~k ~tryn ?jobs (select only) in
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

(* Ablation A (§6.1): chain ordering strategy, weight-descending vs the
   Pettis & Hansen BT/FNT precedence, measured on the BT/FNT architecture. *)
let ablation_order max_steps only =
  let workloads =
    match only with [] -> select [ "compress"; "eqntott"; "espresso"; "gcc"; "li"; "sc" ]
    | names -> select names
  in
  let columns =
    Ba_util.Ascii_table.
      [ column ~align:Left "workload"; column "Orig"; column "weight-desc"; column "btfnt-prec" ]
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let profile, trace =
          Ba_trace.Record.profile_and_record ~max_steps program
        in
        let orig_out =
          Ba_sim.Runner.simulate ~max_steps ~trace ~archs:[ Ba_sim.Bep.Static_btfnt ]
            (Ba_layout.Image.original ~profile program)
        in
        let orig_insns = orig_out.Ba_sim.Runner.result.Ba_exec.Engine.insns in
        let run strategy =
          let image =
            Ba_core.Align.image (Ba_core.Align.Tryn 15) ~strategy
              ~arch:Ba_core.Cost_model.Btfnt profile
          in
          let out =
            Ba_sim.Runner.simulate ~max_steps ~trace
              ~archs:[ Ba_sim.Bep.Static_btfnt ] image
          in
          let _, sim = out.Ba_sim.Runner.sims.(0) in
          Ba_sim.Bep.relative_cpi sim ~insns:out.Ba_sim.Runner.result.Ba_exec.Engine.insns
            ~orig_insns
        in
        let _, orig_sim = orig_out.Ba_sim.Runner.sims.(0) in
        [
          w.name;
          Ba_util.Ascii_table.float_cell
            (Ba_sim.Bep.relative_cpi orig_sim
               ~insns:orig_out.Ba_sim.Runner.result.Ba_exec.Engine.insns ~orig_insns);
          Ba_util.Ascii_table.float_cell (run Ba_layout.Chain_order.Weight_desc);
          Ba_util.Ascii_table.float_cell (run Ba_layout.Chain_order.Btfnt_precedence);
        ])
      workloads
  in
  print_endline "Ablation A: chain ordering strategy (BT/FNT relative CPI, Try15)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Ablation B (§4): TryN group size.  Joint placement of a whole loop's
   edges (the paper's Figure 3) matters on architectures that predict taken
   branches, so this ablation measures on LIKELY over the loop-heavy
   workloads. *)
let ablation_tryn max_steps only =
  let workloads =
    match only with
    | [] -> select [ "wave5"; "hydro2d"; "compress"; "tomcatv"; "espresso"; "gcc" ]
    | names -> select names
  in
  let ns = [ 1; 5; 10; 15 ] in
  let columns =
    Ba_util.Ascii_table.column ~align:Ba_util.Ascii_table.Left "workload"
    :: List.map (fun n -> Ba_util.Ascii_table.column (Printf.sprintf "Try%d" n)) ns
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let profile, trace =
          Ba_trace.Record.profile_and_record ~max_steps program
        in
        let orig_insns =
          (Ba_trace.Replay.run
             (Ba_trace.Flat.of_image (Ba_layout.Image.original ~profile program))
             trace)
            .Ba_exec.Engine.insns
        in
        w.name
        :: List.map
             (fun n ->
               let image =
                 Ba_core.Align.image (Ba_core.Align.Tryn n)
                   ~arch:Ba_core.Cost_model.Likely profile
               in
               let out =
                 Ba_sim.Runner.simulate ~max_steps ~trace
                   ~archs:
                     [ Ba_sim.Bep.Static_likely
                         (Ba_predict.Likely_bits.build image profile) ]
                   image
               in
               let _, sim = out.Ba_sim.Runner.sims.(0) in
               Ba_util.Ascii_table.float_cell
                 (Ba_sim.Bep.relative_cpi sim
                    ~insns:out.Ba_sim.Runner.result.Ba_exec.Engine.insns ~orig_insns))
             ns)
      workloads
  in
  print_endline "Ablation B: TryN group size (LIKELY relative CPI)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Ablation C: cost-model sensitivity — sweep the mispredict penalty used by
   the optimizer and measure on the unchanged simulator. *)
let ablation_penalty max_steps only =
  let workloads =
    match only with [] -> select [ "espresso" ] | names -> select names
  in
  let penalties = [ 1.0; 2.0; 4.0; 8.0; 16.0 ] in
  let columns =
    Ba_util.Ascii_table.column ~align:Ba_util.Ascii_table.Left "workload"
    :: List.map
         (fun p -> Ba_util.Ascii_table.column (Printf.sprintf "mp=%.0f" p))
         penalties
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let profile, trace =
          Ba_trace.Record.profile_and_record ~max_steps program
        in
        let orig_insns =
          (Ba_trace.Replay.run
             (Ba_trace.Flat.of_image (Ba_layout.Image.original ~profile program))
             trace)
            .Ba_exec.Engine.insns
        in
        w.name
        :: List.map
             (fun mispredict ->
               let table =
                 { Ba_core.Cost_model.default_table with mispredict }
               in
               let image =
                 Ba_core.Align.image (Ba_core.Align.Tryn 15) ~table
                   ~arch:Ba_core.Cost_model.Fallthrough profile
               in
               let out =
                 Ba_sim.Runner.simulate ~max_steps ~trace
                   ~archs:[ Ba_sim.Bep.Static_fallthrough ] image
               in
               let _, sim = out.Ba_sim.Runner.sims.(0) in
               Ba_util.Ascii_table.float_cell
                 (Ba_sim.Bep.relative_cpi sim
                    ~insns:out.Ba_sim.Runner.result.Ba_exec.Engine.insns ~orig_insns))
             penalties)
      workloads
  in
  print_endline
    "Ablation C: optimizer mispredict-penalty sweep (FALLTHROUGH relative CPI, Try15)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Ablation E: iterative direction refinement for BT/FNT -- rounds after
   the first re-run Try15 with branch directions read off the previous
   layout instead of DFS guesses. *)
let ablation_refine max_steps only =
  let workloads =
    match only with
    | [] -> select [ "compress"; "li"; "eqntott"; "wave5"; "hydro2d"; "gcc" ]
    | names -> select names
  in
  let rounds = [ 1; 2; 3 ] in
  let columns =
    Ba_util.Ascii_table.column ~align:Ba_util.Ascii_table.Left "workload"
    :: Ba_util.Ascii_table.column "Orig"
    :: List.map
         (fun r -> Ba_util.Ascii_table.column (Printf.sprintf "rounds=%d" r))
         rounds
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let profile, trace =
          Ba_trace.Record.profile_and_record ~max_steps program
        in
        let orig_image = Ba_layout.Image.original ~profile program in
        let orig_out =
          Ba_sim.Runner.simulate ~max_steps ~trace
            ~archs:[ Ba_sim.Bep.Static_btfnt ] orig_image
        in
        let orig_insns = orig_out.Ba_sim.Runner.result.Ba_exec.Engine.insns in
        let cpi_of out =
          let _, sim = out.Ba_sim.Runner.sims.(0) in
          Ba_sim.Bep.relative_cpi sim
            ~insns:out.Ba_sim.Runner.result.Ba_exec.Engine.insns ~orig_insns
        in
        (w.name :: [ Ba_util.Ascii_table.float_cell (cpi_of orig_out) ])
        @ List.map
            (fun refine_rounds ->
              let image =
                Ba_core.Align.image (Ba_core.Align.Tryn 15)
                  ~strategy:Ba_layout.Chain_order.Btfnt_precedence
                  ~arch:Ba_core.Cost_model.Btfnt ~refine_rounds profile
              in
              Ba_util.Ascii_table.float_cell
                (cpi_of
                   (Ba_sim.Runner.simulate ~max_steps ~trace
                      ~archs:[ Ba_sim.Bep.Static_btfnt ] image)))
            rounds)
      workloads
  in
  print_endline "Ablation E: direction-refinement rounds (BT/FNT relative CPI, Try15)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Ablation D (§3): the ALVINN suggestion — duplicate single-block loop
   bodies so the copies need no branch at all; combined with alignment. *)
let ablation_unroll max_steps only =
  let workloads =
    match only with [] -> select [ "alvinn"; "ear" ] | names -> select names
  in
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
        (* One recording pass per distinct program (the unrolled variants are
           different programs with their own decision streams). *)
        let base_profile, base_trace =
          Ba_trace.Record.profile_and_record ~max_steps program
        in
        let orig_out =
          Ba_sim.Runner.simulate ~max_steps ~trace:base_trace
            ~archs:[ Ba_sim.Bep.Static_fallthrough ]
            (Ba_layout.Image.original program)
        in
        let orig_insns = orig_out.Ba_sim.Runner.result.Ba_exec.Engine.insns in
        let ft_cpi_traced ~profile ~trace =
          let image =
            Ba_core.Align.image (Ba_core.Align.Tryn 15)
              ~arch:Ba_core.Cost_model.Fallthrough profile
          in
          let out =
            Ba_sim.Runner.simulate ~max_steps ~trace
              ~archs:[ Ba_sim.Bep.Static_fallthrough ] image
          in
          let _, sim = out.Ba_sim.Runner.sims.(0) in
          Ba_sim.Bep.relative_cpi sim ~insns:out.Ba_sim.Runner.result.Ba_exec.Engine.insns
            ~orig_insns
        in
        let ft_cpi program =
          let profile, trace =
            Ba_trace.Record.profile_and_record ~max_steps program
          in
          ft_cpi_traced ~profile ~trace
        in
        ignore ft_cpi;
        let _, orig_sim = orig_out.Ba_sim.Runner.sims.(0) in
        let sites = List.length (Ba_core.Unroll.unrollable_self_loops program ~factor:2) in
        [
          w.name;
          string_of_int sites;
          Ba_util.Ascii_table.float_cell
            (Ba_sim.Bep.relative_cpi orig_sim
               ~insns:orig_out.Ba_sim.Runner.result.Ba_exec.Engine.insns ~orig_insns);
          Ba_util.Ascii_table.float_cell
            (ft_cpi_traced ~profile:base_profile ~trace:base_trace);
        ]
        @ List.map
            (fun factor ->
              Ba_util.Ascii_table.float_cell
                (ft_cpi (Ba_core.Unroll.unroll_self_loops ~factor program)))
            factors)
      workloads
  in
  print_endline
    "Ablation D: self-loop unrolling + Try15 (FALLTHROUGH relative CPI vs the\n\
     un-unrolled original program's instruction count)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Ablation F: profile robustness -- align with a profile gathered on one
   input (seed), evaluate on another.  The paper profiles and evaluates on
   the same input; this quantifies how much that flatters the results. *)
let ablation_cross_input max_steps only =
  let workloads =
    match only with
    | [] -> select [ "espresso"; "gcc"; "li"; "sc"; "compress"; "spice" ]
    | names -> select names
  in
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
        let eval_cpi image_program decisions =
          let image = Ba_layout.Image.build image_program decisions in
          let out =
            Ba_sim.Runner.simulate ~max_steps ~trace:alt_trace
              ~archs:[ Ba_sim.Bep.Static_fallthrough ] image
          in
          let _, sim = out.Ba_sim.Runner.sims.(0) in
          (out.Ba_sim.Runner.result.Ba_exec.Engine.insns, Ba_sim.Bep.bep sim)
        in
        let orig_insns, orig_bep =
          eval_cpi alt
            (Array.init (Ba_ir.Program.n_procs alt) (fun p ->
                 Ba_layout.Decision.identity (Ba_ir.Program.proc alt p)))
        in
        let cpi_of (insns, bep) =
          float_of_int (insns + bep) /. float_of_int orig_insns
        in
        let aligned_with profile =
          Ba_core.Align.align_program (Ba_core.Align.Tryn 15)
            ~arch:Ba_core.Cost_model.Fallthrough profile
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
        [
          w.name;
          Ba_util.Ascii_table.float_cell (cpi_of (orig_insns, orig_bep));
          Ba_util.Ascii_table.float_cell (cpi_of (eval_cpi alt same));
          Ba_util.Ascii_table.float_cell (cpi_of (eval_cpi alt cross));
          Ba_util.Ascii_table.float_cell (cpi_of (eval_cpi alt merged));
        ])
      workloads
  in
  print_endline
    "Ablation F: profile robustness (FALLTHROUGH relative CPI on a held-out\n\
     input; aligned with the same input, a different one, or two merged)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Ablation G: all four algorithms side by side on one architecture --
   the paper's qualitative claim that the cost-model algorithms beat Greedy
   (Â§4), including the cheap Cost heuristic it describes but does not
   tabulate. *)
let ablation_algos max_steps only =
  let workloads =
    match only with
    | [] -> select [ "alvinn"; "hydro2d"; "espresso"; "gcc"; "sc"; "groff" ]
    | names -> select names
  in
  let algos =
    [ Ba_core.Align.Greedy; Ba_core.Align.Cost; Ba_core.Align.Tryn 5;
      Ba_core.Align.Tryn 15 ]
  in
  let columns =
    Ba_util.Ascii_table.column ~align:Ba_util.Ascii_table.Left "workload"
    :: Ba_util.Ascii_table.column "Orig"
    :: List.map
         (fun a -> Ba_util.Ascii_table.column (Ba_core.Align.algo_name a))
         algos
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        let program = w.build () in
        let profile, trace =
          Ba_trace.Record.profile_and_record ~max_steps program
        in
        let orig_image = Ba_layout.Image.original ~profile program in
        let orig_out =
          Ba_sim.Runner.simulate ~max_steps ~trace
            ~archs:[ Ba_sim.Bep.Static_fallthrough ] orig_image
        in
        let orig_insns = orig_out.Ba_sim.Runner.result.Ba_exec.Engine.insns in
        let cpi_of out =
          let _, sim = out.Ba_sim.Runner.sims.(0) in
          Ba_sim.Bep.relative_cpi sim
            ~insns:out.Ba_sim.Runner.result.Ba_exec.Engine.insns ~orig_insns
        in
        (w.name :: [ Ba_util.Ascii_table.float_cell (cpi_of orig_out) ])
        @ List.map
            (fun algo ->
              let image =
                Ba_core.Align.image algo ~arch:Ba_core.Cost_model.Fallthrough profile
              in
              Ba_util.Ascii_table.float_cell
                (cpi_of
                   (Ba_sim.Runner.simulate ~max_steps ~trace
                      ~archs:[ Ba_sim.Bep.Static_fallthrough ] image)))
            algos)
      workloads
  in
  print_endline "Ablation G: algorithm comparison (FALLTHROUGH relative CPI)";
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* -- command wiring ----------------------------------------------------------- *)

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const f $ max_steps_arg $ only_arg $ tryn_arg $ jobs_arg)

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
          (fun ms only tryn jobs -> run_table `Table2 ms only tryn jobs);
        cmd "table3" "Reproduce Table 3 (static architectures)."
          (fun ms only tryn jobs -> run_table `Table3 ms only tryn jobs);
        cmd "table4" "Reproduce Table 4 (dynamic architectures)."
          (fun ms only tryn jobs -> run_table `Table4 ms only tryn jobs);
        cmd "fig4" "Reproduce Figure 4 (Alpha 21064 execution time)."
          (fun ms only tryn jobs -> run_table `Fig4 ms only tryn jobs);
        Cmd.v
          (Cmd.info "placement"
             ~doc:
               "Penalty cycles with and without the conflict-aware placement \
                post-pass (Try15/BTB baseline, seven architectures).")
          Term.(
            const run_placement $ max_steps_arg $ only_arg $ tryn_arg
            $ jobs_arg $ placement_format_arg);
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
            const run_gap $ max_steps_arg $ only_arg $ tryn_arg $ jobs_arg
            $ Arg.(
                value & opt int 4
                & info [ "k" ]
                    ~doc:"How many of the hottest chains Optimal-k reorders.")
            $ placement_format_arg);
        Cmd.v
          (Cmd.info "all" ~doc:"Reproduce every table and figure.")
          Term.(
            const run_all $ max_steps_arg $ only_arg $ tryn_arg $ jobs_arg
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
