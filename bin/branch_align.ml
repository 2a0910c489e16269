(* The branch-alignment tool itself: profile a workload, align it with a
   chosen algorithm under a chosen architectural cost model, and report
   what changed — layouts, branch statistics and per-architecture penalty
   cycles.  This is the OM-style "object code post-processor" interface of
   the paper, driving the library end to end:

     branch_align run --workload espresso --algo try15 --arch fallthrough
     branch_align list
     branch_align dump-cfg --workload alvinn --proc 1 *)

open Cmdliner

let algo_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (Ba_delta.Algo.of_name s) in
  let print ppf a = Fmt.string ppf (Ba_delta.Algo.name a) in
  Arg.conv (parse, print)

let arch_conv =
  let parse s =
    Result.map_error (fun e -> `Msg e) (Ba_core.Cost_model.arch_of_name s)
  in
  let print ppf a = Fmt.string ppf (Ba_core.Cost_model.arch_name a) in
  Arg.conv (parse, print)

let workload_arg =
  let doc = "Workload to process (see the list command)." in
  Arg.(required & opt (some string) None & info [ "w"; "workload" ] ~doc)

let algo_arg =
  let doc =
    "Alignment algorithm: orig, greedy, cost, exttsp, tryN (e.g. try15), or \
     anneal (the seeded annealing search)."
  in
  Arg.(
    value
    & opt algo_conv (Ba_delta.Algo.Core (Ba_core.Align.Tryn 15))
    & info [ "algo" ] ~doc)

let arch_arg =
  let doc = "Architectural cost model: fallthrough, btfnt, likely, pht, btb." in
  Arg.(value & opt arch_conv Ba_core.Cost_model.Btfnt & info [ "arch" ] ~doc)

let max_steps_arg =
  let doc = "Execution budget in semantic block visits." in
  Arg.(
    value
    & opt Cli.positive Ba_workloads.Spec.default_max_steps
    & info [ "max-steps" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the checking pool (default: \\$(b,BA_JOBS) or the \
     machine's domain count; 1 forces the sequential path).  Diagnostics, \
     certificates and exit codes are identical for every value."
  in
  Arg.(value & opt (some Cli.jobs) None & info [ "j"; "jobs" ] ~doc)

let lookup name =
  match Ba_workloads.Spec.by_name name with
  | Some w -> w
  | None ->
    Printf.eprintf "unknown workload %S; try the list command\n" name;
    exit 1

let run_cmd name algo arch interproc max_steps =
  let workload = lookup name in
  (* Record once, replay many: the memoized pass yields program + profile +
     semantic trace; both images below replay instead of re-interpreting. *)
  let program, profile, trace = Ba_workloads.Profiled.get_traced ~max_steps workload in
  let run_image =
    Ba_report.Harness.run_image ~profile ~trace
      ~archs:Ba_report.Harness.simulate_archs
  in
  let orig_image = Ba_layout.Image.original ~profile program in
  let orig = run_image orig_image in
  let orig_insns = orig.Ba_report.Harness.result.Ba_exec.Engine.insns in
  let aligned_image =
    if interproc then
      let decisions = Ba_delta.Algo.decisions algo ~arch profile in
      (Ba_layout.Image.build_interproc ~profile program decisions)
        .Ba_layout.Image.image
    else Ba_delta.Algo.image algo ~arch profile
  in
  let aligned = run_image aligned_image in
  Printf.printf "workload %s: %s  (algorithm %s, cost model %s%s)\n\n"
    workload.Ba_workloads.Spec.name workload.Ba_workloads.Spec.description
    (Ba_delta.Algo.name algo)
    (Ba_core.Cost_model.arch_name arch)
    (if interproc then ", inter-procedural layout" else "");
  Printf.printf "instructions: %s -> %s  (code size %d -> %d)\n"
    (Ba_util.Ascii_table.int_cell orig_insns)
    (Ba_util.Ascii_table.int_cell aligned.Ba_report.Harness.result.Ba_exec.Engine.insns)
    orig_image.Ba_layout.Image.total_size aligned_image.Ba_layout.Image.total_size;
  Printf.printf "fall-through conditionals: %.1f%% -> %.1f%%\n\n"
    orig.Ba_report.Harness.pct_ft
    aligned.Ba_report.Harness.pct_ft;
  let columns =
    Ba_util.Ascii_table.
      [
        column ~align:Left "architecture"; column "orig CPI"; column "aligned CPI";
        column "gain%";
      ]
  in
  let rows =
    List.mapi
      (fun i (config, _) ->
        let ocpi = Ba_report.Harness.cpi orig ~orig_insns i in
        let acpi = Ba_report.Harness.cpi aligned ~orig_insns i in
        [
          Ba_sim.Bep.config_label config;
          Ba_util.Ascii_table.float_cell ocpi;
          Ba_util.Ascii_table.float_cell acpi;
          Ba_util.Ascii_table.float_cell ~decimals:1 (100.0 *. (1.0 -. (acpi /. ocpi)));
        ])
      (Array.to_list orig.Ba_report.Harness.rows)
  in
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Align one workload with any algorithm — including the seeded annealing
   search — and print a deterministic listing: per-procedure block orders,
   forced jump legs and model cost, the program's total expected cost, and
   the exact simulated penalty cycles of the result under the cost model's
   canonical configuration.  Output is byte-identical at any [-j] (the CI
   gate compares -j1 against -j4): each procedure's walk draws from its own
   (seed, procedure) PRNG stream, so scheduling cannot perturb it. *)
let align_cmd name algo arch seed sweeps max_steps jobs =
  let workload = lookup name in
  let _program, profile, trace =
    Ba_workloads.Profiled.get_traced ~max_steps workload
  in
  let decisions =
    Ba_par.Pool.with_pool ?jobs (fun pool ->
        Ba_delta.Algo.decisions ~pool ~seed ~sweeps algo ~arch profile)
  in
  Printf.printf "workload %s: algorithm %s, cost model %s%s\n"
    workload.Ba_workloads.Spec.name (Ba_delta.Algo.name algo)
    (Ba_core.Cost_model.arch_name arch)
    (match algo with
    | Ba_delta.Algo.Anneal -> Printf.sprintf " (seed %d, %d sweeps)" seed sweeps
    | Ba_delta.Algo.Core _ -> "");
  let l = Ba_delta.Algo.listing ~arch profile trace decisions in
  List.iter
    (fun (p : Ba_delta.Algo.proc_row) ->
      let order =
        String.concat " "
          (List.map string_of_int (Array.to_list p.Ba_delta.Algo.order))
      in
      let forced =
        match p.Ba_delta.Algo.forced with
        | [] -> ""
        | legs ->
          "  forced "
          ^ String.concat " "
              (List.map
                 (fun (b, leg) ->
                   Printf.sprintf "b%d:%s" b (Ba_layout.Decision.leg_name leg))
                 legs)
      in
      Printf.printf "proc %d %s: order %s%s  cost %.1f\n" p.Ba_delta.Algo.pid
        p.Ba_delta.Algo.proc_name order forced p.Ba_delta.Algo.cost)
    l.Ba_delta.Algo.procs;
  Printf.printf "total expected cost: %.1f\n" l.Ba_delta.Algo.total_cost;
  Printf.printf "simulated penalty cycles (%s): %d\n"
    l.Ba_delta.Algo.penalty_model l.Ba_delta.Algo.penalty_cycles

(* The per-architecture table [simulate] and [trace replay] print: one row
   of books per labelled architecture. *)
let print_sims rows =
  let columns =
    Ba_util.Ascii_table.
      [
        column ~align:Left "architecture"; column "accuracy%"; column "misfetch";
        column "mispredict"; column "BEP cycles";
      ]
  in
  let rows =
    List.map
      (fun (label, (books : Ba_sim.Bep.counts)) ->
        [
          label;
          Ba_util.Ascii_table.float_cell ~decimals:1
            (100.0 *. Ba_sim.Bep.accuracy books);
          Ba_util.Ascii_table.int_cell books.Ba_sim.Bep.misfetches;
          Ba_util.Ascii_table.int_cell books.Ba_sim.Bep.mispredicts;
          Ba_util.Ascii_table.int_cell (Ba_sim.Bep.cycles books);
        ])
      rows
  in
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

(* Profile, align (unless --algo orig) and simulate one workload, with the
   Ba_obs registry installed around the whole pipeline so every stage's
   counters, histograms and spans land in the report. *)
let simulate_cmd name algo arch max_steps metrics =
  let workload = lookup name in
  let registry =
    match metrics with None -> None | Some _ -> Some (Ba_obs.Registry.create ())
  in
  let collected f =
    match registry with None -> f () | Some r -> Ba_obs.Registry.with_registry r f
  in
  let out =
    collected (fun () ->
        let _program, profile, trace =
          Ba_workloads.Profiled.get_traced ~max_steps workload
        in
        Ba_report.Harness.run_image ~profile ~trace
          ~archs:Ba_report.Harness.simulate_archs
          (Ba_delta.Algo.image algo ~arch profile))
  in
  Printf.printf "workload %s, algorithm %s, cost model %s: %s branch events in %s instructions\n\n"
    workload.Ba_workloads.Spec.name
    (Ba_delta.Algo.name algo)
    (Ba_core.Cost_model.arch_name arch)
    (Ba_util.Ascii_table.int_cell out.Ba_report.Harness.result.Ba_exec.Engine.branches)
    (Ba_util.Ascii_table.int_cell out.Ba_report.Harness.result.Ba_exec.Engine.insns);
  print_sims
    (List.map
       (fun (config, books) -> (Ba_sim.Bep.config_label config, books))
       (Array.to_list out.Ba_report.Harness.rows));
  match (metrics, registry) with
  | Some format, Some r ->
    print_endline "\n== Pipeline metrics ==";
    print_string (Ba_obs.Sink.emit format r)
  | _ -> ()

let hotspots_cmd name top max_steps =
  let workload = lookup name in
  let program = workload.Ba_workloads.Spec.build () in
  let image = Ba_layout.Image.original program in
  let hot = Ba_report.Hotspots.create image in
  let result =
    Ba_exec.Engine.run ~max_steps ~on_event:(Ba_report.Hotspots.on_event hot) image
  in
  Printf.printf "workload %s: %s branch events in %s instructions\n\n"
    workload.Ba_workloads.Spec.name
    (Ba_util.Ascii_table.int_cell result.Ba_exec.Engine.branches)
    (Ba_util.Ascii_table.int_cell result.Ba_exec.Engine.insns);
  print_string (Ba_report.Hotspots.render ~k:top hot)

(* Packed semantic traces on disk (magic BAST1): only the
   layout-independent decision stream — outcome bits plus switch/vcall
   varints — so one file replays against any layout of the program. *)

let trace_record_cmd name path max_steps =
  let workload = lookup name in
  let program = workload.Ba_workloads.Spec.build () in
  let image = Ba_layout.Image.original program in
  let result, trace = Ba_trace.Record.run ~max_steps image in
  Ba_trace.Trace.save ~path ~seed:program.Ba_ir.Program.seed ~max_steps trace;
  Printf.printf
    "recorded %s steps (%s conditionals, %s switch/vcall indices, %s payload \
     bytes) to %s\n"
    (Ba_util.Ascii_table.int_cell result.Ba_exec.Engine.steps)
    (Ba_util.Ascii_table.int_cell trace.Ba_trace.Trace.n_conds)
    (Ba_util.Ascii_table.int_cell trace.Ba_trace.Trace.n_choices)
    (Ba_util.Ascii_table.int_cell (Ba_trace.Trace.byte_size trace))
    path

let trace_replay_cmd name path algo arch =
  let workload = lookup name in
  let program = workload.Ba_workloads.Spec.build () in
  let bad_trace msg =
    Printf.eprintf "cannot replay trace %s: %s\n" path msg;
    exit 1
  in
  let { Ba_trace.Trace.seed; max_steps; trace } =
    try Ba_trace.Trace.load ~path with Failure msg | Sys_error msg -> bad_trace msg
  in
  if seed <> program.Ba_ir.Program.seed then begin
    Printf.eprintf
      "trace %s was recorded for a program with seed %d, but workload %s has \
       seed %d\n"
      path seed name program.Ba_ir.Program.seed;
    exit 1
  end;
  let image =
    match algo with
    | Ba_delta.Algo.Core Ba_core.Align.Original ->
      (* The layout the trace was recorded from: no profile needed, so no
         interpreter pass. *)
      Ba_layout.Image.original program
    | _ ->
      (* Alignment needs the profile; reconstruct it with the one interpreter
         pass the trace was recorded from. *)
      let profile = Ba_exec.Engine.profile_program ~max_steps program in
      Ba_delta.Algo.image algo ~arch profile
  in
  (* No profile, so no LIKELY hints: the other simulate architectures. *)
  let archs =
    List.filter_map
      (function `Arch a -> Some a | `Likely -> None)
      Ba_report.Harness.simulate_archs
  in
  let out =
    try Ba_sim.Runner.simulate ~trace ~archs image
    with Failure msg -> bad_trace msg
  in
  Printf.printf
    "replayed %s steps from %s through %s (algorithm %s): %s branch events in \
     %s instructions\n\n"
    (Ba_util.Ascii_table.int_cell out.Ba_sim.Runner.result.Ba_exec.Engine.steps)
    path name
    (Ba_delta.Algo.name algo)
    (Ba_util.Ascii_table.int_cell out.Ba_sim.Runner.result.Ba_exec.Engine.branches)
    (Ba_util.Ascii_table.int_cell out.Ba_sim.Runner.result.Ba_exec.Engine.insns);
  print_sims
    (List.map
       (fun (arch, sim) -> (Ba_sim.Bep.arch_label arch, Ba_sim.Bep.counts sim))
       (Array.to_list out.Ba_sim.Runner.sims))

let disasm_cmd name algo arch proc_id max_steps =
  let workload = lookup name in
  let program = workload.Ba_workloads.Spec.build () in
  let profile = Ba_exec.Engine.profile_program ~max_steps program in
  if proc_id < 0 || proc_id >= Ba_ir.Program.n_procs program then begin
    Printf.eprintf "procedure id out of range (program has %d)\n"
      (Ba_ir.Program.n_procs program);
    exit 1
  end;
  let fp_fraction =
    match workload.Ba_workloads.Spec.cls with
    | Ba_workloads.Spec.Fp -> 0.5
    | Ba_workloads.Spec.Int | Ba_workloads.Spec.Other -> 0.08
  in
  let original =
    Ba_isa.Codegen.of_image ~fp_fraction (Ba_layout.Image.original ~profile program)
  in
  let aligned =
    Ba_isa.Codegen.of_image ~fp_fraction (Ba_delta.Algo.image algo ~arch profile)
  in
  print_string (Ba_isa.Disasm.side_by_side ~original ~aligned proc_id)

type output_format = Table | Json

let format_conv =
  let parse = function
    | "table" | "ascii" -> Ok Table
    | "json" -> Ok Json
    | s -> Error (`Msg (Printf.sprintf "unknown format %S (table or json)" s))
  in
  let print ppf f = Fmt.string ppf (match f with Table -> "table" | Json -> "json") in
  Arg.conv (parse, print)

let format_arg =
  let doc = "Output format: the default ASCII table, or json." in
  Arg.(value & opt format_conv Table & info [ "format" ] ~doc)

let diag_table_columns =
  Ba_util.Ascii_table.
    [
      column ~align:Left "workload"; column ~align:Left "severity";
      column ~align:Left "rule"; column ~align:Left "location";
      column ~align:Left "message";
    ]

let plural n = if n = 1 then "" else "s"

(* Info findings (the optimality audit and the conflict lint) can be
   numerous on purpose-poor layouts like orig; the table views cap them per
   workload so errors and warnings stay visible.  JSON always carries
   everything. *)
let max_table_infos = 10

(* The report printer shared by lint and verify.  Each row is a workload's
   name, its diagnostics, its table summary (the text after the name, from
   the error/warning/info counts) and the JSON fields placed before and
   after the counts; the totals, the diagnostics table, the JSON envelope,
   the closing line and the exit code are common.  [failed] forces exit 1
   on top of errors (and, under [strict], warnings). *)
let print_report ~command ~verb ~algo ~arch ~strict ~format ?(failed = false)
    rows =
  let total_errors = ref 0 and total_warnings = ref 0 and total_infos = ref 0 in
  let table_rows = ref [] in
  let json_workloads = ref [] in
  List.iter
    (fun (name, diags, summary, json_head, json_tail) ->
      let e, warn, i = Ba_analysis.Diagnostic.count diags in
      total_errors := !total_errors + e;
      total_warnings := !total_warnings + warn;
      total_infos := !total_infos + i;
      match format with
      | Json ->
        let open Ba_util.Json in
        json_workloads :=
          Obj
            ((("name", String name) :: json_head)
            @ [ ("errors", Int e); ("warnings", Int warn); ("infos", Int i) ]
            @ json_tail
            @ [ ("diagnostics", List (List.map Ba_analysis.Diagnostic.to_json diags)) ])
          :: !json_workloads
      | Table ->
        Printf.printf "%-12s %s\n" name (summary (e, warn, i));
        let shown = ref 0 and hidden = ref 0 in
        List.iter
          (fun d ->
            let info = d.Ba_analysis.Diagnostic.severity = Ba_analysis.Diagnostic.Info in
            if info && !shown >= max_table_infos then incr hidden
            else begin
              if info then incr shown;
              table_rows := (name :: Ba_analysis.Diagnostic.to_row d) :: !table_rows
            end)
          diags;
        if !hidden > 0 then
          table_rows :=
            [ name; "info"; "..."; "..."
            ; Printf.sprintf "(%d more info findings; use --format=json for all)"
                !hidden ]
            :: !table_rows)
    rows;
  (match format with
  | Json ->
    let open Ba_util.Json in
    print_endline
      (to_string
         (Obj
            [
              ("command", String command);
              ("algo", String (Ba_delta.Algo.name algo));
              ("arch", String (Ba_core.Cost_model.arch_name arch));
              ( "totals",
                Obj
                  [
                    ("errors", Int !total_errors); ("warnings", Int !total_warnings);
                    ("infos", Int !total_infos);
                  ] );
              ("workloads", List (List.rev !json_workloads));
            ]))
  | Table ->
    if !table_rows <> [] then begin
      print_newline ();
      print_string
        (Ba_util.Ascii_table.render ~columns:diag_table_columns
           ~rows:(List.rev !table_rows))
    end;
    Printf.printf
      "\n%s %d workload%s (algorithm %s, cost model %s): %d error%s, %d \
       warning%s, %d info\n"
      verb (List.length rows)
      (plural (List.length rows))
      (Ba_delta.Algo.name algo)
      (Ba_core.Cost_model.arch_name arch)
      !total_errors (plural !total_errors) !total_warnings (plural !total_warnings)
      !total_infos);
  if !total_errors > 0 || failed || (strict && !total_warnings > 0) then exit 1

let lint_cmd workload algo arch strict format max_steps jobs =
  let workloads =
    match workload with Some name -> [ lookup name ] | None -> Ba_workloads.Spec.all
  in
  let reports =
    Ba_par.Pool.with_pool ?jobs (fun pool ->
        Ba_par.Pool.map pool
          (fun (w : Ba_workloads.Spec.t) ->
            (* The memoized traced run, as verify reads it: the trace lets
               the auditor quote simulator-exact figures. *)
            let _program, profile, trace =
              Ba_workloads.Profiled.get_traced ~max_steps w
            in
            (w, Ba_verify.Run.lint ~trace ~arch ~profile algo))
          workloads)
  in
  print_report ~command:"lint" ~verb:"linted" ~algo ~arch ~strict ~format
    (List.map
       (fun ((w : Ba_workloads.Spec.t), report) ->
         let ran s = Ba_analysis.Run.ran report s in
         let summary (e, warn, i) =
           Printf.sprintf "%d error%s, %d warning%s, %d info  [%s]" e (plural e)
             warn (plural warn) i
             (String.concat ","
                (List.map
                   (fun s ->
                     Ba_analysis.Run.stage_name s ^ if ran s then "" else "(skipped)")
                   Ba_analysis.Run.all_stages))
         in
         let stages =
           Ba_util.Json.(
             List
               (List.map
                  (fun s ->
                    Obj
                      [
                        ("stage", String (Ba_analysis.Run.stage_name s));
                        ("ran", Bool (ran s));
                      ])
                  Ba_analysis.Run.all_stages))
         in
         ( w.Ba_workloads.Spec.name, Ba_analysis.Run.diagnostics report, summary,
           [], [ ("stages", stages) ] ))
       reports)

let verify_cmd workload algo arch strict no_audit interproc format max_steps jobs =
  let workloads =
    match workload with Some name -> [ lookup name ] | None -> Ba_workloads.Spec.all
  in
  (* The pool is handed both to the per-workload map and to each verify:
     with many workloads the outer map parallelises and the inner
     per-architecture certification runs inline; with a single workload
     the outer map short-circuits and the five architectures certify in
     parallel instead. *)
  let results =
    Ba_par.Pool.with_pool ?jobs (fun pool ->
        Ba_par.Pool.map pool
          (fun (w : Ba_workloads.Spec.t) ->
            (* The memoized traced run: the profile feeds the pipeline and
               the trace lets the auditor quote simulator-exact figures. *)
            let _program, profile, trace =
              Ba_workloads.Profiled.get_traced ~max_steps w
            in
            ( w,
              Ba_verify.Run.verify ~pool ~audit:(not no_audit) ~interproc
                ~trace ~arch ~profile algo ))
          workloads)
  in
  let unverified =
    List.exists (fun (_, r) -> not r.Ba_verify.Run.verified) results
  in
  print_report ~command:"verify" ~verb:"verified" ~algo ~arch ~strict ~format
    ~failed:unverified
    (List.map
       (fun ((w : Ba_workloads.Spec.t), result) ->
         let verified = result.Ba_verify.Run.verified in
         let certs = result.Ba_verify.Run.certificates in
         let summary (e, warn, i) =
           Printf.sprintf
             "%s  %d certificate%s, %d error%s, %d warning%s, %d improvable site%s"
             (if verified then "verified" else "NOT VERIFIED")
             (List.length certs) (plural (List.length certs)) e (plural e) warn
             (plural warn) i (plural i)
         in
         ( w.Ba_workloads.Spec.name, Ba_verify.Run.diagnostics result, summary,
           [ ("verified", Ba_util.Json.Bool verified) ],
           [
             ( "certificates",
               Ba_util.Json.List (List.map Ba_verify.Certificate.to_json certs) );
           ] ))
       results)

(* Static predictor-interference analysis: evaluate every predictor
   structure's pure indexing function over the aligned image's address map,
   weight the sites by the profile, and report which entries collide — no
   simulation involved.  The default is the whole workload × algorithm ×
   cost-model matrix (the lint-all shape); narrowing to a single cell
   switches to the detailed per-structure report. *)

let analyze_algos =
  List.map
    (fun a -> Ba_delta.Algo.Core a)
    [
      Ba_core.Align.Original; Ba_core.Align.Greedy; Ba_core.Align.Cost;
      Ba_core.Align.Tryn 15;
    ]

let analyze_arches =
  [
    Ba_core.Cost_model.Fallthrough; Ba_core.Cost_model.Btfnt;
    Ba_core.Cost_model.Likely; Ba_core.Cost_model.Pht; Ba_core.Cost_model.Btb;
  ]

type placement_outcome = {
  p_before : int;
  p_after : int;
  p_swaps : int;
  p_pads : int;
  p_verified : bool;
}

type analyze_cell = {
  cell_workload : Ba_workloads.Spec.t;
  cell_algo : Ba_delta.Algo.t;
  cell_arch : Ba_core.Cost_model.arch;
  cell_reports : Ba_conflict.Analyze.report list;
  cell_placement : placement_outcome option;
}

let analyze_eval ~max_steps ~do_place (w, al, ar) =
  let program, profile = Ba_workloads.Profiled.get ~max_steps w in
  let decisions = Ba_delta.Algo.decisions al ~arch:ar profile in
  let image = Ba_layout.Image.build ~profile program decisions in
  let cell_reports = Ba_conflict.Analyze.analyze ~profile image in
  let cell_placement =
    if not do_place then None
    else begin
      let place = Ba_conflict.Place.improve ~arch:ar ~profile program decisions in
      (* Placement perturbed the layout; prove the perturbed image is still
         the same program (address map and bisimulation) and still priced
         correctly (cost certification) before trusting its conflict
         numbers. *)
      let proof =
        Ba_verify.Run.verify_image
          ~workload:w.Ba_workloads.Spec.name
          ~algo:(Ba_delta.Algo.name al) ~profile
          place.Ba_conflict.Place.image
      in
      Some
        {
          p_before = place.Ba_conflict.Place.before;
          p_after = place.Ba_conflict.Place.after;
          p_swaps = place.Ba_conflict.Place.swaps;
          p_pads = Array.fold_left ( + ) 0 place.Ba_conflict.Place.pads;
          p_verified = proof.Ba_verify.Run.verified;
        }
    end
  in
  { cell_workload = w; cell_algo = al; cell_arch = ar; cell_reports; cell_placement }

let structure_matrix_cell (r : Ba_conflict.Analyze.report) =
  match r.Ba_conflict.Analyze.body with
  | Ba_conflict.Analyze.Map m ->
    Ba_util.Ascii_table.int_cell
      (m.Ba_conflict.Analyze.conflict_weight
      + m.Ba_conflict.Analyze.destructive_weight)
  | Ba_conflict.Analyze.Stack s -> (
    match s.Ba_conflict.Analyze.static_bound with
    | None -> "rec!"
    | Some b ->
      Printf.sprintf "%d%s" b
        (if s.Ba_conflict.Analyze.overflow_possible then "!" else ""))

let analyze_cmd workload algo arch do_place format max_steps jobs =
  let workloads =
    match workload with Some name -> [ lookup name ] | None -> Ba_workloads.Spec.all
  in
  let algos = match algo with Some a -> [ a ] | None -> analyze_algos in
  let arches = match arch with Some a -> [ a ] | None -> analyze_arches in
  let cells =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun al -> List.map (fun ar -> (w, al, ar)) arches)
          algos)
      workloads
  in
  let cells =
    Ba_par.Pool.with_pool ?jobs (fun pool ->
        Ba_par.Pool.map pool (analyze_eval ~max_steps ~do_place) cells)
  in
  (match format with
  | Json ->
    let open Ba_util.Json in
    print_endline
      (to_string
         (Obj
            [
              ("command", String "analyze");
              ( "cells",
                List
                  (List.map
                     (fun c ->
                       Obj
                         ([
                            ("workload", String c.cell_workload.Ba_workloads.Spec.name);
                            ("algo", String (Ba_delta.Algo.name c.cell_algo));
                            ("arch", String (Ba_core.Cost_model.arch_name c.cell_arch));
                            ( "objective",
                              Int (Ba_conflict.Analyze.objective c.cell_reports) );
                            ("structures", Ba_conflict.Analyze.to_json c.cell_reports);
                          ]
                         @
                         match c.cell_placement with
                         | None -> []
                         | Some p ->
                           [
                             ( "placement",
                               Obj
                                 [
                                   ("conflict_weight_before", Int p.p_before);
                                   ("conflict_weight_after", Int p.p_after);
                                   ("swaps", Int p.p_swaps);
                                   ("pad_slots", Int p.p_pads);
                                   ("verified", Bool p.p_verified);
                                 ] );
                           ]))
                     cells) );
            ]))
  | Table -> (
    match cells with
    | [ c ] ->
      Printf.printf "workload %s, algorithm %s, cost model %s\n\n"
        c.cell_workload.Ba_workloads.Spec.name
        (Ba_delta.Algo.name c.cell_algo)
        (Ba_core.Cost_model.arch_name c.cell_arch);
      print_string (Ba_conflict.Analyze.render c.cell_reports);
      (match c.cell_placement with
      | None -> ()
      | Some p ->
        Printf.printf
          "\nplacement: conflict weight %d -> %d (%d swap%s, %d pad slot%s), %s\n"
          p.p_before p.p_after p.p_swaps (plural p.p_swaps) p.p_pads
          (plural p.p_pads)
          (if p.p_verified then "placed image verified"
           else "placed image FAILED verification"))
    | _ ->
      let open Ba_util.Ascii_table in
      let columns =
        [ column ~align:Left "workload"; column ~align:Left "algo";
          column ~align:Left "arch" ]
        @ List.map
            (fun s -> column (Ba_conflict.Structure.name s))
            Ba_conflict.Structure.default_suite
        @ [ column "total" ]
        @
        if do_place then
          [ column "conflict-wt"; column "swaps"; column "pads";
            column ~align:Left "verified" ]
        else []
      in
      let rows =
        List.map
          (fun c ->
            [
              c.cell_workload.Ba_workloads.Spec.name;
              Ba_delta.Algo.name c.cell_algo;
              Ba_core.Cost_model.arch_name c.cell_arch;
            ]
            @ List.map structure_matrix_cell c.cell_reports
            @ [ int_cell (Ba_conflict.Analyze.objective c.cell_reports) ]
            @
            match c.cell_placement with
            | None -> []
            | Some p ->
              [
                Printf.sprintf "%d>%d" p.p_before p.p_after;
                int_cell p.p_swaps;
                int_cell p.p_pads;
                (if p.p_verified then "yes" else "NO");
              ])
          cells
      in
      print_string (render ~columns ~rows)));
  if
    do_place
    && List.exists
         (fun c ->
           match c.cell_placement with Some p -> not p.p_verified | None -> false)
         cells
  then exit 1

(* Static cost bounds: abstract-interpret each cell's lowered image into a
   sound [lower, upper] interval on expected penalty cycles — no
   simulation, pure arithmetic over the address map and the profile.  A
   single cell prints the per-site detail rows; the default is the
   workload x algorithm x cost-model matrix. *)

type bound_cell = {
  b_workload : Ba_workloads.Spec.t;
  b_algo : Ba_delta.Algo.t;
  b_arch : Ba_core.Cost_model.arch;
  b_analysis : Ba_bound.Analyze.t;
}

let bound_eval ~max_steps (w, al, ar) =
  let _program, profile = Ba_workloads.Profiled.get ~max_steps w in
  let image = Ba_delta.Algo.image al ~arch:ar profile in
  let sim_arch = Ba_sim.Bep.(arch_of ~image ~profile (of_model ar)) in
  {
    b_workload = w;
    b_algo = al;
    b_arch = ar;
    b_analysis = Ba_bound.Analyze.analyze ~arch:sim_arch ~profile image;
  }

let bound_row_json (r : Ba_bound.Analyze.row) =
  let open Ba_util.Json in
  Obj
    [
      ("proc", Int r.Ba_bound.Analyze.proc);
      ("block", Int r.Ba_bound.Analyze.block);
      ("pc", Int r.Ba_bound.Analyze.pc);
      ("pooled", Int r.Ba_bound.Analyze.pooled);
      ("weight", Int r.Ba_bound.Analyze.weight);
      ("what", String r.Ba_bound.Analyze.what);
      ("lower", Int r.Ba_bound.Analyze.penalty.Ba_bound.Domain.lo);
      ("upper", Int r.Ba_bound.Analyze.penalty.Ba_bound.Domain.hi);
    ]

let bound_cmd workload algo arch format max_steps jobs =
  let workloads =
    match workload with Some name -> [ lookup name ] | None -> Ba_workloads.Spec.all
  in
  let algos = match algo with Some a -> [ a ] | None -> analyze_algos in
  let arches = match arch with Some a -> [ a ] | None -> analyze_arches in
  let cells =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun al -> List.map (fun ar -> (w, al, ar)) arches)
          algos)
      workloads
  in
  let cells =
    Ba_par.Pool.with_pool ?jobs (fun pool ->
        Ba_par.Pool.map pool (bound_eval ~max_steps) cells)
  in
  match format with
  | Json ->
    let open Ba_util.Json in
    print_endline
      (to_string
         (Obj
            [
              ("command", String "bound");
              ( "cells",
                List
                  (List.map
                     (fun c ->
                       let a = c.b_analysis in
                       Obj
                         [
                           ("workload", String c.b_workload.Ba_workloads.Spec.name);
                           ("algo", String (Ba_delta.Algo.name c.b_algo));
                           ("arch", String (Ba_core.Cost_model.arch_name c.b_arch));
                           ( "sim_arch",
                             String (Ba_sim.Bep.arch_label a.Ba_bound.Analyze.arch) );
                           ("lower", Int a.Ba_bound.Analyze.total.Ba_bound.Domain.lo);
                           ("upper", Int a.Ba_bound.Analyze.total.Ba_bound.Domain.hi);
                           ("extra_lower", Int a.Ba_bound.Analyze.extra_lo);
                           ( "sites",
                             List (List.map bound_row_json a.Ba_bound.Analyze.rows) );
                         ])
                     cells) );
            ]))
  | Table -> (
    match cells with
    | [ c ] ->
      let a = c.b_analysis in
      Printf.printf
        "workload %s, algorithm %s, cost model %s (simulated as %s)\n\n"
        c.b_workload.Ba_workloads.Spec.name
        (Ba_delta.Algo.name c.b_algo)
        (Ba_core.Cost_model.arch_name c.b_arch)
        (Ba_sim.Bep.arch_label a.Ba_bound.Analyze.arch);
      let columns =
        Ba_util.Ascii_table.
          [
            column "proc"; column "pc"; column ~align:Left "site"; column "pooled";
            column "weight"; column "lower"; column "upper"; column "width";
          ]
      in
      let rows =
        List.map
          (fun (r : Ba_bound.Analyze.row) ->
            Ba_util.Ascii_table.
              [
                string_of_int r.Ba_bound.Analyze.proc;
                string_of_int r.Ba_bound.Analyze.pc;
                r.Ba_bound.Analyze.what;
                string_of_int r.Ba_bound.Analyze.pooled;
                int_cell r.Ba_bound.Analyze.weight;
                int_cell r.Ba_bound.Analyze.penalty.Ba_bound.Domain.lo;
                int_cell r.Ba_bound.Analyze.penalty.Ba_bound.Domain.hi;
                int_cell (Ba_bound.Domain.width r.Ba_bound.Analyze.penalty);
              ])
          a.Ba_bound.Analyze.rows
      in
      print_string (Ba_util.Ascii_table.render ~columns ~rows);
      if a.Ba_bound.Analyze.extra_lo > 0 then
        Printf.printf "\nwhole-layout extra lower bound: %d cycle%s\n"
          a.Ba_bound.Analyze.extra_lo
          (plural a.Ba_bound.Analyze.extra_lo);
      Printf.printf "\ntotal: [%s, %s] penalty cycles (width %s)\n"
        (Ba_util.Ascii_table.int_cell a.Ba_bound.Analyze.total.Ba_bound.Domain.lo)
        (Ba_util.Ascii_table.int_cell a.Ba_bound.Analyze.total.Ba_bound.Domain.hi)
        (Ba_util.Ascii_table.int_cell (Ba_bound.Domain.width a.Ba_bound.Analyze.total))
    | _ ->
      let open Ba_util.Ascii_table in
      let columns =
        [
          column ~align:Left "workload"; column ~align:Left "algo";
          column ~align:Left "arch"; column "sites"; column "lower";
          column "upper"; column "width";
        ]
      in
      let rows =
        List.map
          (fun c ->
            let a = c.b_analysis in
            [
              c.b_workload.Ba_workloads.Spec.name;
              Ba_delta.Algo.name c.b_algo;
              Ba_core.Cost_model.arch_name c.b_arch;
              string_of_int (List.length a.Ba_bound.Analyze.rows);
              int_cell a.Ba_bound.Analyze.total.Ba_bound.Domain.lo;
              int_cell a.Ba_bound.Analyze.total.Ba_bound.Domain.hi;
              int_cell (Ba_bound.Domain.width a.Ba_bound.Analyze.total);
            ])
          cells
      in
      print_string (render ~columns ~rows))

let list_cmd () =
  let columns =
    Ba_util.Ascii_table.
      [ column ~align:Left "name"; column ~align:Left "class"; column ~align:Left "imitates" ]
  in
  let rows =
    List.map
      (fun (w : Ba_workloads.Spec.t) ->
        [ w.name; Ba_workloads.Spec.cls_name w.cls; w.description ])
      Ba_workloads.Spec.all
  in
  print_string (Ba_util.Ascii_table.render ~columns ~rows)

let dump_cfg_cmd name proc_id max_steps =
  let workload = lookup name in
  let program = workload.Ba_workloads.Spec.build () in
  let profile = Ba_exec.Engine.profile_program ~max_steps program in
  if proc_id < 0 || proc_id >= Ba_ir.Program.n_procs program then begin
    Printf.eprintf "procedure id out of range (program has %d)\n"
      (Ba_ir.Program.n_procs program);
    exit 1
  end;
  print_string (Ba_cfg.Graph.dot ~profile:(profile, proc_id) (Ba_ir.Program.proc program proc_id))

(* Alignment-as-a-service: block in the persistent request loop until
   SIGINT/SIGTERM, then drain and exit.  All the interesting behaviour
   (batching, sharded caching, backpressure) lives in Ba_serve.Server. *)
let serve_cmd socket jobs cache_mb queue_len batch_max =
  let cfg =
    {
      (Ba_serve.Server.default_config ~socket_path:socket) with
      jobs;
      cache_mb;
      queue_len;
      batch_max;
    }
  in
  Printf.printf "serving on %s (queue %d, batch %d%s)\n%!" socket queue_len
    batch_max
    (match jobs with Some j -> Printf.sprintf ", %d jobs" j | None -> "");
  Ba_serve.Server.run cfg;
  print_endline "drained, bye"

let () =
  (match Ba_par.Pool.check_env () with
  | Ok () -> ()
  | Error msg ->
    prerr_endline ("branch_align: " ^ msg);
    exit 2);
  let proc_arg =
    Arg.(value & opt int 0 & info [ "proc" ] ~doc:"Procedure id to dump.")
  in
  let interproc_arg =
    let doc =
      "Build the aligned image with the inter-procedural layout: procedures \
       chained along their heaviest call edges and all-cold layout suffixes \
       moved to one trailing cold section.  Decisions are unchanged — only \
       address assignment differs."
    in
    Arg.(value & flag & info [ "interproc" ] ~doc)
  in
  let run =
    Cmd.v
      (Cmd.info "run" ~doc:"Profile, align and compare a workload.")
      Term.(
        const run_cmd $ workload_arg $ algo_arg $ arch_arg $ interproc_arg
        $ max_steps_arg)
  in
  let list =
    Cmd.v (Cmd.info "list" ~doc:"List available workloads.") Term.(const list_cmd $ const ())
  in
  let dump =
    Cmd.v
      (Cmd.info "dump-cfg" ~doc:"Print a procedure's profiled CFG as GraphViz.")
      Term.(const dump_cfg_cmd $ workload_arg $ proc_arg $ max_steps_arg)
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~doc:"How many sites to show.")
  in
  let hotspots =
    Cmd.v
      (Cmd.info "hotspots" ~doc:"Show the hottest branch sites of a workload.")
      Term.(const hotspots_cmd $ workload_arg $ top_arg $ max_steps_arg)
  in
  let trace_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace" ] ~doc:"Path of the binary trace file.")
  in
  let trace_group =
    let record =
      Cmd.v
        (Cmd.info "record"
           ~doc:
             "Record a workload's packed semantic trace (outcome bits and \
              switch/vcall indices only — layout-independent) to a file.")
        Term.(const trace_record_cmd $ workload_arg $ trace_arg $ max_steps_arg)
    in
    let replay =
      Cmd.v
        (Cmd.info "replay"
           ~doc:
             "Replay a packed semantic trace through any layout of its \
              workload via the flat replayer; no interpreter pass for \
              $(b,--algo orig).")
        Term.(const trace_replay_cmd $ workload_arg $ trace_arg $ algo_arg $ arch_arg)
    in
    Cmd.group
      (Cmd.info "trace"
         ~doc:"Record/replay packed semantic traces (magic BAST1).")
      [ record; replay ]
  in
  let align =
    let align_algo_arg =
      let doc =
        "Alignment algorithm: orig, greedy, cost, exttsp, tryN (e.g. try15), \
         or anneal (the seeded annealing search)."
      in
      Arg.(value & opt algo_conv Ba_delta.Algo.Anneal & info [ "algo" ] ~doc)
    in
    let seed_arg =
      let doc = "PRNG seed for the annealing search." in
      Arg.(value & opt int 0 & info [ "seed" ] ~doc)
    in
    let sweeps_arg =
      let doc = "Annealing sweeps over the move vocabulary, per procedure." in
      Arg.(
        value & opt int Ba_delta.Anneal.default_sweeps & info [ "sweeps" ] ~doc)
    in
    Cmd.v
      (Cmd.info "align"
         ~doc:
           "Align one workload and print the resulting layout: block orders, \
            forced jump legs, expected cost and exact simulated penalty \
            cycles.  $(b,--algo anneal) runs the seeded annealing search; \
            output is byte-identical at any $(b,-j).")
      Term.(
        const align_cmd $ workload_arg $ align_algo_arg $ arch_arg $ seed_arg
        $ sweeps_arg $ max_steps_arg $ jobs_arg)
  in
  let disasm =
    Cmd.v
      (Cmd.info "disasm"
         ~doc:"Disassemble a procedure, original and aligned side by side.")
      Term.(
        const disasm_cmd $ workload_arg $ algo_arg $ arch_arg
        $ Arg.(value & opt int 0 & info [ "proc" ] ~doc:"Procedure id.")
        $ max_steps_arg)
  in
  let metrics_arg =
    let doc =
      "Collect pipeline metrics while profiling, aligning and simulating, and \
       print them after the table.  $(b,--metrics) prints ASCII tables; \
       $(b,--metrics=json) prints the deterministic JSON document."
    in
    let fmt =
      Arg.enum [ ("ascii", Ba_obs.Sink.Ascii); ("json", Ba_obs.Sink.Json) ]
    in
    Arg.(
      value
      & opt ~vopt:(Some Ba_obs.Sink.Ascii) (some fmt) None
      & info [ "metrics" ] ~doc)
  in
  let simulate =
    Cmd.v
      (Cmd.info "simulate"
         ~doc:
           "Profile, align and run a workload through every BEP architecture, \
            reporting per-architecture accuracy and penalty cycles (use \
            $(b,--algo orig) for the unaligned layout).")
      Term.(
        const simulate_cmd $ workload_arg $ algo_arg $ arch_arg $ max_steps_arg
        $ metrics_arg)
  in
  let workload_opt_arg =
    let doc = "Workload to check; omit to check every built-in workload." in
    Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~doc)
  in
  let strict_arg =
    let doc = "Treat warnings as fatal (non-zero exit)." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let analyze =
    let algo_opt_arg =
      let doc =
        "Restrict to one algorithm (default: orig, greedy, cost and try15)."
      in
      Arg.(value & opt (some algo_conv) None & info [ "algo" ] ~doc)
    in
    let arch_opt_arg =
      let doc = "Restrict to one cost-model architecture (default: all five)." in
      Arg.(value & opt (some arch_conv) None & info [ "arch" ] ~doc)
    in
    let placement_arg =
      let doc =
        "Run the conflict-aware placement post-pass on every cell, report \
         the conflict objective before and after, and re-verify each placed \
         image (bisimulation and cost certification); exits non-zero if any \
         placed image fails to verify."
      in
      Arg.(value & flag & info [ "placement" ] ~doc)
    in
    Cmd.v
      (Cmd.info "analyze"
         ~doc:
           "Static predictor-interference analysis: evaluate each predictor \
            structure's indexing function over the aligned image's address \
            map and report the weighted conflicts (PHT aliasing, BTB set \
            pressure, RAS depth, cache-line sharing) — per workload, \
            algorithm and cost model, with no simulation.")
      Term.(
        const analyze_cmd $ workload_opt_arg $ algo_opt_arg $ arch_opt_arg
        $ placement_arg $ format_arg $ max_steps_arg $ jobs_arg)
  in
  let bound =
    let algo_opt_arg =
      let doc =
        "Restrict to one algorithm (default: orig, greedy, cost and try15)."
      in
      Arg.(value & opt (some algo_conv) None & info [ "algo" ] ~doc)
    in
    let arch_opt_arg =
      let doc = "Restrict to one cost-model architecture (default: all five)." in
      Arg.(value & opt (some arch_conv) None & info [ "arch" ] ~doc)
    in
    Cmd.v
      (Cmd.info "bound"
         ~doc:
           "Static cost bounds: abstract-interpret each lowered image into a \
            sound [lower, upper] interval on its expected branch-penalty \
            cycles — per workload, algorithm and cost model, with no \
            simulation.  A single cell prints the per-site detail; output is \
            byte-identical at any $(b,-j).")
      Term.(
        const bound_cmd $ workload_opt_arg $ algo_opt_arg $ arch_opt_arg
        $ format_arg $ max_steps_arg $ jobs_arg)
  in
  let lint =
    Cmd.v
      (Cmd.info "lint"
         ~doc:
           "Run the static checker over the whole alignment pipeline: the five \
            built-in stages (IR, profile, decision, linear, image), then the \
            conflict, audit and bound stages on the checked image; exits \
            non-zero on any error.")
      Term.(const lint_cmd $ workload_opt_arg $ algo_arg $ arch_arg $ strict_arg
            $ format_arg $ max_steps_arg $ jobs_arg)
  in
  let verify =
    let no_audit_arg =
      let doc = "Skip the optimality audit (bisimulation and certification only)." in
      Arg.(value & flag & info [ "no-audit" ] ~doc)
    in
    let interproc_arg =
      let doc =
        "Verify the inter-procedural layout instead of the classic one: the \
         image is built with call-graph stitching and hot/cold splitting, \
         and the whole-image address map (procedure order, one cold \
         section, no overlaps) is checked alongside the per-procedure \
         bisimulation."
      in
      Arg.(value & flag & info [ "interproc" ] ~doc)
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Lint, then prove each lowered layout equivalent to its source CFG \
            (translation validation), certify its expected cost on every \
            architecture against an independent recomputation, and audit it \
            for locally improvable decisions; exits non-zero unless every \
            workload verifies.")
      Term.(const verify_cmd $ workload_opt_arg $ algo_arg $ arch_arg
            $ strict_arg $ no_audit_arg $ interproc_arg $ format_arg
            $ max_steps_arg $ jobs_arg)
  in
  let serve =
    let socket_arg =
      let doc = "Unix socket path to serve on." in
      Arg.(required & opt (some string) None & info [ "socket" ] ~doc)
    in
    let cache_mb_arg =
      let doc =
        "Byte budget of the sharded profile/trace cache, in MiB (default \
         512; 0 or less removes the bound)."
      in
      Arg.(value & opt (some int) None & info [ "cache-mb" ] ~doc)
    in
    let queue_len_arg =
      let doc =
        "Admission-queue bound; requests beyond it are answered \
         $(b,overloaded) immediately."
      in
      Arg.(value & opt Cli.positive 256 & info [ "queue-len" ] ~doc)
    in
    let batch_max_arg =
      let doc = "Maximum requests dispatched per pool batch." in
      Arg.(value & opt Cli.positive 64 & info [ "batch-max" ] ~doc)
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:
           "Serve align/simulate/verify/analyze/tables requests over a Unix \
            socket: batched through the deterministic pool (responses are \
            byte-identical at any $(b,-j)), cached in the sharded LRU, with \
            bounded-queue backpressure and graceful drain on \
            SIGINT/SIGTERM.")
      Term.(
        const serve_cmd $ socket_arg $ jobs_arg $ cache_mb_arg $ queue_len_arg
        $ batch_max_arg)
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "branch_align"
             ~doc:"Profile-guided branch alignment (Calder & Grunwald, ASPLOS 1994).")
          [ run; list; dump; hotspots; trace_group; align;
            disasm; simulate; analyze; bound; lint; verify; serve ]))
