(* The lint-all matrix: every built-in workload, linted end-to-end under
   every alignment algorithm (the annealing search included) and every
   architectural cost model.  Runs as part of `dune runtest`; any
   Error-severity diagnostic fails the build with its rule id and location
   printed.

   The 720 cells run on a Ba_par.Pool (BA_JOBS-many domains; BA_JOBS=1
   forces the sequential path).  Each workload is profiled once via the
   Ba_workloads.Profiled memo and the profile shared across its algorithm
   × architecture cells — concurrent cells of the same workload block on
   the memo rather than re-profiling.  Results come back in cell order, so
   the report below is byte-identical whatever the scheduling. *)

let algos = Matrix.every_algo

(* Enough budget that every workload's control-flow signature is fully
   exercised; completion is not required (truncation is lint-legal). *)
let max_steps = 60_000

let () =
  let cells =
    List.concat_map
      (fun (w : Ba_workloads.Spec.t) ->
        List.concat_map
          (fun algo ->
            List.map (fun arch -> (w, algo, arch)) Ba_core.Cost_model.all_arches)
          algos)
      Ba_workloads.Spec.all
  in
  let results =
    Ba_par.Pool.with_pool (fun pool ->
        Ba_par.Pool.map pool
          (fun ((w : Ba_workloads.Spec.t), algo, arch) ->
            let program, profile = Ba_workloads.Profiled.get ~max_steps w in
            ( w,
              algo,
              arch,
              Ba_analysis.Run.check_pipeline ~profile
                ~align:(Ba_delta.Algo.decisions algo ~arch)
                program ))
          cells)
  in
  let failed = ref 0 in
  List.iter
    (fun ((w : Ba_workloads.Spec.t), algo, arch, report) ->
      let errs = Ba_analysis.Run.error_count report in
      if errs > 0 then begin
        incr failed;
        Printf.printf "FAIL %-12s %-8s %-11s %d error%s\n" w.name
          (Ba_delta.Algo.name algo)
          (Ba_core.Cost_model.arch_name arch)
          errs
          (if errs = 1 then "" else "s");
        List.iter
          (fun d ->
            if Ba_analysis.Diagnostic.is_error d then
              Format.printf "  %a@." Ba_analysis.Diagnostic.pp d)
          (Ba_analysis.Run.diagnostics report)
      end)
    results;
  let hits, misses = Ba_workloads.Profiled.stats () in
  if !failed > 0 then begin
    Printf.printf "lint-all: %d of %d workload/algo/arch combinations failed\n"
      !failed (List.length results);
    exit 1
  end
  else
    Printf.printf
      "lint-all: %d workload/algo/arch combinations, no errors (%d profiles \
       computed, %d cells served from the memo)\n"
      (List.length results) misses hits
