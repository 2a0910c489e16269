(* The verify-all matrix: every built-in workload, verified end-to-end
   under every alignment algorithm (the annealing search included).  For
   each pair the pipeline is linted, the lowered layout is proved
   equivalent to its source CFG (translation validation), its expected
   cost is certified on every architecture against an independent
   recomputation, and the optimality audit runs.
   Any Error-severity diagnostic — or a pair that fails to produce a full
   certificate set — fails the build.

   The 144 pairs run on a Ba_par.Pool (BA_JOBS-many domains), each
   workload profiled once via the Ba_workloads.Profiled memo exactly as
   lint_all does; the per-pair certificate list keeps architecture order,
   so every digest matches the sequential run's. *)

let algos = Matrix.every_algo

let max_steps = 60_000

let () =
  let pairs =
    List.concat_map
      (fun (w : Ba_workloads.Spec.t) -> List.map (fun algo -> (w, algo)) algos)
      Ba_workloads.Spec.all
  in
  let results =
    Ba_par.Pool.with_pool (fun pool ->
        Ba_par.Pool.map pool
          (fun ((w : Ba_workloads.Spec.t), algo) ->
            let _program, profile = Ba_workloads.Profiled.get ~max_steps w in
            ( w,
              algo,
              Ba_verify.Run.verify ~arch:Ba_core.Cost_model.Btfnt ~profile algo
            ))
          pairs)
  in
  let failed = ref 0 and certificates = ref 0 in
  List.iter
    (fun ((w : Ba_workloads.Spec.t), algo, result) ->
      certificates := !certificates + List.length result.Ba_verify.Run.certificates;
      let errs = Ba_verify.Run.error_count result in
      if errs > 0 || not result.Ba_verify.Run.verified then begin
        incr failed;
        Printf.printf "FAIL %-12s %-8s %sverified, %d error%s\n" w.name
          (Ba_delta.Algo.name algo)
          (if result.Ba_verify.Run.verified then "" else "not ")
          errs
          (if errs = 1 then "" else "s");
        List.iter
          (fun d ->
            if Ba_analysis.Diagnostic.is_error d then
              Format.printf "  %a@." Ba_analysis.Diagnostic.pp d)
          (Ba_verify.Run.diagnostics result)
      end)
    results;
  if !failed > 0 then begin
    Printf.printf "verify-all: %d of %d workload/algo pairs failed\n" !failed
      (List.length results);
    exit 1
  end
  else
    Printf.printf "verify-all: %d workload/algo pairs verified, %d certificates issued\n"
      (List.length results) !certificates
